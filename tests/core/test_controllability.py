"""Unit tests for Algorithm 1 beyond the Figure 5 walkthrough."""

import pytest

from repro.core.actions import UNCONTROLLABLE_WEIGHT
from repro.core.controllability import ControllabilityAnalysis
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy


def analyze(build_fn):
    pb = ProgramBuilder()
    build_fn(pb)
    hierarchy = ClassHierarchy(pb.build())
    return ControllabilityAnalysis(hierarchy).analyze_all()


def summary(summaries, cls, name):
    return next(
        s
        for s in summaries.values()
        if s.method.class_name == cls and s.method.name == name
    )


class TestIntraprocedural:
    def test_this_field_load_weight_zero(self):
        def build(pb):
            with pb.cls("t.C") as c:
                c.field("f", "java.lang.Object")
                with c.method("m") as m:
                    v = m.get_field(m.this, "f")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        (site,) = [c for c in s.call_sites if c.callee_name == "toString"]
        assert site.polluted_position[0] == 0

    def test_param_weight_is_index(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["int", "java.lang.Object"]) as m:
                    m.invoke(m.param(2), "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 2

    def test_new_destroys_controllability(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    p = m.param(1)
                    m.assign(p, m.new("t.C"))
                    m.invoke(p, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == UNCONTROLLABLE_WEIGHT

    def test_cast_passes_through(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.cast(m.param(1), "java.lang.String")
                    m.invoke(v, "java.lang.String", "trim", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_string_constants_uncontrollable(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m") as m:
                    rt = m.invoke_static("java.lang.Runtime", "getRuntime", returns="java.lang.Runtime")
                    m.invoke(rt, "java.lang.Runtime", "exec", ["fixed command"])

        s = summary(analyze(build), "t.C", "m")
        exec_site = [c for c in s.call_sites if c.callee_name == "exec"][0]
        assert exec_site.polluted_position == [
            UNCONTROLLABLE_WEIGHT,
            UNCONTROLLABLE_WEIGHT,
        ]
        assert exec_site.pruned

    def test_array_element_tracking(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    arr = m.new_array("java.lang.Object", 1)
                    m.array_set(arr, 0, m.param(1))
                    v = m.array_get(arr, 0)
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_param_array_element_controllable(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object[]"]) as m:
                    v = m.array_get(m.param(1), 0)
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_static_field_within_body(self):
        def build(pb):
            with pb.cls("t.C") as c:
                c.field("shared", "java.lang.Object", static=True)
                with c.method("m", params=["java.lang.Object"]) as m:
                    m.set_static("t.C", "shared", m.param(1))
                    v = m.get_static("t.C", "shared")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1

    def test_static_field_default_uncontrollable(self):
        def build(pb):
            with pb.cls("t.C") as c:
                c.field("shared", "java.lang.Object", static=True)
                with c.method("m") as m:
                    v = m.get_static("t.C", "shared")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].pruned

    def test_branches_join_controllably(self):
        """A value controllable on one branch stays flagged (this is the
        source of Tabby's conditional false positives, §IV-E)."""

        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object", "int"]) as m:
                    v = m.local("v")
                    m.assign(v, m.new("t.C"))
                    m.if_eq(m.param(2), 0, "keep")
                    m.assign(v, m.param(1))
                    m.label("keep")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].polluted_position[0] == 1


class TestInterprocedural:
    def test_taint_through_callee_return(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("helper", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    m.ret(m.param(1))
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.invoke(m.this, "t.C", "helper", [m.param(1)], returns="java.lang.Object")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        toString = [c for c in s.call_sites if c.callee_name == "toString"][0]
        assert toString.polluted_position[0] == 1

    def test_taint_destroyed_by_callee(self):
        """The precision win over GadgetInspector/Serianalyzer (§III-C):
        a callee that replaces its parameter's content must not leave the
        caller believing the value is still controllable."""

        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("scrub", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    fresh = m.new("t.C")
                    m.ret(fresh)
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.invoke(m.this, "t.C", "scrub", [m.param(1)], returns="java.lang.Object")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        toString = [c for c in s.call_sites if c.callee_name == "toString"][0]
        assert toString.polluted_position[0] == UNCONTROLLABLE_WEIGHT
        assert toString.pruned

    def test_callee_field_write_visible_in_caller(self):
        def build(pb):
            with pb.cls("t.Holder") as c:
                c.field("v", "java.lang.Object")
            with pb.cls("t.C") as c:
                with c.method(
                    "store", params=["t.Holder", "java.lang.Object"]
                ) as m:
                    m.set_field(m.param(1), "v", m.param(2))
                with c.method("m", params=["java.lang.Object"]) as m:
                    h = m.construct("t.Holder")
                    m.invoke(m.this, "t.C", "store", [h, m.param(1)])
                    v = m.get_field(h, "v")
                    m.invoke(v, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        toString = [c for c in s.call_sites if c.callee_name == "toString"][0]
        assert toString.polluted_position[0] == 1

    def test_recursion_terminates_with_identity_summary(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("loop", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    v = m.invoke(m.this, "t.C", "loop", [m.param(1)], returns="java.lang.Object")
                    m.ret(v)

        summaries = analyze(build)
        s = summary(summaries, "t.C", "loop")
        assert s.action.mapping["return"] == "null"

    def test_mutual_recursion_terminates(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("ping", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    v = m.invoke(m.this, "t.C", "pong", [m.param(1)], returns="java.lang.Object")
                    m.ret(v)
                with c.method("pong", params=["java.lang.Object"], returns="java.lang.Object") as m:
                    v = m.invoke(m.this, "t.C", "ping", [m.param(1)], returns="java.lang.Object")
                    m.ret(v)

        summaries = analyze(build)
        assert summary(summaries, "t.C", "ping") is not None

    def test_phantom_callee_passes_taint_through_receiver(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    v = m.invoke(m.param(1), "java.lang.Object", "toString", returns="java.lang.String")
                    rt = m.invoke_static("java.lang.Runtime", "getRuntime", returns="java.lang.Runtime")
                    m.invoke(rt, "java.lang.Runtime", "exec", [v])

        s = summary(analyze(build), "t.C", "m")
        exec_site = [c for c in s.call_sites if c.callee_name == "exec"][0]
        assert exec_site.polluted_position == [UNCONTROLLABLE_WEIGHT, 1]

    def test_pruned_sites_counted(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m") as m:
                    obj = m.new("t.C")
                    m.invoke(obj, "java.lang.Object", "toString", returns="java.lang.String")

        s = summary(analyze(build), "t.C", "m")
        assert all(c.pruned for c in s.call_sites)
        assert s.live_call_sites == []

    def test_dynamic_call_recorded_but_unresolved(self):
        def build(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    m.invoke_dynamic(m.param(1), "anything")

        s = summary(analyze(build), "t.C", "m")
        assert s.call_sites[0].kind == "dynamic"
        assert s.call_sites[0].resolved is None


def _static_slot_program(pb):
    """Two bodies whose parameter ``org`` is named like the package
    root of the static field ``org.demo.Flags.slot`` they use."""
    with pb.cls("org.demo.Flags") as c:
        c.field("slot", "java.lang.Object", static=True)
        with c.method("keep", params=["java.lang.Object"], static=True,
                      param_names=["org"]) as m:
            m.set_static("org.demo.Flags", "slot", m.param(1))
            m.ret()
        with c.method("reload", params=["java.lang.Object"],
                      returns="java.lang.Object", static=True,
                      param_names=["org"]) as m:
            m.set_static("org.demo.Flags", "slot", m.param(1))
            m.assign(m.param(1), None)
            m.ret(m.get_static("org.demo.Flags", "slot"))


@pytest.mark.parametrize("engine", ["compiled", "oracle"])
class TestStaticFieldsStayApartFromLocals:
    """A static path is not a field of the local named like its package
    root: it neither leaks into that parameter's Action entries nor dies
    when the local is rebound."""

    def summaries(self, engine):
        from tests.oracles.controllability import (
            ControllabilityAnalysis as OracleAnalysis,
        )

        pb = ProgramBuilder()
        _static_slot_program(pb)
        cls = ControllabilityAnalysis if engine == "compiled" else OracleAnalysis
        return cls(ClassHierarchy(pb.build())).analyze_all()

    def test_static_store_adds_no_parameter_field(self, engine):
        s = summary(self.summaries(engine), "org.demo.Flags", "keep")
        assert s.action.to_property() == {"final-param-1": "init-param-1"}

    def test_rebinding_the_local_keeps_the_static(self, engine):
        s = summary(self.summaries(engine), "org.demo.Flags", "reload")
        assert s.action.to_property() == {
            "final-param-1": "null",
            "return": "init-param-1",
        }
