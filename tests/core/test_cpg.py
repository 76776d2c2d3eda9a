"""Unit tests for CPG construction (ORG + PCG + MAG)."""

import pytest

from repro.core.cpg import ALIAS, CALL, CPGBuilder, EXTEND, HAS, INTERFACE
from repro.core.sources import SourceCatalog
from repro.errors import AnalysisError
from repro.graphdb.snapshot import graph_fingerprint
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import SERIALIZABLE


def build_cpg(build_fn, **kw):
    pb = ProgramBuilder(jar="test.jar")
    build_fn(pb)
    return CPGBuilder(ClassHierarchy(pb.build()), **kw).build()


def demo_program(pb):
    obj = pb.cls("java.lang.Object", extends=None)
    obj.abstract_method("toString", returns="java.lang.String")
    obj.finish()
    iface = pb.interface("t.Handler")
    iface.abstract_method("handle", params=["java.lang.Object"])
    iface.finish()
    with pb.cls("t.Impl", implements=["t.Handler", SERIALIZABLE]) as c:
        c.field("target", "java.lang.Object")
        with c.method("handle", params=["java.lang.Object"]) as m:
            m.invoke(m.param(1), "java.lang.Object", "toString", returns="java.lang.String")
        with c.method("readObject", params=["java.io.ObjectInputStream"]) as m:
            t = m.get_field(m.this, "target")
            m.invoke(t, "t.Handler", "handle", [t], kind="interface")


class TestORG:
    def test_class_nodes_created(self):
        cpg = build_cpg(demo_program)
        assert cpg.class_node("t.Impl") is not None
        assert cpg.class_node("t.Handler")["IS_INTERFACE"]

    def test_extend_and_interface_edges(self):
        cpg = build_cpg(demo_program)
        impl = cpg.class_node("t.Impl")
        extends = cpg.graph.out_relationships(impl, EXTEND)
        interfaces = cpg.graph.out_relationships(impl, INTERFACE)
        assert len(extends) == 1
        assert cpg.graph.node(extends[0].end_id)["NAME"] == "java.lang.Object"
        iface_names = {cpg.graph.node(r.end_id)["NAME"] for r in interfaces}
        assert iface_names == {"t.Handler", SERIALIZABLE}

    def test_phantom_class_node_for_serializable(self):
        cpg = build_cpg(demo_program)
        node = cpg.class_node(SERIALIZABLE)
        assert node is not None and node["IS_PHANTOM"]

    def test_has_edges(self):
        cpg = build_cpg(demo_program)
        impl = cpg.class_node("t.Impl")
        methods = {
            cpg.graph.node(r.end_id)["NAME"]
            for r in cpg.graph.out_relationships(impl, HAS)
        }
        assert methods == {"handle", "readObject"}

    def test_serializable_flag(self):
        cpg = build_cpg(demo_program)
        assert cpg.class_node("t.Impl")["IS_SERIALIZABLE"]
        assert not cpg.class_node("t.Handler")["IS_SERIALIZABLE"]

    def test_jar_counted(self):
        cpg = build_cpg(demo_program)
        assert cpg.statistics.jar_count == 1


class TestPCG:
    def test_call_edge_carries_pp(self):
        cpg = build_cpg(demo_program)
        handle = cpg.method_node("t.Impl", "handle")
        calls = cpg.graph.out_relationships(handle, CALL)
        assert len(calls) == 1
        assert calls[0]["POLLUTED_POSITION"] == [1, 1][: len(calls[0]["POLLUTED_POSITION"])]

    def test_call_edge_to_resolved_method(self):
        cpg = build_cpg(demo_program)
        ro = cpg.method_node("t.Impl", "readObject")
        calls = cpg.graph.out_relationships(ro, CALL)
        targets = {cpg.graph.node(r.end_id)["CLASSNAME"] for r in calls}
        # t.Handler.handle is abstract but defined -> resolved node
        assert "t.Handler" in targets

    def test_uncontrollable_call_pruned(self):
        def program(pb):
            with pb.cls("t.C") as c:
                with c.method("m") as m:
                    obj = m.new("t.C")
                    m.invoke(obj, "java.lang.Object", "toString", returns="java.lang.String")

        cpg = build_cpg(program)
        node = cpg.method_node("t.C", "m")
        assert cpg.graph.out_relationships(node, CALL) == []
        assert cpg.statistics.pruned_call_sites == 1

    def test_pruning_can_be_disabled(self):
        def program(pb):
            with pb.cls("t.C") as c:
                with c.method("m") as m:
                    obj = m.new("t.C")
                    m.invoke(obj, "java.lang.Object", "toString", returns="java.lang.String")

        cpg = build_cpg(program, prune_uncontrollable_calls=False)
        node = cpg.method_node("t.C", "m")
        assert len(cpg.graph.out_relationships(node, CALL)) == 1

    def test_phantom_method_node_for_jdk_callee(self):
        cpg = build_cpg(demo_program)
        phantom = cpg.method_node("java.lang.Runtime", "exec")
        assert phantom is None  # not referenced by this program
        toString = cpg.method_node("java.lang.Object", "toString")
        assert toString is not None and not toString["IS_PHANTOM"]

    def test_action_stored_on_method_node(self):
        cpg = build_cpg(demo_program)
        node = cpg.method_node("t.Impl", "handle")
        assert "final-param-1" in node["ACTION"]

    def test_dynamic_call_sites_have_no_edge(self):
        def program(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    m.invoke_dynamic(m.param(1), "x")

        cpg = build_cpg(program)
        node = cpg.method_node("t.C", "m")
        assert cpg.graph.out_relationships(node, CALL) == []


class TestMAG:
    def test_alias_edge_to_interface_method(self):
        cpg = build_cpg(demo_program)
        impl_handle = cpg.method_node("t.Impl", "handle")
        aliases = cpg.graph.out_relationships(impl_handle, ALIAS)
        assert len(aliases) == 1
        target = cpg.graph.node(aliases[0].end_id)
        assert target["CLASSNAME"] == "t.Handler"

    def test_alias_edge_to_phantom_parent(self):
        """URLDNS shape: java.lang.Object is NOT defined, but a call to
        Object.toString creates a phantom node; overrides must alias it."""

        def program(pb):
            with pb.cls("t.Caller") as c:
                with c.method("m", params=["java.lang.Object"]) as m:
                    m.invoke(m.param(1), "java.lang.Object", "toString", returns="java.lang.String")
            with pb.cls("t.Custom") as c:
                with c.method("toString", returns="java.lang.String") as m:
                    m.ret("x")

        cpg = build_cpg(program)
        custom = cpg.method_node("t.Custom", "toString")
        aliases = cpg.graph.out_relationships(custom, ALIAS)
        assert len(aliases) == 1
        phantom = cpg.graph.node(aliases[0].end_id)
        assert phantom["IS_PHANTOM"] and phantom["CLASSNAME"] == "java.lang.Object"

    def test_no_alias_for_different_arity(self):
        def program(pb):
            with pb.cls("t.Base") as c:
                with c.method("f", params=["int"]) as m:
                    m.ret()
            with pb.cls("t.Sub", extends="t.Base") as c:
                with c.method("f", params=["int", "int"]) as m:
                    m.ret()

        cpg = build_cpg(program)
        sub_f = cpg.method_node("t.Sub", "f")
        assert cpg.graph.out_relationships(sub_f, ALIAS) == []


class TestMarkers:
    def test_source_marked(self):
        cpg = build_cpg(demo_program)
        sources = {(n["CLASSNAME"], n["NAME"]) for n in cpg.source_nodes()}
        assert ("t.Impl", "readObject") in sources

    def test_native_profile_excludes_tostring(self):
        def program(pb):
            with pb.cls("t.C", implements=[SERIALIZABLE]) as c:
                with c.method("toString", returns="java.lang.String") as m:
                    m.ret("x")

        cpg = build_cpg(program, sources=SourceCatalog.native())
        assert cpg.source_nodes() == []

    def test_sink_marked_with_tc(self):
        def program(pb):
            with pb.cls("t.C") as c:
                with c.method("m", params=["java.lang.String"]) as m:
                    rt = m.invoke_static("java.lang.Runtime", "getRuntime", returns="java.lang.Runtime")
                    m.invoke(rt, "java.lang.Runtime", "exec", [m.param(1)])

        cpg = build_cpg(program)
        (sink,) = cpg.sink_nodes()
        assert sink["CLASSNAME"] == "java.lang.Runtime"
        assert sink["TRIGGER_CONDITION"] == [1]
        assert sink["SINK_TYPE"] == "EXEC"

    def test_statistics_counts(self):
        cpg = build_cpg(demo_program)
        s = cpg.statistics
        assert s.class_node_count >= 4
        assert s.method_node_count >= 4
        assert s.relationship_edge_count == cpg.graph.relationship_count
        assert s.build_seconds >= 0


class TestBuilderConfig:
    def test_parallel_keyword_accepts_only_one(self):
        """The summary phase runs in-process: ``parallel=1`` builds,
        any other value raises instead of silently running serially."""
        pb = ProgramBuilder(jar="test.jar")
        demo_program(pb)
        hierarchy = ClassHierarchy(pb.build())
        default = CPGBuilder(hierarchy).build()
        explicit = CPGBuilder(hierarchy, parallel=1).build()
        assert graph_fingerprint(explicit.graph) == graph_fingerprint(default.graph)
        for parallel in (0, 2, None):
            with pytest.raises(AnalysisError, match="parallel must be 1"):
                CPGBuilder(hierarchy, parallel=parallel)
