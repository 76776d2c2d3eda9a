"""Tests for the opt-in guard-feasibility chain refinement (the
``guards`` mode of :class:`ChainRefiner`).

The acceptance property: with refinement OFF the chain list is
bit-identical to the baseline pipeline; with it ON, planted
constant-guard decoys are refuted (FPR strictly drops) while every true
chain — known or unknown-but-effective — survives (FNR unchanged).
"""

import pytest

from repro.analysis.chain_refiner import ChainRefiner
from repro.bench.tables import run_table_ix_component
from repro.core import Tabby
from repro.core.chains import ChainStep, GadgetChain
from repro.core.refine import GuardFeasibilityRefiner
from repro.errors import AnalysisError
from repro.corpus import build_component, build_lang_base
from repro.jvm.builder import ProgramBuilder
from repro.jvm.hierarchy import ClassHierarchy


def _guarded_program():
    """A.m calls B.hit behind `if (Config.ENABLED != 0)`, which the
    static-field oracle pins to false; A.open calls B.hit behind a
    parameter-dependent guard."""
    pb = ProgramBuilder()
    with pb.cls("t.Config") as c:
        c.field("ENABLED", "int", static=True)
    with pb.cls("t.B") as c:
        with c.method("hit") as m:
            m.ret()
    with pb.cls("t.A") as c:
        with c.method("m") as m:
            g = m.get_static("t.Config", "ENABLED")
            cmp = m.binop("!=", g, 0)
            m.iff(cmp, "fire")
            m.goto("end")
            m.label("fire")
            b = m.new("t.B")
            m.invoke(b, "t.B", "hit")
            m.label("end")
            m.ret()
        with c.method("open", params=["int"], param_names=["p"]) as m:
            m.if_ne(m.param(1), 0, "fire")
            m.goto("end")
            m.label("fire")
            b = m.new("t.B")
            m.invoke(b, "t.B", "hit")
            m.label("end")
            m.ret()
    return pb.build()


def _chain(caller_method):
    return GadgetChain(
        [
            ChainStep("t.A", caller_method, 1 if caller_method == "open" else 0,
                      "CALL"),
            ChainStep("t.B", "hit", 0, ""),
        ],
        sink_category="CODE",
    )


def _guards():
    return GuardFeasibilityRefiner(ClassHierarchy(_guarded_program()))


class TestRefinerUnit:
    def test_constant_guard_hop_is_refuted(self):
        assert _guards().chain_refutation(_chain("m")) is not None

    def test_param_guard_hop_is_kept(self):
        assert _guards().chain_refutation(_chain("open")) is None

    def test_alias_hop_is_never_refuted(self):
        chain = GadgetChain(
            [ChainStep("t.A", "m", 0, "ALIAS"), ChainStep("t.B", "hit", 0, "")],
        )
        assert _guards().chain_refutation(chain) is None

    def test_missing_caller_is_kept(self):
        chain = GadgetChain(
            [ChainStep("x.Nope", "m", 0, "CALL"), ChainStep("t.B", "hit", 0, "")],
        )
        assert _guards().chain_refutation(chain) is None

    def test_no_matching_site_is_kept(self):
        # hop names a callee A's body never invokes — conservatively kept
        chain = GadgetChain(
            [ChainStep("t.A", "m", 0, "CALL"),
             ChainStep("t.B", "other", 0, "")],
        )
        assert _guards().chain_refutation(chain) is None

    def test_refine_partition_preserves_order(self):
        classes = _guarded_program()
        chains = [_chain("open"), _chain("m"), _chain("open")]
        result = ChainRefiner(ClassHierarchy(classes), modes=("guards",)).refine(
            chains
        )
        assert result.kept == [chains[0], chains[2]]
        assert [chain for chain, _ in result.refuted] == [chains[1]]
        assert [v.status for v in result.verdicts] == ["kept", "refuted", "kept"]


class TestComponentRefinement:
    COMPONENT = "commons-collections(3.2.1)"

    def test_off_is_bit_identical(self):
        spec = build_component(self.COMPONENT)
        classes = build_lang_base() + spec.classes
        baseline = Tabby().add_classes(classes).find_gadget_chains()
        again = Tabby().add_classes(classes).find_gadget_chains(refine=None)
        assert [c.key for c in baseline] == [c.key for c in again]

    def test_on_refutes_decoys_and_loses_no_true_chain(self):
        spec = build_component(self.COMPONENT)
        classes = build_lang_base() + spec.classes
        tabby = Tabby().add_classes(classes)
        baseline = tabby.find_gadget_chains()
        refined = tabby.find_gadget_chains(refine=("guards",))
        refuted = tabby.last_refine.refuted
        assert len(refuted) >= 1
        assert len(refined) + len(refuted) == len(baseline)
        # every known (true) chain survives refinement
        known_base = {spec.match_known(c) for c in baseline} - {None}
        known_refined = {spec.match_known(c) for c in refined} - {None}
        assert known_base == known_refined

    def test_table_ix_fpr_drops_fnr_unchanged(self):
        result = run_table_ix_component(self.COMPONENT, refine=("guards",))
        base, refined = result.tabby, result.tabby_refined
        assert refined is not None
        assert refined.fake_count < base.fake_count       # FPR strictly drops
        assert refined.known_found == base.known_found    # FNR unchanged
        assert refined.unknown_count == base.unknown_count  # no effective lost
        assert refined.result_count < base.result_count

    def test_table_ix_baseline_columns_unchanged(self):
        plain = run_table_ix_component(self.COMPONENT)
        with_flag = run_table_ix_component(self.COMPONENT, refine=("guards",))
        assert plain.tabby_refined is None
        for attr in ("result_count", "fake_count", "known_found",
                     "unknown_count"):
            assert getattr(plain.tabby, attr) == getattr(with_flag.tabby, attr)


class TestRefutationReasons:
    """Refuted chains carry an explainable reason: which hop died, on
    which guard, and what constant value pins it shut."""

    def test_constant_guard_reason_names_the_hop(self):
        refiner = GuardFeasibilityRefiner(ClassHierarchy(_guarded_program()))
        reason = refiner.chain_refutation(_chain("m"))
        assert reason is not None
        assert reason.kind == "constant-guard"
        assert reason.step_index == 0
        assert reason.caller.startswith("t.A.m")
        assert reason.callee.startswith("t.B.hit")
        # the guard location and the pinned constant are both reported
        assert "ENABLED" in reason.detail
        assert "0" in reason.detail

    def test_kept_chain_has_no_reason(self):
        refiner = GuardFeasibilityRefiner(ClassHierarchy(_guarded_program()))
        assert refiner.chain_refutation(_chain("open")) is None

    def test_reason_serializes(self):
        refiner = GuardFeasibilityRefiner(ClassHierarchy(_guarded_program()))
        doc = refiner.chain_refutation(_chain("m")).as_dict()
        assert doc["kind"] == "constant-guard"
        assert doc["step_index"] == 0
        assert set(doc) == {"kind", "step_index", "caller", "callee", "detail"}

    def test_refine_with_reasons_matches_legacy_partition(self):
        """The ``guards`` mode of the one front end refutes exactly the
        chains the per-chain guard analysis refutes, with its reasons."""
        hierarchy = ClassHierarchy(_guarded_program())
        chains = [_chain("open"), _chain("m"), _chain("open")]
        result = ChainRefiner(hierarchy, modes=("guards",)).refine(chains)
        analysis = GuardFeasibilityRefiner(hierarchy)
        expected = [
            (chain, reason)
            for chain in chains
            if (reason := analysis.chain_refutation(chain)) is not None
        ]
        assert result.refuted == expected
        assert all(r.kind == "constant-guard" for _c, r in result.refuted)

    def test_api_exposes_refutation_pairs(self):
        spec = build_component("commons-collections(3.2.1)")
        classes = build_lang_base() + spec.classes
        tabby = Tabby().add_classes(classes)
        kept = tabby.find_gadget_chains(refine=("guards",))
        assert tabby.last_refine.refuted
        assert kept == tabby.last_refine.kept
        for _chain_obj, reason in tabby.last_refine.refuted:
            assert reason.kind == "constant-guard"

    def test_verdict_record_shape(self):
        hierarchy = ClassHierarchy(_guarded_program())
        chains = [_chain("open"), _chain("m")]
        records = ChainRefiner(hierarchy, modes=("guards",)).refine(
            chains
        ).records()
        assert records[0] == {
            "steps": ["t.A.open", "t.B.hit"],
            "sink_category": "CODE",
            "status": "kept",
        }
        assert records[1]["status"] == "refuted"
        assert records[1]["refutation"]["kind"] == "constant-guard"
        assert list(records[1]) == [
            "steps", "sink_category", "status", "refutation",
        ]


class TestSnapshotLoadedCpg:
    """A snapshot-loaded CPG carries no class hierarchy: every mode —
    guards included — must refuse rather than silently keep everything."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        spec = build_component("commons-collections(3.2.1)")
        path = str(tmp_path_factory.mktemp("snap") / "cc3.cpg")
        Tabby().add_classes(build_lang_base() + spec.classes).save_cpg(path)
        return Tabby.load_cpg(path)

    @pytest.mark.parametrize("mode", ["guards", "rta", "taint"])
    def test_every_mode_raises(self, loaded, mode):
        with pytest.raises(AnalysisError, match="snapshot-loaded CPG"):
            loaded.find_gadget_chains(refine=(mode,))
