"""ChainRefiner verdicts: the decoys are refuted with the right reason,
kept output is a verbatim subset, and — the soundness differential — no
ground-truth or oracle-effective chain is ever refuted."""

import pytest

from repro.analysis.chain_refiner import REFINE_MODES, ChainRefiner
from repro.core import Tabby
from repro.corpus import build_component, build_lang_base
from repro.errors import AnalysisError
from repro.jvm.hierarchy import ClassHierarchy
from repro.verify import ChainVerifier


#: the whole-CPG modes; the ``guards`` mode is covered by
#: tests/core/test_refine.py
WHOLE_CPG = ("rta", "taint")


def _component(name):
    spec = build_component(name)
    classes = build_lang_base() + spec.classes
    tabby = Tabby().add_classes(classes)
    chains = tabby.find_gadget_chains()
    return spec, classes, tabby, chains


@pytest.fixture(scope="module")
def cc3():
    return _component("commons-collections(3.2.1)")


@pytest.fixture(scope="module")
def hibernate():
    return _component("Hibernate")


class TestConstruction:
    def test_rejects_unknown_modes(self):
        hierarchy = ClassHierarchy(build_lang_base())
        with pytest.raises(AnalysisError, match="unknown refinement mode"):
            ChainRefiner(hierarchy, modes=("rta", "cha"))

    def test_rejects_empty_modes(self):
        hierarchy = ClassHierarchy(build_lang_base())
        with pytest.raises(AnalysisError, match="at least one"):
            ChainRefiner(hierarchy, modes=())

    def test_rejects_empty_hierarchy(self):
        with pytest.raises(AnalysisError, match="snapshot"):
            ChainRefiner(ClassHierarchy([]))

    def test_mode_order_is_canonical(self):
        hierarchy = ClassHierarchy(build_lang_base())
        refiner = ChainRefiner(hierarchy, modes=("taint", "guards", "rta"))
        assert refiner.modes == REFINE_MODES == ("guards", "rta", "taint")
        assert ChainRefiner(hierarchy).modes == REFINE_MODES


class TestDecoyRefutation:
    def test_cc3_rta_decoy_is_refuted(self, cc3):
        spec, classes, tabby, chains = cc3
        result = ChainRefiner(tabby.cpg.hierarchy, WHOLE_CPG).refine(chains)
        assert result.statistics["refuted_by_kind"] == {
            "rta-dead-dispatch": 1
        }
        ((chain, reason),) = result.refuted
        assert chain.steps[0].class_name.endswith("ObservableCollection")
        assert "StandardModificationHandler" in reason.detail or (
            "ModificationHandler" in reason.detail
        )
        assert not ChainVerifier(classes).verify(chain).effective

    def test_hibernate_taint_decoy_is_refuted(self, hibernate):
        spec, classes, tabby, chains = hibernate
        result = ChainRefiner(tabby.cpg.hierarchy, WHOLE_CPG).refine(chains)
        assert result.statistics["refuted_by_kind"] == {"untainted-sink": 1}
        ((chain, reason),) = result.refuted
        assert chain.steps[0].class_name.endswith("UpdateTimestampsCache")
        assert not ChainVerifier(classes).verify(chain).effective

    def test_decoys_escape_the_guard_pass(self, cc3, hibernate):
        """The planted decoys carry no constant guard: only whole-CPG
        refinement can explain them (the >= 1-beyond-guard gate)."""
        for spec, classes, tabby, chains in (cc3, hibernate):
            guard_kept = ChainRefiner(
                tabby.cpg.hierarchy, modes=("guards",)
            ).refine(chains).kept
            guard_keys = {c.key for c in guard_kept}
            for chain, _reason in ChainRefiner(
                tabby.cpg.hierarchy, WHOLE_CPG
            ).refine(chains).refuted:
                assert chain.key in guard_keys

    def test_all_modes_keep_each_pass_reason(self, cc3):
        """One pass over every mode refutes the union of the single-mode
        refutations, and the guard pass, which runs first, names the
        reason wherever it applies."""
        spec, classes, tabby, chains = cc3
        hierarchy = tabby.cpg.hierarchy
        guards = ChainRefiner(hierarchy, modes=("guards",)).refine(chains)
        whole = ChainRefiner(hierarchy, WHOLE_CPG).refine(chains)
        both = ChainRefiner(hierarchy).refine(chains)
        expected = {c.key: r for c, r in whole.refuted}
        expected.update({c.key: r for c, r in guards.refuted})
        assert {c.key: r for c, r in both.refuted} == expected
        assert both.statistics["refuted_by_kind"] == {
            "constant-guard": len(guards.refuted),
            "rta-dead-dispatch": 1,
        }


class TestSoundness:
    @pytest.mark.parametrize("fixture", ["cc3", "hibernate"])
    def test_no_true_chain_is_refuted(self, fixture, request):
        spec, classes, tabby, chains = request.getfixturevalue(fixture)
        verifier = ChainVerifier(classes)
        result = ChainRefiner(tabby.cpg.hierarchy).refine(chains)
        for chain, _reason in result.refuted:
            assert spec.match_known(chain) is None
            assert not verifier.verify(chain).effective

    @pytest.mark.parametrize("fixture", ["cc3", "hibernate"])
    def test_kept_is_a_verbatim_ordered_subset(self, fixture, request):
        spec, classes, tabby, chains = request.getfixturevalue(fixture)
        result = ChainRefiner(tabby.cpg.hierarchy).refine(chains)
        kept = iter(result.kept)
        remaining = next(kept, None)
        for chain in chains:
            if remaining is chain:
                remaining = next(kept, None)
        assert remaining is None  # every kept chain is an input, in order

    def test_unknown_never_refutes(self, cc3):
        """Chains the replay cannot follow produce UNKNOWN and survive."""
        spec, classes, tabby, chains = cc3
        refiner = ChainRefiner(tabby.cpg.hierarchy)
        result = refiner.refine(chains)
        statuses = {v.status for v in result.verdicts}
        assert statuses <= {"kept", "refuted", "unknown"}
        assert len(result.kept) + len(result.refuted) == len(chains)

    def test_statistics_shape(self, cc3):
        spec, classes, tabby, chains = cc3
        stats = ChainRefiner(tabby.cpg.hierarchy, WHOLE_CPG).refine(
            chains
        ).statistics
        assert stats["modes"] == ["rta", "taint"]
        assert stats["chains"] == len(chains)
        assert stats["kept"] + stats["refuted"] + stats["unknown"] == len(chains)
        assert stats["rta_instantiated"] > 0
        assert stats["taint"]["methods"] > 0


class TestSingleModes:
    def test_rta_only_skips_taint_refutations(self, hibernate):
        spec, classes, tabby, chains = hibernate
        result = ChainRefiner(tabby.cpg.hierarchy, modes=("rta",)).refine(
            chains
        )
        assert result.statistics["refuted"] == 0
        assert "taint" not in result.statistics

    def test_taint_only_skips_rta_refutations(self, cc3):
        spec, classes, tabby, chains = cc3
        result = ChainRefiner(tabby.cpg.hierarchy, modes=("taint",)).refine(
            chains
        )
        assert "rta-dead-dispatch" not in result.statistics["refuted_by_kind"]
        assert "rta_instantiated" not in result.statistics


class TestApiIntegration:
    def test_refine_kwarg_filters_and_records(self, cc3):
        spec, classes, _tabby, chains = cc3
        tabby = Tabby().add_classes(classes)
        refined = tabby.find_gadget_chains(refine=("rta", "taint"))
        assert tabby.last_refine is not None
        assert [c.key for c in refined] == [
            c.key for c in tabby.last_refine.kept
        ]
        assert len(tabby.last_refine.refuted) == 1
        assert len(refined) == len(chains) - 1

    def test_refine_rejects_snapshot_loaded_cpg(self, cc3, tmp_path):
        spec, classes, _tabby, _chains = cc3
        path = str(tmp_path / "cpg.snap")
        Tabby().add_classes(classes).save_cpg(path)
        loaded = Tabby().load_cpg(path)
        with pytest.raises(AnalysisError):
            loaded.find_gadget_chains(refine=("rta",))

    def test_verdict_objects_serialize(self, cc3):
        spec, classes, tabby, chains = cc3
        result = ChainRefiner(tabby.cpg.hierarchy).refine(chains)
        for verdict in result.verdicts:
            doc = verdict.as_dict()
            assert doc["status"] in ("kept", "refuted", "unknown")
            if verdict.reason is not None:
                assert doc["refutation"]["kind"] == verdict.reason.kind
