"""Differential harness: every search engine mode reproduces baseline.

The optimized gadget-chain search (typed adjacency + source-reachability
pruning + negative state caching) promises a chain list *bit-identical*
to the baseline engine — same chains, same steps, same order — under
every Uniqueness mode, filter, and budget.
These tests assert exactly that on real corpus CPGs; the ``slow`` sweep
covers every Table IX component plus the merged corpus.

The baseline here is ``optimize=False``: the generic
:func:`repro.graphdb.traversal.traverse` enumeration with no pruning and
no caching — the pre-optimization engine.
"""

import pytest

from repro.core.cpg import CPGBuilder
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.traversal import Uniqueness
from repro.jvm.hierarchy import ClassHierarchy

QUICK_COMPONENTS = ("Clojure", "CommonsBeanutils1")

ALL_MODES = list(Uniqueness)


def component_classes(name):
    return build_lang_base() + build_component(name).classes


def build_cpg(classes):
    return CPGBuilder(ClassHierarchy(classes)).build()


def chain_fingerprint(chains):
    """Every step, in order — equality means identical chain lists."""
    return [
        (
            tuple(step.qualified for step in chain.steps),
            chain.sink_category,
            tuple(chain.trigger_condition),
        )
        for chain in chains
    ]


def find(cpg, **kwargs):
    finder = GadgetChainFinder(cpg, **kwargs)
    source_filter = kwargs.pop("_source_filter", None)
    return chain_fingerprint(finder.find_chains(source_filter=source_filter))


@pytest.fixture(scope="module", params=QUICK_COMPONENTS)
def corpus_cpg(request):
    return build_cpg(component_classes(request.param))


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.name for m in ALL_MODES])
def test_optimized_matches_baseline(corpus_cpg, mode):
    baseline = find(corpus_cpg, uniqueness=mode, optimize=False)
    optimized = find(corpus_cpg, uniqueness=mode, optimize=True)
    assert optimized == baseline


def test_each_layer_alone_matches_baseline(corpus_cpg):
    baseline = find(corpus_cpg, optimize=False)
    prune_only = find(
        corpus_cpg, optimize=True, negative_cache=False
    )
    cache_only = find(
        corpus_cpg, optimize=True, prune_unreachable=False
    )
    assert prune_only == baseline
    assert cache_only == baseline


def test_source_filter_matches_baseline(corpus_cpg):
    for prefix in ("java.util", "org.clojure", "com"):
        base = GadgetChainFinder(corpus_cpg, optimize=False)
        opt = GadgetChainFinder(corpus_cpg, optimize=True)
        assert chain_fingerprint(
            opt.find_chains(source_filter=prefix)
        ) == chain_fingerprint(base.find_chains(source_filter=prefix))


def test_tight_budget_and_depth_match_baseline(corpus_cpg):
    """max_results truncation happens at the same enumeration point —
    the negative cache must not reorder or skip accepted paths."""
    for max_depth, budget in ((6, 3), (12, 1), (4, None)):
        base = GadgetChainFinder(
            corpus_cpg, max_depth=max_depth,
            max_results_per_sink=budget, optimize=False,
        )
        opt = GadgetChainFinder(
            corpus_cpg, max_depth=max_depth,
            max_results_per_sink=budget, optimize=True,
        )
        assert chain_fingerprint(opt.find_chains()) == chain_fingerprint(
            base.find_chains()
        )


def test_no_alias_matches_baseline(corpus_cpg):
    baseline = find(corpus_cpg, follow_alias=False, optimize=False)
    optimized = find(corpus_cpg, follow_alias=False, optimize=True)
    assert optimized == baseline


@pytest.mark.slow
@pytest.mark.parametrize("name", COMPONENT_NAMES)
def test_full_component_sweep(name):
    """Every Table IX component, every Uniqueness mode — one barrier of
    truth for the optimized engine."""
    cpg = build_cpg(component_classes(name))
    for mode in ALL_MODES:
        baseline = find(cpg, uniqueness=mode, optimize=False)
        optimized = find(cpg, uniqueness=mode, optimize=True)
        assert optimized == baseline, f"{name}: optimized ({mode.name})"


@pytest.mark.slow
def test_merged_corpus_sweep():
    """The full 26-component classpath in one CPG."""
    classes = build_lang_base()
    for name in COMPONENT_NAMES:
        classes += build_component(name).classes
    cpg = build_cpg(classes)
    for mode in ALL_MODES:
        baseline = find(cpg, uniqueness=mode, optimize=False)
        assert find(cpg, uniqueness=mode, optimize=True) == baseline
