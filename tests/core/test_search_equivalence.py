"""Differential harness: the search engine reproduces the baseline.

The product's gadget-chain search (one DFS with source-reachability
pruning and negative state caching) promises a chain list
*bit-identical* to the baseline engine — same chains, same steps, same
order — under every Uniqueness mode, filter, and budget.
These tests assert exactly that on real corpus CPGs and on random
CPG-shaped graphs; the ``slow`` sweep covers every Table IX component
plus the merged corpus.

The baseline is :class:`tests.oracles.search.BaselineFinder`: the
product's Expander and Evaluator driven by the generic
:func:`tests.oracles.search.traverse` enumeration, with no pruning and
no caching — the pre-optimization engine.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cpg import ALIAS, CALL, CPG, CPGBuilder, CPGStatistics
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.traversal import Uniqueness
from repro.jvm.hierarchy import ClassHierarchy
from tests.oracles.search import BaselineFinder

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


def find(cpg, finder_cls=GadgetChainFinder, source_filter=None, **kwargs):
    finder = finder_cls(cpg, **kwargs)
    return chain_fingerprint(finder.find_chains(source_filter=source_filter))


@pytest.fixture(scope="module", params=QUICK_COMPONENTS)
def corpus_cpg(request):
    return build_cpg(component_classes(request.param))


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.name for m in ALL_MODES])
def test_optimized_matches_baseline(corpus_cpg, mode):
    baseline = find(corpus_cpg, BaselineFinder, uniqueness=mode)
    optimized = find(corpus_cpg, uniqueness=mode)
    assert optimized == baseline


def test_source_filter_matches_baseline(corpus_cpg):
    for prefix in ("java.util", "org.clojure", "com"):
        assert find(corpus_cpg, source_filter=prefix) == find(
            corpus_cpg, BaselineFinder, source_filter=prefix
        )


def test_tight_budget_and_depth_match_baseline(corpus_cpg):
    """max_results truncation happens at the same enumeration point —
    the negative cache must not reorder or skip accepted paths."""
    for max_depth, budget in ((6, 3), (12, 1), (4, None)):
        kwargs = {"max_depth": max_depth, "max_results_per_sink": budget}
        assert find(corpus_cpg, **kwargs) == find(
            corpus_cpg, BaselineFinder, **kwargs
        )


def test_no_alias_matches_baseline(corpus_cpg):
    baseline = find(corpus_cpg, BaselineFinder, follow_alias=False)
    optimized = find(corpus_cpg, follow_alias=False)
    assert optimized == baseline


# -- random CPG-shaped graphs ------------------------------------------------

#: Polluted_Position weights: -1 is the uncontrollable ``∞``
_PP_WEIGHTS = st.sampled_from([-1, 0, 1, 2])


@st.composite
def cpg_graphs(draw):
    """A small CPG-shaped graph: method nodes in two packages, several
    sources, sinks with their Trigger_Conditions, CALL edges whose PPs
    include -1, ALIAS edges, cycles and self-loops."""
    n = draw(st.integers(2, 8))
    graph = PropertyGraph()
    nodes = []
    for i in range(n):
        package = draw(st.sampled_from(["org.good", "com.evil"]))
        sink = draw(st.booleans())
        props = {
            "NAME": f"m{i}",
            "CLASSNAME": f"{package}.C{i}",
            "ARITY": 2,
            "IS_SOURCE": draw(st.booleans()),
            "IS_SINK": sink,
        }
        if sink:
            props["TRIGGER_CONDITION"] = sorted(
                draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))
            )
            props["SINK_TYPE"] = draw(st.sampled_from(["EXEC", "FILE"]))
        nodes.append(graph.create_node(["Method"], props))
    index = st.integers(0, n - 1)
    for caller, callee, pp in draw(
        st.lists(st.tuples(index, index, st.lists(_PP_WEIGHTS, min_size=3, max_size=3)),
                 max_size=14)
    ):
        graph.create_relationship(
            CALL, nodes[caller], nodes[callee],
            {"POLLUTED_POSITION": pp, "KIND": "virtual"},
        )
    for sub, sup in draw(st.lists(st.tuples(index, index), max_size=4)):
        graph.create_relationship(ALIAS, nodes[sub], nodes[sup])
    return graph


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=cpg_graphs())
def test_random_graphs_match_baseline(graph):
    """Chain lists, in order, under every Uniqueness mode, depth and
    budget, for a source filter and for ``find_between``."""
    cpg = CPG(graph, ClassHierarchy([]), CPGStatistics(), {})
    sinks, sources = cpg.sink_nodes(), cpg.source_nodes()
    for mode in ALL_MODES:
        for max_depth in (1, 3, 6):
            for budget in (None, 1, 3):
                kwargs = {
                    "uniqueness": mode,
                    "max_depth": max_depth,
                    "max_results_per_sink": budget,
                }
                product = GadgetChainFinder(cpg, **kwargs)
                oracle = BaselineFinder(cpg, **kwargs)
                label = f"{mode.name} depth={max_depth} budget={budget}"
                for prefix in (None, "org.good"):
                    assert chain_fingerprint(
                        product.find_chains(source_filter=prefix)
                    ) == chain_fingerprint(
                        oracle.find_chains(source_filter=prefix)
                    ), f"{label} source_filter={prefix}"
                for sink in sinks[:2]:
                    for source in sources[:2]:
                        assert chain_fingerprint(
                            product.find_between(source, sink)
                        ) == chain_fingerprint(
                            oracle.find_between(source, sink)
                        ), f"{label} between {source.id} and {sink.id}"


# -- slow sweeps ---------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("name", COMPONENT_NAMES)
def test_full_component_sweep(name):
    """Every Table IX component, every Uniqueness mode — one barrier of
    truth for the search engine."""
    cpg = build_cpg(component_classes(name))
    for mode in ALL_MODES:
        baseline = find(cpg, BaselineFinder, uniqueness=mode)
        optimized = find(cpg, uniqueness=mode)
        assert optimized == baseline, f"{name}: optimized ({mode.name})"


@pytest.mark.slow
def test_merged_corpus_sweep():
    """The full 26-component classpath in one CPG."""
    classes = build_lang_base()
    for name in COMPONENT_NAMES:
        classes += build_component(name).classes
    cpg = build_cpg(classes)
    for mode in ALL_MODES:
        baseline = find(cpg, BaselineFinder, uniqueness=mode)
        assert find(cpg, uniqueness=mode) == baseline
