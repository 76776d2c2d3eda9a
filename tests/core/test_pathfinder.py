"""Unit tests for the gadget-chain finder, including the Figure 6 example."""

import sys

import pytest

from repro.core.chains import ChainStep, GadgetChain
from repro.core.cpg import ALIAS, CALL, CPG, CPGStatistics
from repro.core.pathfinder import GadgetChainFinder
from repro.errors import PathFinderError
from repro.graphdb.graph import PropertyGraph
from repro.jvm.hierarchy import ClassHierarchy
from tests.oracles.search import BaselineFinder


def hand_built_cpg(graph):
    """Wrap a hand-assembled graph in a CPG (hierarchy unused here)."""
    return CPG(graph, ClassHierarchy([]), CPGStatistics(), {})


def make_finder(cpg, optimized, **kwargs):
    """The product's finder, or with ``optimized=False`` the reference
    engine: the same Expander and Evaluator, unpruned and uncached."""
    return (GadgetChainFinder if optimized else BaselineFinder)(cpg, **kwargs)


def method_node(graph, name, cls="g", source=False, sink=False, tc=None):
    props = {
        "NAME": name,
        "CLASSNAME": cls,
        "ARITY": 0,
        "IS_SOURCE": source,
        "IS_SINK": sink,
    }
    if sink:
        props["TRIGGER_CONDITION"] = tc if tc is not None else [0]
        props["SINK_TYPE"] = "EXEC"
    return graph.create_node(["Method"], props)


def call(graph, caller, callee, pp):
    return graph.create_relationship(
        CALL, caller, callee, {"POLLUTED_POSITION": pp, "KIND": "virtual"}
    )


def alias(graph, sub, sup):
    return graph.create_relationship(ALIAS, sub, sup)


class TestFigure6:
    """The worked example of §III-D: nodes A..J, sink A, source H.

    Expected: E and I are excluded by the Expander (their edges carry an
    uncontrollable PP for the required TC position), G is excluded by
    the Evaluator (depth), and the H-rooted chains are found.
    """

    @pytest.fixture
    def setup(self):
        g = PropertyGraph()
        A = method_node(g, "A", sink=True, tc=[1])
        C = method_node(g, "C")
        C1 = method_node(g, "C1")
        C2 = method_node(g, "C2")
        E = method_node(g, "E")
        G = method_node(g, "G")
        H = method_node(g, "H", source=True)
        I = method_node(g, "I")  # noqa: E741 - matches the figure
        J = method_node(g, "J")
        # C calls A with the argument controllable from C's receiver
        call(g, C, A, [0, 0])
        # E calls A but the required argument is uncontrollable -> Expander drops E
        call(g, E, A, [0, -1])
        # alias family: C1 and C2 override C
        alias(g, C1, C)
        alias(g, C2, C)
        # I calls C1, but I's edge kills the controllability -> Expander drops the I chain
        call(g, I, C1, [-1, -1])
        # H (source) calls C2 with its receiver flowing into position 0
        call(g, H, C2, [0, 0])
        # J -> G -> ... deep helper chain for the Evaluator depth cut
        call(g, G, C, [0, 0])
        call(g, J, G, [0, 0])
        return g, {"A": A, "C": C, "C1": C1, "C2": C2, "E": E, "G": G, "H": H, "I": I, "J": J}

    def test_h_chain_found(self, setup):
        g, nodes = setup
        finder = GadgetChainFinder(hand_built_cpg(g), max_depth=10)
        chains = finder.find_chains()
        names = {tuple(s.method_name for s in c.steps) for c in chains}
        assert ("H", "C2", "C", "A") in names

    def test_expander_excludes_uncontrollable_edges(self, setup):
        g, nodes = setup
        finder = GadgetChainFinder(hand_built_cpg(g), max_depth=10)
        chains = finder.find_chains()
        for chain in chains:
            step_names = [s.method_name for s in chain.steps]
            assert "E" not in step_names
            assert "I" not in step_names

    def test_evaluator_excludes_beyond_depth(self, setup):
        g, nodes = setup
        # make J a source so that, absent the depth cut, J-G-C-A would match
        g.set_node_property(nodes["J"], "IS_SOURCE", True)
        finder = GadgetChainFinder(hand_built_cpg(g), max_depth=2)
        chains = finder.find_chains()
        names = {tuple(s.method_name for s in c.steps) for c in chains}
        assert ("J", "G", "C", "A") not in names
        deep = GadgetChainFinder(hand_built_cpg(g), max_depth=5)
        names = {
            tuple(s.method_name for s in c.steps) for c in deep.find_chains()
        }
        assert ("J", "G", "C", "A") in names


class TestTCPropagation:
    def test_tc_remaps_through_pp(self):
        """Sink needs arg1; the middle method passes its receiver into
        arg1; the source's edge must therefore satisfy position 0."""
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[1])
        mid = method_node(g, "mid")
        src = method_node(g, "readObject", source=True)
        call(g, mid, sink, [-1, 0])  # arg1 comes from mid's receiver
        call(g, src, mid, [0, -1])  # mid's receiver comes from src's receiver
        chains = GadgetChainFinder(hand_built_cpg(g)).find_chains()
        assert len(chains) == 1

    def test_tc_chain_breaks_when_position_lost(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[1])
        mid = method_node(g, "mid")
        src = method_node(g, "readObject", source=True)
        call(g, mid, sink, [-1, 2])  # arg1 comes from mid's 2nd parameter
        call(g, src, mid, [0, 0, -1])  # ...which src passes uncontrolled
        chains = GadgetChainFinder(hand_built_cpg(g)).find_chains()
        assert chains == []

    def test_alias_passes_tc_unchanged(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[1])
        impl = method_node(g, "work", cls="Impl")
        decl = method_node(g, "work", cls="Iface")
        src = method_node(g, "readObject", source=True)
        call(g, impl, sink, [0, 0])
        alias(g, impl, decl)
        call(g, src, decl, [0, 0])
        chains = GadgetChainFinder(hand_built_cpg(g)).find_chains()
        assert len(chains) == 1
        assert [s.class_name for s in chains[0].steps] == ["g", "Iface", "Impl", "g"]

    def test_follow_alias_ablation(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[1])
        impl = method_node(g, "work", cls="Impl")
        decl = method_node(g, "work", cls="Iface")
        src = method_node(g, "readObject", source=True)
        call(g, impl, sink, [0, 0])
        alias(g, impl, decl)
        call(g, src, decl, [0, 0])
        finder = GadgetChainFinder(hand_built_cpg(g), follow_alias=False)
        assert finder.find_chains() == []


class TestFinderConfig:
    def test_bad_depth_rejected(self):
        g = PropertyGraph()
        with pytest.raises(PathFinderError):
            GadgetChainFinder(hand_built_cpg(g), max_depth=0)

    def test_workers_keyword_accepts_only_one(self):
        """The search runs in-process: ``workers=1`` builds a finder,
        any other count raises instead of silently running serially."""
        cpg = hand_built_cpg(PropertyGraph())
        GadgetChainFinder(cpg, workers=1)
        for workers in (0, 2):
            with pytest.raises(PathFinderError, match="workers must be 1"):
                GadgetChainFinder(cpg, workers=workers)

    def test_source_filter(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        s1 = method_node(g, "readObject", cls="com.a.X", source=True)
        s2 = method_node(g, "readObject", cls="org.b.Y", source=True)
        call(g, s1, sink, [0])
        call(g, s2, sink, [0])
        finder = GadgetChainFinder(hand_built_cpg(g))
        chains = finder.find_chains(source_filter="com.a")
        assert len(chains) == 1
        assert chains[0].source.class_name == "com.a.X"

    def test_max_results_per_sink(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        for i in range(10):
            s = method_node(g, f"readObject{i}", source=True)
            call(g, s, sink, [0])
        finder = GadgetChainFinder(hand_built_cpg(g), max_results_per_sink=3)
        assert len(finder.find_chains()) <= 3

    def test_find_between(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        s1 = method_node(g, "readObject", cls="A", source=True)
        s2 = method_node(g, "readObject", cls="B", source=True)
        call(g, s1, sink, [0])
        call(g, s2, sink, [0])
        finder = GadgetChainFinder(hand_built_cpg(g))
        chains = finder.find_between(s1, sink)
        assert len(chains) == 1
        assert chains[0].source.class_name == "A"

    def test_default_tc_when_missing(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True)
        g.set_node_property(sink, "TRIGGER_CONDITION", None)
        src = method_node(g, "readObject", source=True)
        call(g, src, sink, [0])
        chains = GadgetChainFinder(hand_built_cpg(g)).find_chains()
        assert len(chains) == 1


class TestChainModel:
    def test_render_matches_table_i_format(self):
        chain = GadgetChain(
            [
                ChainStep("demo.EvilObjectA", "readObject", 1, "CALL"),
                ChainStep("demo.EvilObjectB", "toString", 0, "CALL"),
                ChainStep("java.lang.Runtime", "exec", 1),
            ],
            sink_category="EXEC",
        )
        text = chain.render()
        assert text.startswith("(source)demo.EvilObjectA.readObject()")
        assert text.endswith("(sink)java.lang.Runtime.exec()")

    def test_too_short_chain_rejected(self):
        with pytest.raises(ValueError):
            GadgetChain([ChainStep("A", "m", 0)])

    def test_dedupe_and_keys(self):
        from repro.core.chains import dedupe_chains

        a = GadgetChain([ChainStep("A", "m", 0), ChainStep("B", "n", 0)])
        b = GadgetChain([ChainStep("A", "m", 0), ChainStep("B", "n", 0)])
        c = GadgetChain([ChainStep("A", "m", 0), ChainStep("C", "n", 0)])
        assert dedupe_chains([a, b, c]) == [a, c]
        assert a.endpoint_key == (("A", "m"), ("B", "n"))

    def test_filter_by_package(self):
        from repro.core.chains import filter_by_package

        a = GadgetChain(
            [ChainStep("org.x.A", "m", 0), ChainStep("java.B", "n", 0)]
        )
        b = GadgetChain(
            [ChainStep("com.y.A", "m", 0), ChainStep("java.B", "n", 0)]
        )
        assert filter_by_package([a, b], "org.x") == [a]


class TestSearchStatistics:
    def test_fig6_style_counters(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[1])
        good = method_node(g, "good")
        bad = method_node(g, "bad")
        src = method_node(g, "readObject", source=True)
        call(g, good, sink, [0, 0])
        call(g, bad, sink, [0, -1])  # Expander must reject this edge
        call(g, src, good, [0, 0])
        finder = GadgetChainFinder(hand_built_cpg(g), max_depth=5)
        chains = finder.find_chains()
        stats = finder.last_search_stats
        assert stats.chains_found == len(chains) == 1
        assert stats.call_edges_rejected >= 1
        assert stats.call_edges_followed >= 2
        assert stats.sinks_searched == 1
        assert stats.paths_visited >= 3

    def test_depth_pruning_counted(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        prev = sink
        for i in range(5):
            n = method_node(g, f"hop{i}")
            call(g, n, prev, [0])
            prev = n
        # a source beyond the depth budget: every hop stays
        # source-reachable, so the optimized engine walks the chain too
        # and hits the same depth wall as the baseline
        call(g, method_node(g, "readObject", source=True), prev, [0])
        finder = GadgetChainFinder(hand_built_cpg(g), max_depth=2)
        assert finder.find_chains() == []
        assert finder.last_search_stats.depth_pruned >= 1

    def test_stats_reset_between_runs(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        src = method_node(g, "readObject", source=True)
        call(g, src, sink, [0])
        finder = GadgetChainFinder(hand_built_cpg(g))
        finder.find_chains()
        first = finder.last_search_stats.paths_visited
        finder.find_chains()
        assert finder.last_search_stats.paths_visited == first


class TestExactCounters:
    """Exact SearchStatistics values on hand-built mini-CPGs, pinned on
    the product and the reference engine so neither drifts unnoticed."""

    def counter_graph(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[1])
        a = method_node(g, "invoke")
        d = method_node(g, "decoy")
        b = method_node(g, "readObject", source=True)
        e2 = method_node(g, "invokeOverride")
        call(g, a, sink, [0, 0])
        call(g, d, sink, [0, -1])  # PP kills the required position
        call(g, b, a, [0, 0])
        alias(g, e2, a)
        return g

    @pytest.mark.parametrize("optimized", [False, True])
    def test_fig6_counters_exact(self, optimized):
        finder = make_finder(hand_built_cpg(self.counter_graph()), optimized)
        chains = finder.find_chains()
        stats = finder.last_search_stats
        assert [c.key for c in chains] == [(("g", "readObject", 0),
                                           ("g", "invoke", 0),
                                           ("g", "exec", 0))]
        # visits: (exec), (exec,invoke), (exec,invoke,readObject),
        # (exec,invoke,invokeOverride)
        assert stats.paths_visited == 4
        assert stats.call_edges_followed == 2
        assert stats.call_edges_rejected == 1  # the decoy edge
        assert stats.alias_hops == 1
        assert stats.depth_pruned == 0
        assert stats.filtered_sources == 0
        assert stats.chains_found == 1
        if optimized:
            # everything in this graph is source-reachable: the decoy
            # edge dies on its Polluted_Position before the prune check
            assert stats.reachability_pruned == 0
            assert stats.reachable_nodes == 4  # readObject, invoke, exec, override
            assert stats.negative_cache_hits == 0
            # the dead alias-override subtree is recorded as empty
            assert stats.negative_cache_entries == 1

    @pytest.mark.parametrize("optimized", [False, True])
    def test_depth_pruned_exact(self, optimized):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        prev = sink
        for i in range(5):
            n = method_node(g, f"hop{i}")
            call(g, n, prev, [0])
            prev = n
        call(g, method_node(g, "readObject", source=True), prev, [0])
        finder = make_finder(hand_built_cpg(g), optimized, max_depth=2)
        assert finder.find_chains() == []
        stats = finder.last_search_stats
        # visits: (exec), (exec,hop0), (exec,hop0,hop1) — the third hits
        # the depth wall
        assert stats.paths_visited == 3
        assert stats.call_edges_followed == 2
        assert stats.depth_pruned == 1
        assert stats.call_edges_rejected == 0
        assert stats.alias_hops == 0

    def test_reachability_prune_exact(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        dead = method_node(g, "dead")
        call(g, dead, sink, [0])  # PP-controllable but source-unreachable
        # a decoy subtree behind the dead caller that the optimized
        # engine must never enumerate
        prev = dead
        for i in range(4):
            n = method_node(g, f"dead{i}")
            call(g, n, prev, [0])
            prev = n
        src = method_node(g, "readObject", source=True)
        call(g, src, sink, [0])
        baseline = BaselineFinder(hand_built_cpg(g))
        optimized = GadgetChainFinder(hand_built_cpg(g))
        assert ([c.key for c in baseline.find_chains()]
                == [c.key for c in optimized.find_chains()])
        assert optimized.last_search_stats.reachability_pruned == 1
        assert optimized.last_search_stats.reachable_nodes == 2  # src, exec
        # optimized never enters the decoy subtree
        assert optimized.last_search_stats.paths_visited == 2
        assert baseline.last_search_stats.paths_visited == 7

    def test_negative_cache_hit_exact(self):
        """Two same-length routes into the same dead subtree: the second
        visit is answered from the negative cache."""
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        a = method_node(g, "a")
        b = method_node(g, "b")
        x = method_node(g, "x")
        y = method_node(g, "y")
        call(g, a, sink, [0])
        call(g, b, sink, [0])
        call(g, x, a, [0])
        call(g, x, b, [0])
        call(g, y, x, [0])
        # a source above the dead subtree, behind an uncontrollable PP:
        # every node stays source-reachable, so the reachability prune
        # refuses nothing and the cache works alone
        call(g, method_node(g, "readObject", source=True), y, [-1])
        finder = GadgetChainFinder(hand_built_cpg(g))
        assert finder.find_chains() == []
        stats = finder.last_search_stats
        # visits: (exec), (a), (x), (y), (b), (x: cache hit) -> 6
        assert stats.paths_visited == 6
        assert stats.negative_cache_hits == 1
        # empty states recorded: y, x, a, b, and the sink itself
        assert stats.negative_cache_entries == 5
        assert stats.reachability_pruned == 0
        baseline = BaselineFinder(hand_built_cpg(g))
        assert baseline.find_chains() == []
        assert baseline.last_search_stats.paths_visited == 7

    def test_failure_after_alias_hop_does_not_answer_call_visit(self):
        """A subtree reached over ALIAS lacks the ALIAS expansions (no two
        ALIAS hops in a row), so its recorded failure must not answer a
        visit of the same state reached over CALL."""
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        a = method_node(g, "a")
        b = method_node(g, "b")
        x = method_node(g, "x")
        z = method_node(g, "z")
        src = method_node(g, "readObject", source=True)
        call(g, a, sink, [0])  # searched first: exec <- a ~ x
        call(g, b, sink, [0])  # then exec <- b <- x ~ z <- readObject
        alias(g, x, a)
        call(g, x, b, [0])
        alias(g, z, x)
        call(g, src, z, [0])
        keys = [c.key for c in GadgetChainFinder(hand_built_cpg(g)).find_chains()]
        oracle = [c.key for c in BaselineFinder(hand_built_cpg(g)).find_chains()]
        assert keys == oracle == [(("g", "readObject", 0), ("g", "z", 0),
                                   ("g", "x", 0), ("g", "b", 0),
                                   ("g", "exec", 0))]


class TestDeepChains:
    """The DFS keeps its frames on an explicit stack, so search depth is
    bounded by memory, not by the interpreter's recursion limit."""

    def deep_chain_cpg(self, hops):
        g = PropertyGraph()
        prev = method_node(g, "exec", sink=True, tc=[0])
        for i in range(hops - 1):
            node = method_node(g, f"hop{i}")
            call(g, node, prev, [0])
            prev = node
        call(g, method_node(g, "readObject", source=True), prev, [0])
        return hand_built_cpg(g)

    def test_chain_deeper_than_the_recursion_limit(self):
        cpg = self.deep_chain_cpg(300)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            chains = GadgetChainFinder(cpg, max_depth=310).find_chains()
        finally:
            sys.setrecursionlimit(limit)
        assert len(chains) == 1
        assert len(chains[0].steps) == 301
        assert chains[0].source.method_name == "readObject"

    def test_chain_beyond_a_default_stack_matches_oracle(self):
        cpg = self.deep_chain_cpg(2100)
        chains = GadgetChainFinder(cpg, max_depth=2110).find_chains()
        oracle = BaselineFinder(cpg, max_depth=2110).find_chains()
        assert [c.key for c in chains] == [c.key for c in oracle]
        assert len(chains) == 1 and len(chains[0].steps) == 2101


class TestSourceFilterBudget:
    """Regression: filtered-out chains must not consume the
    max_results_per_sink budget (they used to be included by the
    evaluator and post-filtered, silently dropping wanted chains)."""

    def two_source_graph(self):
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        # the unwanted source's edge is created first, so the DFS finds
        # its chain before the wanted one
        unwanted = method_node(g, "readObject", cls="com.evil.U", source=True)
        wanted = method_node(g, "readObject", cls="org.good.W", source=True)
        call(g, unwanted, sink, [0])
        call(g, wanted, sink, [0])
        return g

    @pytest.mark.parametrize("optimized", [False, True])
    def test_wanted_chain_survives_budget_of_one(self, optimized):
        finder = make_finder(
            hand_built_cpg(self.two_source_graph()),
            optimized,
            max_results_per_sink=1,
        )
        chains = finder.find_chains(source_filter="org.good")
        assert [c.source.class_name for c in chains] == ["org.good.W"]
        assert finder.last_search_stats.filtered_sources == 1

    @pytest.mark.parametrize("optimized", [False, True])
    def test_find_between_respects_budget(self, optimized):
        g = self.two_source_graph()
        cpg = hand_built_cpg(g)
        finder = make_finder(cpg, optimized, max_results_per_sink=1)
        sink = g.find_node("Method", NAME="exec")
        wanted = g.find_node("Method", CLASSNAME="org.good.W")
        chains = finder.find_between(wanted, sink)
        assert [c.source.class_name for c in chains] == ["org.good.W"]

    def test_filtered_sources_still_searched_through(self):
        """An unwanted source is excluded but expansion continues: a
        wanted source sitting *above* it must still be found."""
        g = PropertyGraph()
        sink = method_node(g, "exec", sink=True, tc=[0])
        mid = method_node(g, "readExternal", cls="com.evil.M", source=True)
        top = method_node(g, "readObject", cls="org.good.T", source=True)
        call(g, mid, sink, [0])
        call(g, top, mid, [0])
        finder = GadgetChainFinder(hand_built_cpg(g))
        chains = finder.find_chains(source_filter="org.good")
        assert [c.source.class_name for c in chains] == ["org.good.T"]
