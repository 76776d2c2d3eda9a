"""Unit tests for the expander/evaluator traversal framework.

:class:`Path`, :class:`Evaluation` and :class:`Uniqueness` are the
product's; the generic :func:`traverse` and its :func:`type_expander`
are the reference engine in ``tests/oracles/search.py``.
"""

import pytest

from repro.errors import GraphError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.traversal import Evaluation, Path, Uniqueness
from tests.oracles.search import Direction, traverse, type_expander


def chain_graph(n=4, rel="CALL"):
    """a0 -> a1 -> ... -> a(n-1)."""
    g = PropertyGraph()
    nodes = [g.create_node(["N"], {"NAME": f"a{i}"}) for i in range(n)]
    for left, right in zip(nodes, nodes[1:]):
        g.create_relationship(rel, left, right)
    return g, nodes


def include_all(graph, path, state):
    return Evaluation.INCLUDE_AND_CONTINUE


class TestPath:
    def test_single(self):
        g, nodes = chain_graph(1)
        p = Path.single(nodes[0])
        assert p.length == 0
        assert p.start_node == p.end_node == nodes[0]

    def test_extend(self):
        g, nodes = chain_graph(2)
        rel = next(g.relationships())
        p = Path.single(nodes[0]).extend(rel, nodes[1])
        assert p.length == 1
        assert p.end_node == nodes[1]
        assert p.relationships == (rel,)

    def test_invalid_shape_rejected(self):
        g, nodes = chain_graph(2)
        rel = next(g.relationships())
        with pytest.raises(GraphError):
            Path(nodes, [rel, rel])

    def test_contains_node(self):
        g, nodes = chain_graph(2)
        rel = next(g.relationships())
        p = Path.single(nodes[0]).extend(rel, nodes[1])
        assert p.contains_node(nodes[0]) and p.contains_node(nodes[1])


class TestTraverse:
    def test_visits_whole_chain(self):
        g, nodes = chain_graph(4)
        results = list(traverse(g, nodes[0], type_expander(["CALL"]), include_all))
        assert len(results) == 4  # paths of length 0..3
        assert results[-1][0].end_node == nodes[3]

    def test_direction_incoming(self):
        g, nodes = chain_graph(3)
        expander = type_expander(["CALL"], Direction.INCOMING)
        results = list(traverse(g, nodes[2], expander, include_all))
        assert [p.end_node["NAME"] for p, _ in results] == ["a2", "a1", "a0"]

    def test_type_filter(self):
        g = PropertyGraph()
        a, b, c = (g.create_node() for _ in range(3))
        g.create_relationship("CALL", a, b)
        g.create_relationship("ALIAS", a, c)
        results = list(traverse(g, a, type_expander(["ALIAS"]), include_all))
        assert {p.end_node.id for p, _ in results} == {a.id, c.id}

    def test_prune_stops_expansion(self):
        g, nodes = chain_graph(5)

        def max_depth_2(graph, path, state):
            if path.length >= 2:
                return Evaluation.INCLUDE_AND_PRUNE
            return Evaluation.INCLUDE_AND_CONTINUE

        results = list(traverse(g, nodes[0], type_expander(["CALL"]), max_depth_2))
        assert max(p.length for p, _ in results) == 2

    def test_exclude_filters_output(self):
        g, nodes = chain_graph(3)

        def only_full(graph, path, state):
            if path.end_node["NAME"] == "a2":
                return Evaluation.INCLUDE_AND_PRUNE
            return Evaluation.EXCLUDE_AND_CONTINUE

        results = list(traverse(g, nodes[0], type_expander(["CALL"]), only_full))
        assert len(results) == 1
        assert results[0][0].end_node["NAME"] == "a2"

    def test_node_path_uniqueness_breaks_cycles(self):
        g = PropertyGraph()
        a, b = g.create_node(), g.create_node()
        g.create_relationship("CALL", a, b)
        g.create_relationship("CALL", b, a)
        results = list(traverse(g, a, type_expander(["CALL"]), include_all))
        assert len(results) == 2  # (a), (a->b); cycle back to a is blocked

    def test_node_global_uniqueness_loses_paths(self):
        """NODE_GLOBAL models GadgetInspector's visited-set shortcut: the
        second route into a shared node is dropped."""
        g = PropertyGraph()
        a, b, c, d = (g.create_node(["N"], {"NAME": x}) for x in "abcd")
        g.create_relationship("CALL", a, b)
        g.create_relationship("CALL", a, c)
        g.create_relationship("CALL", b, d)
        g.create_relationship("CALL", c, d)
        full = list(
            traverse(g, a, type_expander(["CALL"]), include_all, uniqueness=Uniqueness.NODE_PATH)
        )
        global_ = list(
            traverse(g, a, type_expander(["CALL"]), include_all, uniqueness=Uniqueness.NODE_GLOBAL)
        )
        paths_to_d_full = [p for p, _ in full if p.end_node["NAME"] == "d"]
        paths_to_d_global = [p for p, _ in global_ if p.end_node["NAME"] == "d"]
        assert len(paths_to_d_full) == 2
        assert len(paths_to_d_global) == 1

    def test_state_propagation(self):
        g, nodes = chain_graph(3)

        def counting_expander(graph, path, state):
            for rel, node, _ in type_expander(["CALL"])(graph, path, state):
                yield rel, node, state + 1

        results = list(
            traverse(g, nodes[0], counting_expander, include_all, initial_state=0)
        )
        states = {p.length: s for p, s in results}
        assert states == {0: 0, 1: 1, 2: 2}

    def test_max_results(self):
        g, nodes = chain_graph(10)
        results = list(
            traverse(g, nodes[0], type_expander(["CALL"]), include_all, max_results=3)
        )
        assert len(results) == 3

    def test_multiple_starts(self):
        g, nodes = chain_graph(3)
        results = list(
            traverse(g, [nodes[0], nodes[1]], type_expander(["CALL"]), include_all)
        )
        zero_len = [p for p, _ in results if p.length == 0]
        assert len(zero_len) == 2


class TestRelationshipPathUniqueness:
    def test_node_revisit_allowed_edge_reuse_blocked(self):
        """A node may repeat in a path, but each relationship at most
        once — the ChainedTransformer interface-revisit situation."""
        g = PropertyGraph()
        decl = g.create_node(["N"], {"NAME": "decl"})
        a = g.create_node(["N"], {"NAME": "a"})
        b = g.create_node(["N"], {"NAME": "b"})
        g.create_relationship("E", decl, a)
        g.create_relationship("E", a, decl)
        g.create_relationship("E", decl, b)
        results = list(
            traverse(
                g, decl, type_expander(["E"]), include_all,
                uniqueness=Uniqueness.RELATIONSHIP_PATH,
            )
        )
        sequences = {
            tuple(n["NAME"] for n in p.nodes) for p, _ in results
        }
        # decl -> a -> decl (node revisit) -> b is reachable
        assert ("decl", "a", "decl", "b") in sequences
        # but no path uses the decl->a edge twice
        for path, _ in results:
            ids = [r.id for r in path.relationships]
            assert len(ids) == len(set(ids))

    def test_last_relationship_accessor(self):
        g, nodes = chain_graph(3)
        rels = list(g.relationships())
        p = Path.single(nodes[0])
        assert p.last_relationship is None
        p = p.extend(rels[0], nodes[1])
        assert p.last_relationship is rels[0]
        assert p.contains_relationship(rels[0])
        assert not p.contains_relationship(rels[1])


class TestPersistentPath:
    """The persistent (structurally shared) Path representation."""

    def test_extend_shares_parent(self):
        g, nodes = chain_graph(3)
        rels = list(g.relationships())
        parent = Path.single(nodes[0]).extend(rels[0], nodes[1])
        left = parent.extend(rels[1], nodes[2])
        # materialising the child must not disturb the parent
        assert left.nodes == (nodes[0], nodes[1], nodes[2])
        assert parent.nodes == (nodes[0], nodes[1])
        assert parent.relationships == (rels[0],)
        assert left.relationships == (rels[0], rels[1])

    def test_compat_constructor_round_trip(self):
        g, nodes = chain_graph(4)
        rels = list(g.relationships())
        p = Path(nodes, rels)
        assert p.length == 3
        assert p.start_node is nodes[0]
        assert p.end_node is nodes[3]
        assert p.last_relationship is rels[2]
        assert p.nodes == tuple(nodes)
        assert p.relationships == tuple(rels)
        assert list(p) == list(nodes)
        assert len(p) == 4

    def test_membership_checks(self):
        g, nodes = chain_graph(4)
        rels = list(g.relationships())
        p = Path(nodes[:3], rels[:2])
        assert all(p.contains_node(n) for n in nodes[:3])
        assert not p.contains_node(nodes[3])
        assert p.contains_relationship(rels[0])
        assert p.contains_relationship(rels[1])
        assert not p.contains_relationship(rels[2])

    def test_repr_stable(self):
        g, nodes = chain_graph(2)
        rel = next(g.relationships())
        p = Path.single(nodes[0]).extend(rel, nodes[1])
        assert repr(p) == f"<Path ({nodes[0].id})-[:CALL]-({nodes[1].id})>"


class TestUniquenessModePins:
    """Pins the exact accepted-path sequences of every Uniqueness mode —
    start-node exemption, multi-start, and max_results interplay — so an
    engine rewrite cannot change traversal semantics unnoticed."""

    @staticmethod
    def names(results):
        return [tuple(n["NAME"] for n in p.nodes) for p, _ in results]

    @staticmethod
    def diamond():
        g = PropertyGraph()
        a, b, c, d = (g.create_node(["N"], {"NAME": x}) for x in "abcd")
        for left, right in ((a, b), (a, c), (b, d), (c, d)):
            g.create_relationship("E", left, right)
        return g, (a, b, c, d)

    def test_diamond_sequences_per_mode(self):
        g, (a, b, c, d) = self.diamond()
        dfs = [("a",), ("a", "b"), ("a", "b", "d"), ("a", "c"), ("a", "c", "d")]
        expected = {
            Uniqueness.NODE_PATH: dfs,
            Uniqueness.RELATIONSHIP_PATH: dfs,
            # the second route into d is dropped: the lossy shortcut
            Uniqueness.NODE_GLOBAL: dfs[:4],
            Uniqueness.NONE: dfs,
        }
        for mode, want in expected.items():
            got = self.names(
                traverse(g, a, type_expander(["E"]), include_all, uniqueness=mode)
            )
            assert got == want, mode

    def test_start_node_cycle_exemption_per_mode(self):
        """The start node is marked before evaluation under NODE_GLOBAL
        but exempted via ``path.length > 0`` — the start path itself is
        always evaluated; only *returns* to the start are constrained."""
        g = PropertyGraph()
        a = g.create_node(["N"], {"NAME": "a"})
        b = g.create_node(["N"], {"NAME": "b"})
        g.create_relationship("E", a, b)
        g.create_relationship("E", b, a)

        def bounded(graph, path, state):
            if path.length < 3:
                return Evaluation.INCLUDE_AND_CONTINUE
            return Evaluation.INCLUDE_AND_PRUNE

        expected = {
            Uniqueness.NODE_PATH: [("a",), ("a", "b")],
            Uniqueness.RELATIONSHIP_PATH: [("a",), ("a", "b"), ("a", "b", "a")],
            Uniqueness.NODE_GLOBAL: [("a",), ("a", "b")],
            Uniqueness.NONE: [
                ("a",), ("a", "b"), ("a", "b", "a"), ("a", "b", "a", "b"),
            ],
        }
        for mode, want in expected.items():
            got = self.names(
                traverse(g, a, type_expander(["E"]), bounded, uniqueness=mode)
            )
            assert got == want, mode

    def test_multi_start_per_mode(self):
        """A later start node already visited by an earlier traversal is
        still evaluated under NODE_GLOBAL (length-0 exemption), but its
        expansions into visited territory are dropped."""
        g, nodes = chain_graph(3)
        full = [("a0",), ("a0", "a1"), ("a0", "a1", "a2"), ("a1",), ("a1", "a2")]
        expected = {
            Uniqueness.NODE_PATH: full,
            Uniqueness.RELATIONSHIP_PATH: full,
            Uniqueness.NODE_GLOBAL: full[:4],
            Uniqueness.NONE: full,
        }
        for mode, want in expected.items():
            got = self.names(
                traverse(
                    g, [nodes[0], nodes[1]], type_expander(["CALL"]),
                    include_all, uniqueness=mode,
                )
            )
            assert got == want, mode

    def test_max_results_counts_included_paths_only(self):
        """max_results truncates on *included* paths; excluded visits do
        not consume the budget in any mode."""
        g, nodes = chain_graph(6)

        def even_lengths_only(graph, path, state):
            if path.length % 2 == 0:
                return Evaluation.INCLUDE_AND_CONTINUE
            return Evaluation.EXCLUDE_AND_CONTINUE

        for mode in Uniqueness:
            results = list(
                traverse(
                    g, nodes[0], type_expander(["CALL"]), even_lengths_only,
                    uniqueness=mode, max_results=2,
                )
            )
            assert [p.length for p, _ in results] == [0, 2], mode
