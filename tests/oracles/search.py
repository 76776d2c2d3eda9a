"""Reference engine for the gadget-chain search: the generic traversal.

The paper's tabby-path-finder runs its Expander and Evaluator on
Neo4j's traversal framework.  :func:`traverse` is that framework over
:class:`PropertyGraph` — a plain stack-driven enumeration that expands
every path the evaluator lets continue — and :func:`type_expander` is
its plain relationship-type expander.

:class:`BaselineFinder` is the search as it stood before the product's
DFS added source-reachability pruning and negative state caching: the
product's own Expander and Evaluator, driven by :func:`traverse`, with
nothing pruned and nothing cached.  It is kept only as the differential
oracle of ``tests/core/test_search_equivalence.py``,
``tests/core/test_pathfinder.py`` and
``benchmarks/bench_search_scaling.py``: the product must return the
same chain list, in the same order, under every uniqueness mode,
filter and budget.

An expander is ``expand(graph, path, state) -> iterable of
(relationship, next_node, next_state)``; an evaluator is
``evaluate(graph, path, state) -> Evaluation``.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.pathfinder import GadgetChainFinder
from repro.graphdb.graph import Node, PropertyGraph, Relationship
from repro.graphdb.traversal import Evaluation, Path, Uniqueness

__all__ = [
    "BaselineFinder",
    "Direction",
    "Evaluator",
    "Expander",
    "traverse",
    "type_expander",
]


class Direction(enum.Enum):
    """Traversal direction relative to the current node."""

    OUTGOING = "outgoing"
    INCOMING = "incoming"
    BOTH = "both"


Expander = Callable[
    [PropertyGraph, Path, Any], Iterable[Tuple[Relationship, Node, Any]]
]
Evaluator = Callable[[PropertyGraph, Path, Any], Evaluation]


def type_expander(
    types: Optional[Sequence[str]] = None,
    direction: Direction = Direction.OUTGOING,
) -> Expander:
    """A plain expander following relationships of the given types.

    State is passed through unchanged; use a custom expander (like the
    gadget-chain Expander of Algorithm 2) when state must evolve.

    Wanted types are resolved through the graph's type-bucketed
    adjacency index (a dict hit per type) instead of filtering every
    incident relationship in Python.  Relationship ids increase in
    insertion order, so merging buckets by id reproduces the exact
    order a filtered scan of the flat adjacency list used to yield.
    """

    wanted = list(dict.fromkeys(types)) if types is not None else None

    def typed(getter, node: Node) -> List[Relationship]:
        if wanted is None:
            return getter(node)
        if len(wanted) == 1:
            return getter(node, wanted[0])
        rels: List[Relationship] = []
        for rel_type in wanted:
            rels.extend(getter(node, rel_type))
        rels.sort(key=lambda r: r.id)
        return rels

    def expand(
        graph: PropertyGraph, path: Path, state: Any
    ) -> Iterable[Tuple[Relationship, Node, Any]]:
        node = path.end_node
        rels: List[Relationship] = []
        if direction in (Direction.OUTGOING, Direction.BOTH):
            rels.extend(typed(graph.out_relationships, node))
        if direction in (Direction.INCOMING, Direction.BOTH):
            rels.extend(typed(graph.in_relationships, node))
        for rel in rels:
            yield rel, graph.node(rel.other_id(node.id)), state

    return expand


def traverse(
    graph: PropertyGraph,
    start: "Node | Sequence[Node]",
    expander: Expander,
    evaluator: Evaluator,
    initial_state: Any = None,
    uniqueness: Uniqueness = Uniqueness.NODE_PATH,
    max_results: Optional[int] = None,
) -> Iterator[Tuple[Path, Any]]:
    """Depth-first guided traversal.

    Yields ``(path, state)`` pairs the evaluator marked as included.
    The evaluator is consulted for every visited path (including the
    single-node start paths); the expander is only asked to expand paths
    the evaluator allowed to continue.
    """
    starts: List[Node] = [start] if isinstance(start, Node) else list(start)
    visited_global: Set[int] = set()
    yielded = 0

    stack: List[Tuple[Path, Any]] = []
    for node in reversed(starts):
        stack.append((Path.single(node), initial_state))

    while stack:
        path, state = stack.pop()
        end = path.end_node
        if uniqueness is Uniqueness.NODE_GLOBAL:
            if end.id in visited_global and path.length > 0:
                continue
            visited_global.add(end.id)
        verdict = evaluator(graph, path, state)
        if verdict.includes:
            yield path, state
            yielded += 1
            if max_results is not None and yielded >= max_results:
                return
        if not verdict.continues:
            continue
        expansions = list(expander(graph, path, state))
        for rel, node, next_state in reversed(expansions):
            if uniqueness is Uniqueness.NODE_PATH and path.contains_node(node):
                continue
            if uniqueness is Uniqueness.RELATIONSHIP_PATH and path.contains_relationship(rel):
                continue
            stack.append((path.extend(rel, node), next_state))


class _EveryNode:
    """A reachable set that contains every node: the Expander's
    source-reachability check then refuses nothing."""

    def __contains__(self, node_id: object) -> bool:
        return True


class BaselineFinder(GadgetChainFinder):
    """The unpruned, uncached search: :func:`traverse` over the
    product's Expander and Evaluator.

    It takes the product's constructor arguments and exposes the same
    ``find_chains``/``find_between``/``find_chains_per_sink`` surface
    and :class:`~repro.core.pathfinder.SearchStatistics`;
    ``reachable_nodes``, ``reachability_pruned`` and the negative-cache
    counters stay 0.
    """

    def _per_sink_chains(self, sinks, accept, stats):
        self._accept = accept
        self._reachable = _EveryNode()
        return [self._chains_for_sink(self.cpg.graph, sink) for sink in sinks]

    def _search_sink(self, graph, sink, tc0):
        return traverse(
            graph,
            sink,
            self._expander,
            self._evaluator,
            initial_state=list(tc0),
            uniqueness=self.uniqueness,
            max_results=self.max_results_per_sink,
        )
