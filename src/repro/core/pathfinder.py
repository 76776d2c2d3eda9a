"""Gadget-chain finding — Algorithms 2 and 3 (§III-D).

The finder starts at each **sink** method node and walks the CPG
*backwards* towards a **source**, carrying the sink's
Trigger_Condition as per-path state:

* across a ``CALL`` edge (traversed callee -> caller), the TC is pushed
  through the edge's Polluted_Position with Formula 4
  (``TC_next = {PP[x] | x in TC}``); if any required position maps to
  ``∞`` the edge is rejected — the Expander's exclusion (Figure 6
  drops E and I this way);
* across an ``ALIAS`` edge the TC passes unchanged (either direction:
  an override stands in for its declaration and vice versa);
* the Evaluator accepts a path whose end node is a source method and
  prunes paths that exceed the depth limit (Figure 6 drops G this
  way).

Accepted paths are reversed into :class:`GadgetChain` objects
(source -> ... -> sink).

The Expander and Evaluator are methods of :class:`GadgetChainFinder`,
and one engine drives them: a preorder DFS over an explicit frame
stack, so ``max_depth`` is bounded by memory, not by the interpreter's
recursion limit.  It enumerates paths in exactly the order of the
generic expander/evaluator traversal, and two result-preserving layers
cut the work:

* **source-reachability pruning** — :func:`forward_closure` from every
  source, over CALL (caller->callee) and ALIAS (both directions)
  edges, over-approximates, TC-agnostically, the set of nodes from
  which the backward search could ever reach a source.  The Expander
  refuses to step into any node outside the set.  Unreachability is
  closed under backward steps, so the refused subtrees contain no
  accepted path — including under ``NODE_GLOBAL``, where the skipped
  visited-marks could only ever have suppressed other unreachable
  visits;
* **negative state caching** — the DFS records ``(node, TC-set,
  remaining-depth)`` states whose expansion subtree was exhausted
  without finding a chain *and* without being clipped by a
  path-uniqueness check; such emptiness is prefix-independent, and a
  recorded budget dominates every smaller one, so dominated re-visits
  are skipped.  Only failures are cached — accepted paths are always
  enumerated exhaustively, so the chain set (and its enumeration
  order, hence ``max_results`` truncation) is unchanged by
  construction.  Off under ``NODE_GLOBAL``, whose global visited set
  makes subtree outcomes order-dependent.

The generic enumeration with neither layer is the reference engine in
``tests/oracles/search.py``; the differential harness in
``tests/core/test_search_equivalence.py`` asserts bit-identical chain
lists against it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.chains import ChainStep, GadgetChain, dedupe_chains
from repro.core.cpg import ALIAS, CALL, CPG, RTA_DEAD
from repro.core.actions import traverse_tc
from repro.errors import PathFinderError
from repro.graphdb.graph import Node, PropertyGraph, Relationship
from repro.graphdb.traversal import Evaluation, Path, Uniqueness

__all__ = ["GadgetChainFinder", "SearchStatistics", "forward_closure"]


def forward_closure(
    graph: PropertyGraph, seed_ids: Iterable[int], follow_alias: bool = True
) -> Set[int]:
    """Every node reachable from a seed along caller->callee CALL edges
    and (with ``follow_alias``) ALIAS edges in either direction, the
    seeds included.

    This is the reversal of the backward search step, which goes
    callee -> caller over an incoming CALL edge or across ALIAS either
    way.  Seeded with the sources, it covers every node with *any*
    step sequence to a source, ignoring PP rejections, depth and the
    consecutive-ALIAS rule; seeded with edited methods, it covers every
    sink whose search tree can contain one of them.
    """
    seen: Set[int] = set()
    queue: deque = deque()
    for node_id in seed_ids:
        if node_id not in seen:
            seen.add(node_id)
            queue.append(node_id)
    csr = getattr(graph, "csr_neighbors", None)
    if csr is not None:
        # array-backed snapshot view (ArrayGraph): identical BFS over
        # the typed CSR neighbour arrays — same visited set, but no
        # Relationship objects allocated along the sweep
        hops = [csr(CALL, False)]
        if follow_alias:
            hops.append(csr(ALIAS, False))
            hops.append(csr(ALIAS, True))
        while queue:
            node_id = queue.popleft()
            for indptr, neighbours in hops:
                for nbr in neighbours[indptr[node_id] : indptr[node_id + 1]]:
                    if nbr not in seen:
                        seen.add(nbr)
                        queue.append(nbr)
        return seen
    while queue:
        node_id = queue.popleft()
        for rel in graph.out_relationships(node_id, CALL):
            if rel.end_id not in seen:
                seen.add(rel.end_id)
                queue.append(rel.end_id)
        if not follow_alias:
            continue
        for rel in graph.out_relationships(node_id, ALIAS):
            if rel.end_id not in seen:
                seen.add(rel.end_id)
                queue.append(rel.end_id)
        for rel in graph.in_relationships(node_id, ALIAS):
            if rel.start_id not in seen:
                seen.add(rel.start_id)
                queue.append(rel.start_id)
    return seen


@dataclass
class SearchStatistics:
    """Diagnostics from the last :meth:`GadgetChainFinder.find_chains`.

    The expander/evaluator split mirrors the Figure 6 annotations: edges
    the Expander rejects carry an uncontrollable Polluted_Position for
    the required Trigger_Condition; paths the Evaluator prunes exceeded
    the depth limit.  The remaining counters instrument the pruning and
    caching layers; they are diagnostics only — the chain set never
    depends on them.
    """

    sinks_searched: int = 0
    paths_visited: int = 0
    call_edges_followed: int = 0
    call_edges_rejected: int = 0  # Expander exclusions (E, I in Fig. 6)
    alias_hops: int = 0
    depth_pruned: int = 0  # Evaluator exclusions (G in Fig. 6)
    chains_found: int = 0
    #: source nodes reached but rejected by the accept filter
    #: (``source_filter`` / ``find_between``) — these no longer consume
    #: the ``max_results_per_sink`` budget
    filtered_sources: int = 0
    #: expansions refused because the target can never reach a source
    reachability_pruned: int = 0
    #: size of the source-reachability over-approximation
    reachable_nodes: int = 0
    #: dominated re-visits skipped via recorded empty subtrees
    negative_cache_hits: int = 0
    #: (node, TC, remaining-depth) failure states recorded
    negative_cache_entries: int = 0
    #: expansions refused over RTA-dead dispatch edges (``skip_rta_dead``)
    rta_pruned: int = 0
    #: wall-clock per search phase: reachability / search / dedupe
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: total wall-clock of the last find_chains() call
    search_seconds: float = 0.0

    def profile_lines(self) -> List[str]:
        """Human-readable per-phase/prune/cache report (``--profile``)."""
        lines = []
        for phase in ("reachability", "search", "dedupe"):
            if phase in self.phase_seconds:
                lines.append(
                    f"search phase {phase:<12} {self.phase_seconds[phase]:8.3f}s"
                )
        lines.append(
            f"search: {self.chains_found} chain(s) from {self.sinks_searched} "
            f"sink(s), {self.paths_visited} paths visited"
        )
        lines.append(
            f"pruning: {self.reachability_pruned} unreachable expansions "
            f"refused ({self.reachable_nodes} source-reachable nodes), "
            f"{self.depth_pruned} depth-pruned, {self.rta_pruned} RTA-pruned"
        )
        lines.append(
            f"negative cache: {self.negative_cache_hits} hits, "
            f"{self.negative_cache_entries} states recorded"
        )
        lines.append(f"total search: {self.search_seconds:.3f}s")
        return lines


#: which source nodes the Evaluator accepts; ``None`` accepts every source
AcceptFilter = Optional[Callable[[Node], bool]]


def _prefix_filter(prefix: Optional[str]) -> AcceptFilter:
    """The ``source_filter`` accept filter: sources whose class name
    starts with ``prefix``."""
    if not prefix:
        return None
    return lambda node: str(node.get("CLASSNAME", "?")).startswith(prefix)


class _Visit:
    """An open frame of the search DFS: a visited path whose children
    are being expanded.

    ``children`` is the Expander's lazy ``(relationship, node, TC)``
    stream.  ``found`` and ``complete`` say whether the subtree has so
    far contained an accepted path and been explored exhaustively — the
    condition for caching its emptiness under ``key`` with ``remaining``
    depth left (``key`` is ``None`` under ``NODE_GLOBAL``).
    """

    __slots__ = ("path", "children", "found", "complete", "key", "remaining")

    def __init__(
        self,
        path: Path,
        children: Iterator,
        found: bool,
        key: Optional[tuple],
        remaining: int,
    ):
        self.path = path
        self.children = children
        self.found = found
        self.complete = True
        self.key = key
        self.remaining = remaining

    def absorb(self, found: bool, complete: bool) -> None:
        """Fold in the outcome of a child's finished subtree."""
        self.found = self.found or found
        self.complete = self.complete and complete


class GadgetChainFinder:
    """Configurable backward search for gadget chains over a CPG."""

    def __init__(
        self,
        cpg: CPG,
        max_depth: int = 12,
        max_results_per_sink: Optional[int] = 200,
        follow_alias: bool = True,
        uniqueness: Uniqueness = Uniqueness.RELATIONSHIP_PATH,
        workers: int = 1,
        skip_rta_dead: bool = False,
    ):
        if max_depth < 1:
            raise PathFinderError("max_depth must be >= 1")
        if workers != 1:
            # the search runs in-process; the keyword stays only for
            # callers that still spell out the serial default
            raise PathFinderError(f"workers must be 1, got {workers!r}")
        self.cpg = cpg
        self.max_depth = max_depth
        self.max_results_per_sink = max_results_per_sink
        #: ablation hook: without alias edges polymorphic chains vanish
        self.follow_alias = follow_alias
        self.uniqueness = uniqueness
        #: skip CALL/ALIAS edges carrying the ``RTA_DEAD`` annotation
        #: written by :func:`repro.analysis.rta.annotate_type_reachability`
        #: (no-op on an unannotated CPG); differential-tested equivalent
        #: to post-hoc RTA-only chain refutation
        self.skip_rta_dead = skip_rta_dead
        #: diagnostics from the most recent find_chains() run
        self.last_search_stats = SearchStatistics()
        self._accept: AcceptFilter = None
        #: the source-reachable node ids of the current search
        self._reachable: Set[int] = set()

    # -- Algorithm 2: Expander -------------------------------------------

    def _expander(
        self, graph: PropertyGraph, path: Path, tc: List[int]
    ) -> Iterator[Tuple[Relationship, Node, List[int]]]:
        node = path.end_node
        stats = self.last_search_stats
        reachable = self._reachable
        # incoming CALL edges: move from callee to caller, pushing the TC
        # through the edge's Polluted_Position (Formula 4)
        for rel in graph.in_relationships(node, CALL):
            if self.skip_rta_dead and rel.get(RTA_DEAD):
                stats.rta_pruned += 1
                continue
            pp = rel.get("POLLUTED_POSITION")
            if pp is None:
                continue
            tc_next = traverse_tc(tc, pp)
            if tc_next is None:
                stats.call_edges_rejected += 1
                continue  # ∃x ∈ TC_next, x = ∞ -> reject (Algorithm 2)
            if rel.start_id not in reachable:
                stats.reachability_pruned += 1
                continue
            stats.call_edges_followed += 1
            yield rel, graph.node(rel.start_id), tc_next
        if not self.follow_alias:
            return
        # ALIAS edges pass the TC unchanged, in both directions (the
        # real tabby-path-finder matches ALIAS undirected).  Two ALIAS
        # hops in a row are meaningless — a dispatch bridges one
        # declaration/override pair — so they are not expanded; this is
        # what keeps Alias neighbours that never reach the sink (the
        # EnumMap.hashCode -> entryHashCode situation of §III-B2) out of
        # the results.
        last = path.last_relationship
        if last is not None and last.type == ALIAS:
            return
        for rel in graph.out_relationships(node, ALIAS):
            if self.skip_rta_dead and rel.get(RTA_DEAD):
                stats.rta_pruned += 1
                continue
            if rel.end_id not in reachable:
                stats.reachability_pruned += 1
                continue
            stats.alias_hops += 1
            yield rel, graph.node(rel.end_id), list(tc)
        for rel in graph.in_relationships(node, ALIAS):
            if self.skip_rta_dead and rel.get(RTA_DEAD):
                stats.rta_pruned += 1
                continue
            if rel.start_id not in reachable:
                stats.reachability_pruned += 1
                continue
            stats.alias_hops += 1
            yield rel, graph.node(rel.start_id), list(tc)

    # -- Algorithm 3: Evaluator --------------------------------------------

    def _evaluator(self, graph: PropertyGraph, path: Path, tc: List[int]) -> Evaluation:
        stats = self.last_search_stats
        stats.paths_visited += 1
        end = path.end_node
        if path.length > 0 and end.get("IS_SOURCE"):
            accept = self._accept
            if accept is None or accept(end):
                # gadget chain found; keep expanding — a deeper entry
                # point (e.g. HashMap.readObject above URL.hashCode in
                # URLDNS) may yield another chain through this one
                if path.length < self.max_depth:
                    return Evaluation.INCLUDE_AND_CONTINUE
                return Evaluation.INCLUDE_AND_PRUNE
            # an unwanted source: exclude *here*, so it does not consume
            # the max_results budget, but keep searching deeper — a
            # wanted source may still sit above it
            stats.filtered_sources += 1
        if path.length < self.max_depth:
            return Evaluation.EXCLUDE_AND_CONTINUE
        stats.depth_pruned += 1
        return Evaluation.EXCLUDE_AND_PRUNE

    # -- the search engine ---------------------------------------------------

    def _search_sink(
        self, graph: PropertyGraph, sink: Node, tc0: List[int]
    ) -> List[Tuple[Path, List[int]]]:
        """Preorder DFS over this finder's Expander and Evaluator, with
        sound negative state caching.

        The DFS keeps one :class:`_Visit` frame per open path on an
        explicit stack, so its depth is not bounded by the interpreter's
        recursion limit.  Each frame pulls its children lazily from the
        Expander, one at a time, and the walk visits, includes and
        truncates at ``max_results`` in the generic traversal's order.

        A state ``(node, TC-set, remaining-depth)`` is recorded as a
        proven failure only when its expansion subtree was explored to
        exhaustion (never clipped by a path-uniqueness check, never cut
        short by ``max_results``) and contained no accepted path.  Such
        emptiness holds under *any* path prefix — a prefix can only
        remove branches — and for any remaining budget ≤ the recorded
        one, so dominated re-visits are skipped without losing a single
        chain.  The TC key is the position *set*: Formula 4 acceptance
        and the downstream TC depend only on set membership.  The key
        also records whether the path arrived over ALIAS, because the
        Expander follows no ALIAS edge right after one: that subtree is
        the other one minus its ALIAS expansions, so a failure proven
        for the other covers it, but not the reverse.
        """
        max_depth = self.max_depth
        max_results = self.max_results_per_sink
        uniqueness = self.uniqueness
        node_global = uniqueness is Uniqueness.NODE_GLOBAL
        node_path = uniqueness is Uniqueness.NODE_PATH
        rel_path = uniqueness is Uniqueness.RELATIONSHIP_PATH
        expander = self._expander
        evaluator = self._evaluator
        stats = self.last_search_stats
        negcache: Dict[Tuple[int, frozenset, bool], int] = {}
        visited_global: Set[int] = set()
        results: List[Tuple[Path, List[int]]] = []
        stack: List[_Visit] = []
        path, tc = Path.single(sink), list(tc0)
        while True:
            # -- visit ``path``: evaluate it, then open a frame for its
            # children unless the visit ends here
            opened = False
            end = path.end_node
            if node_global and path.length > 0 and end.id in visited_global:
                found, complete = False, False
            else:
                if node_global:
                    visited_global.add(end.id)
                verdict = evaluator(graph, path, tc)
                found = verdict.includes
                if found:
                    results.append((path, tc))
                    if max_results is not None and len(results) >= max_results:
                        return results
                # the evaluator's cut depends only on (node, depth, TC):
                # prefix-independent, so a pruned subtree counts as complete
                complete = True
                if verdict.continues:
                    remaining = max_depth - path.length
                    key = None
                    proven_budget = 0  # no record: never >= remaining
                    if not node_global:
                        last = path.last_relationship
                        after_alias = last is not None and last.type == ALIAS
                        tc_set = frozenset(tc)
                        key = (end.id, tc_set, after_alias)
                        proven_budget = negcache.get(key, 0)
                        if after_alias:
                            # the subtree after an ALIAS hop lacks only the
                            # ALIAS expansions: a failure proven with them
                            # covers it too
                            proven_budget = max(
                                proven_budget, negcache.get((end.id, tc_set, False), 0)
                            )
                    if proven_budget >= remaining:
                        stats.negative_cache_hits += 1
                    else:
                        children = expander(graph, path, tc)
                        stack.append(_Visit(path, children, found, key, remaining))
                        opened = True
            if not opened:
                if not stack:
                    return results
                stack[-1].absorb(found, complete)
            # -- find the next child of the innermost open frame, closing
            # (and folding into their parents) the frames it exhausts
            while True:
                frame = stack[-1]
                parent = frame.path
                for rel, node, next_tc in frame.children:
                    if node_path and parent.contains_node(node):
                        frame.complete = False
                        continue
                    if rel_path and parent.contains_relationship(rel):
                        frame.complete = False
                        continue
                    path, tc = parent.extend(rel, node), next_tc
                    break
                else:
                    stack.pop()
                    if frame.key is not None and frame.complete and not frame.found:
                        negcache[frame.key] = frame.remaining
                        stats.negative_cache_entries += 1
                    if not stack:
                        return results
                    stack[-1].absorb(frame.found, frame.complete)
                    continue
                break

    # -- public API -----------------------------------------------------------

    def find_chains(
        self,
        sink_nodes: Optional[Sequence[Node]] = None,
        source_filter: Optional[str] = None,
    ) -> List[GadgetChain]:
        """Search every sink (or the given sink nodes) and return
        deduplicated gadget chains.

        ``source_filter`` restricts accepted chains to sources whose
        class name starts with the prefix (the per-component workflow of
        §IV-C).  The filter is applied *inside* the Evaluator, so
        filtered-out chains never consume the ``max_results_per_sink``
        budget.
        """
        return self._find(sink_nodes, _prefix_filter(source_filter))

    def find_between(
        self, source_node: Node, sink_node: Node
    ) -> List[GadgetChain]:
        """Chains between one specific source and sink (the custom-query
        workflow: "check for the existence of a gadget chain between any
        source and sink", §III-D).  The source restriction runs inside
        the Evaluator — no unrestricted search plus post-filter."""
        class_name = source_node.get("CLASSNAME")
        method_name = source_node.get("NAME")
        return self._find(
            [sink_node],
            lambda node: node.get("CLASSNAME") == class_name
            and node.get("NAME") == method_name,
        )

    # -- orchestration ------------------------------------------------------

    def _find(
        self, sink_nodes: Optional[Sequence[Node]], accept: AcceptFilter
    ) -> List[GadgetChain]:
        started = time.perf_counter()
        sinks = list(sink_nodes) if sink_nodes is not None else self.cpg.sink_nodes()
        stats = self.last_search_stats = SearchStatistics(sinks_searched=len(sinks))
        per_sink = self._per_sink_chains(sinks, accept, stats)
        chains: List[GadgetChain] = [c for bucket in per_sink for c in bucket]
        t0 = time.perf_counter()
        deduped = dedupe_chains(chains)
        stats.phase_seconds["dedupe"] = time.perf_counter() - t0
        stats.chains_found = len(deduped)
        stats.search_seconds = time.perf_counter() - started
        return deduped

    def find_chains_per_sink(
        self,
        sink_nodes: Sequence[Node],
        source_filter: Optional[str] = None,
    ) -> List[List[GadgetChain]]:
        """Raw per-sink chain lists (pre-dedupe), one per given sink, in
        the given sink order.

        This is the splice surface of the incremental re-search
        (:mod:`repro.core.incremental`): each sink's enumeration depends
        only on its own backward cone, so a caller may re-search a
        subset of sinks and concatenate stored lists for the rest —
        deduplicating the concatenation in full sink order reproduces
        :meth:`find_chains` exactly.
        """
        started = time.perf_counter()
        sinks = list(sink_nodes)
        stats = self.last_search_stats = SearchStatistics(sinks_searched=len(sinks))
        per_sink = self._per_sink_chains(sinks, _prefix_filter(source_filter), stats)
        stats.chains_found = sum(len(bucket) for bucket in per_sink)
        stats.search_seconds = time.perf_counter() - started
        return per_sink

    def _per_sink_chains(
        self,
        sinks: List[Node],
        accept: AcceptFilter,
        stats: SearchStatistics,
    ) -> List[List[GadgetChain]]:
        """Reachability precomputation plus one search per sink; the
        chain lists come back in sink order, pre-dedupe."""
        graph = self.cpg.graph
        self._accept = accept
        t0 = time.perf_counter()
        self._reachable = forward_closure(
            graph, (node.id for node in self.cpg.source_nodes()), self.follow_alias
        )
        stats.reachable_nodes = len(self._reachable)
        stats.phase_seconds["reachability"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        per_sink = [self._chains_for_sink(graph, sink) for sink in sinks]
        stats.phase_seconds["search"] = time.perf_counter() - t0
        return per_sink

    def _chains_for_sink(self, graph: PropertyGraph, sink: Node) -> List[GadgetChain]:
        """All accepted chains of one sink, in enumeration order."""
        tc = list(sink.get("TRIGGER_CONDITION") or [0])
        return [
            self._path_to_chain(path, sink)
            for path, _tc in self._search_sink(graph, sink, tc)
        ]

    # -- helpers ------------------------------------------------------------------

    def _path_to_chain(self, path: Path, sink: Node) -> GadgetChain:
        """Reverse a backward path (sink ... source) into a chain."""
        nodes = list(reversed(path.nodes))
        rels = list(reversed(path.relationships))
        steps: List[ChainStep] = []
        for i, node in enumerate(nodes):
            edge = rels[i].type if i < len(rels) else ""
            steps.append(
                ChainStep(
                    class_name=node.get("CLASSNAME", "?"),
                    method_name=node.get("NAME", "?"),
                    arity=node.get("ARITY", 0),
                    edge_to_next=edge,
                )
            )
        return GadgetChain(
            steps,
            sink_category=sink.get("SINK_TYPE", ""),
            trigger_condition=sink.get("TRIGGER_CONDITION") or [],
        )
