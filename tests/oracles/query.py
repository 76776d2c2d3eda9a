"""Reference engine for the Cypher subset: the naive interpreter.

This is the query executor as it stood before :mod:`repro.graphdb.plan`
added cost-based planning.  It seeds every pattern from its *first*
node, evaluates WHERE only on complete bindings, and materialises,
sorts and slices every row.  It is kept only as the differential oracle
of ``tests/graphdb/test_query_planner.py`` and
``benchmarks/bench_query_planner.py``: the planner must return the same
row multiset, and the same row list wherever ORDER BY pins the order.

Parsing, binding, projection, aggregation and sorting are the product's
own helpers in :mod:`repro.graphdb.query`; only seeding and matching
live here.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set

from repro.graphdb.graph import Node, PropertyGraph
from repro.graphdb.query import (
    Binding,
    NodePattern,
    PatternPath,
    Query,
    QueryResult,
    _aggregate_rows,
    _bind_node,
    _bind_rel,
    _distinct_rows,
    _eval_predicate,
    _make_sort_key,
    _node_matches,
    _project_row,
    _step,
    parse_query,
)
from repro.graphdb.traversal import Path

__all__ = ["run_naive_query"]


def run_naive_query(graph: PropertyGraph, source: str) -> QueryResult:
    """Parse ``source`` and run it through the naive interpreter."""
    return _run_naive(graph, parse_query(source))


def _candidate_nodes(graph: PropertyGraph, pat: NodePattern) -> Iterable[Node]:
    """Seed nodes for a pattern: the smallest indexed property hit set
    across *all* of the pattern's labels, falling back to the most
    selective (lowest-count) label scan; every candidate is then
    verified against the full label set and property map."""
    if pat.labels:
        best_hit: Optional[Set[int]] = None
        for label in pat.labels:
            for key, value in pat.props.items():
                hit = graph.indexes.lookup(label, key, value)
                if hit is not None and (best_hit is None or len(hit) < len(best_hit)):
                    best_hit = hit
        if best_hit is not None:
            candidates: Iterable[Node] = (graph.node(i) for i in best_hit)
        else:
            candidates = graph.nodes(
                min(pat.labels, key=graph.indexes.label_count)
            )
        return [n for n in candidates if _node_matches(n, pat)]
    return [n for n in graph.nodes() if _node_matches(n, pat)]


def _match_path(
    graph: PropertyGraph,
    pattern: PatternPath,
    binding: Binding,
) -> Iterator[Binding]:
    """Backtracking matcher for one linear pattern, extending ``binding``."""

    def rec(b: Binding, node: Node, index: int) -> Iterator[Binding]:
        if index == len(pattern.rels):
            yield b
            return
        rel_pat = pattern.rels[index]
        next_pat = pattern.nodes[index + 1]
        if not rel_pat.is_var_length:
            for rel, nxt in _step(graph, node, rel_pat):
                b2 = _bind_rel(b, rel_pat, rel)
                if b2 is None:
                    continue
                b3 = _bind_node(b2, next_pat, nxt)
                if b3 is None:
                    continue
                yield from rec(b3, nxt, index + 1)
            return
        # variable-length: DFS over hop counts within [min, max], using
        # the persistent cons-list Path so each push is O(1) instead of
        # copying an O(depth) rel list and visited set
        max_hops = rel_pat.max_hops if rel_pat.max_hops is not None else graph.node_count
        stack: List[Path] = [Path.single(node)]
        while stack:
            path = stack.pop()
            if path.length >= rel_pat.min_hops:
                b2 = b
                if rel_pat.var is not None:
                    b2 = dict(b2)
                    b2[rel_pat.var] = list(path.relationships)
                b3 = _bind_node(b2, next_pat, path.end_node)
                if b3 is not None:
                    yield from rec(b3, path.end_node, index + 1)
            if path.length >= max_hops:
                continue
            for rel, nxt in _step(graph, path.end_node, rel_pat):
                if path.contains_node(nxt):
                    continue
                stack.append(path.extend(rel, nxt))

    first = pattern.nodes[0]
    bound = binding.get(first.var) if first.var else None
    if isinstance(bound, Node):
        candidates: Iterable[Node] = [bound]
    else:
        candidates = _candidate_nodes(graph, first)
    for node in candidates:
        b0 = _bind_node(binding, first, node)
        if b0 is None:
            continue
        yield from rec(b0, node, 0)


def _run_naive(graph: PropertyGraph, query: Query) -> QueryResult:
    """The legacy interpreter: seed every pattern from its first node,
    evaluate WHERE on complete bindings, materialise + sort + slice."""
    bindings: List[Binding] = [{}]
    for pattern in query.patterns:
        bindings = [
            matched
            for binding in bindings
            for matched in _match_path(graph, pattern, binding)
        ]
    if query.where is not None:
        bindings = [b for b in bindings if _eval_predicate(query.where, b)]

    columns = [item.alias for item in query.items]
    has_aggregate = any(item.is_aggregate for item in query.items)

    rows: List[Dict[str, Any]]
    if has_aggregate:
        rows = _aggregate_rows(query, bindings)
    else:
        rows = [_project_row(query, b) for b in bindings]

    if query.distinct:
        rows = list(_distinct_rows(columns, rows))

    if query.order_by:
        rows.sort(key=_make_sort_key(query))

    if query.skip:
        rows = rows[query.skip :]
    if query.limit is not None:
        rows = rows[: query.limit]
    return QueryResult(columns, rows)
