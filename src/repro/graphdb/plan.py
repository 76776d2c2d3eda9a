"""Cost-based query planner and optimized executor for the Cypher subset.

The naive interpreter (kept as the test oracle
``tests/oracles/query.py``) always seeds a MATCH from the *first* node
pattern, evaluates WHERE only on complete bindings, and materialises +
sorts every row before applying LIMIT.  On
a CPG that is fine for ``(m:Method {IS_SINK: true})`` but disastrous for
``(a:Method)-[:CALL]->(b:Method {IS_SINK: true})``: the engine scans
every method node and expands every CALL edge, when walking *backwards*
from the handful of indexed sink nodes touches a few dozen.

This module compiles a parsed :class:`~repro.graphdb.query.Query` into
an explicit :class:`QueryPlan`:

* **start-point selection** — both endpoints of each linear pattern are
  scored by estimated cardinality (bound variable < indexed property
  equality < label scan < full scan, using real index hit sizes and
  label counts), and the pattern is matched *reversed* when its far end
  is the cheaper anchor.  Reversal is sound because a linear pattern
  denotes a set of paths and that set is direction-symmetric: a path
  matches ``(a)-[:T]->(b)`` from ``a`` iff it matches ``(b)<-[:T]-(a)``
  from ``b``, including variable-length segments (the simple-path
  constraint is symmetric); only the order bindings are *enumerated* in
  changes, never the set.
* **predicate pushdown** — the WHERE conjunction is split and each
  conjunct is evaluated at the earliest pattern position where all of
  its variables are bound; equality conjuncts on the anchor also fold
  into the index lookup itself.  Every conjunct is still evaluated
  exactly once per surviving binding, so the planned engine accepts
  precisely the bindings the naive engine accepts.
* **index- and type-routed expansion** — hops go through the graph's
  per-relationship-type adjacency buckets (dict hits), with bucket and
  type counts feeding the cost estimates shown by EXPLAIN.
* **top-k and short-circuit row pipeline** — ORDER BY + LIMIT runs a
  bounded stable heap (``heapq.nsmallest`` ≡ ``sorted()[:k]``) instead
  of sort-then-slice, and LIMIT without ORDER BY or aggregation stops
  pulling bindings as soon as the window is full.

Because the planner only changes *where* work happens — candidates are
always re-verified against the pattern, and pushed conjuncts are the
same predicate objects the naive engine evaluates — planned results are
row-multiset-identical to the naive engine by construction (enumeration
order may differ when a pattern is reversed).  The planner assumes
property indexes are complete for the nodes they cover, which
:meth:`PropertyGraph.create_index` guarantees by backfilling; the same
assumption already underlies ``PropertyGraph.find_nodes``.
"""

from __future__ import annotations

import heapq
import time
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.graphdb.graph import Node, PropertyGraph, Relationship
from repro.graphdb.query import (
    Binding,
    Expr,
    NodePattern,
    PatternPath,
    Query,
    QueryResult,
    RelPattern,
    _aggregate_rows,
    _bind_node,
    _bind_rel,
    _distinct_rows,
    _eval_predicate,
    _make_sort_key,
    _project_row,
    _step,
)
from repro.graphdb.traversal import Path

__all__ = ["QueryPlan", "PatternPlan", "Anchor", "build_plan", "execute_planned"]


# ---------------------------------------------------------------------------
# Expression utilities
# ---------------------------------------------------------------------------


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Top-level AND components of a WHERE tree, in evaluation order."""
    if expr is None:
        return []
    if expr[0] == "and":
        return split_conjuncts(expr[1]) + split_conjuncts(expr[2])
    return [expr]


def expr_variables(expr: Expr) -> Set[str]:
    """Every variable an expression reads (free variables)."""
    kind = expr[0]
    if kind == "lit" or kind == "count_all":
        return set()
    if kind == "var" or kind == "prop":
        return {expr[1]}
    if kind in ("not", "exists", "count"):
        return expr_variables(expr[1])
    if kind in ("and", "or", "contains", "starts", "ends"):
        return expr_variables(expr[1]) | expr_variables(expr[2])
    if kind == "cmp":
        return expr_variables(expr[2]) | expr_variables(expr[3])
    if kind == "in":
        return expr_variables(expr[1])
    return set()


def _lit_text(value: Any) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return "'" + value.replace("'", "\\'") + "'"
    return repr(value)


def expr_text(expr: Expr) -> str:
    """Render an expression back to (pseudo-)Cypher for plan display."""
    kind = expr[0]
    if kind == "lit":
        return _lit_text(expr[1])
    if kind == "var":
        return expr[1]
    if kind == "prop":
        return f"{expr[1]}.{expr[2]}"
    if kind == "count_all":
        return "count(*)"
    if kind == "count":
        inner = expr_text(expr[1])
        return f"count(DISTINCT {inner})" if expr[2] else f"count({inner})"
    if kind == "and":
        return f"({expr_text(expr[1])} AND {expr_text(expr[2])})"
    if kind == "or":
        return f"({expr_text(expr[1])} OR {expr_text(expr[2])})"
    if kind == "not":
        return f"NOT {expr_text(expr[1])}"
    if kind == "exists":
        return f"exists({expr_text(expr[1])})"
    if kind == "cmp":
        return f"{expr_text(expr[2])} {expr[1]} {expr_text(expr[3])}"
    if kind == "in":
        values = ", ".join(_lit_text(v) for v in expr[2])
        return f"{expr_text(expr[1])} IN [{values}]"
    if kind == "contains":
        return f"{expr_text(expr[1])} CONTAINS {expr_text(expr[2])}"
    if kind == "starts":
        return f"{expr_text(expr[1])} STARTS WITH {expr_text(expr[2])}"
    if kind == "ends":
        return f"{expr_text(expr[1])} ENDS WITH {expr_text(expr[2])}"
    return repr(expr)


def _node_pattern_text(pat: NodePattern) -> str:
    parts = pat.var or ""
    parts += "".join(f":{label}" for label in pat.labels)
    if pat.props:
        inner = ", ".join(f"{k}: {_lit_text(v)}" for k, v in pat.props.items())
        parts += (" " if parts else "") + "{" + inner + "}"
    return f"({parts})"


def _rel_pattern_text(rel: RelPattern) -> str:
    body = rel.var or ""
    if rel.types:
        body += ":" + "|".join(rel.types)
    if rel.is_var_length:
        body += "*"
        if not (rel.min_hops == 1 and rel.max_hops is None):
            body += f"{rel.min_hops}.."
            if rel.max_hops is not None:
                body += str(rel.max_hops)
    core = f"[{body}]" if body else ""
    if rel.direction == "out":
        return f"-{core}->"
    if rel.direction == "in":
        return f"<-{core}-"
    return f"-{core}-"


def pattern_text(pattern: PatternPath) -> str:
    out = _node_pattern_text(pattern.nodes[0])
    for rel, node in zip(pattern.rels, pattern.nodes[1:]):
        out += _rel_pattern_text(rel) + _node_pattern_text(node)
    return out


# ---------------------------------------------------------------------------
# Plan structure
# ---------------------------------------------------------------------------


class Anchor:
    """Where a pattern's matching starts, and how candidates are found."""

    __slots__ = ("var", "strategy", "label", "key", "value", "estimate")

    def __init__(
        self,
        var: Optional[str],
        strategy: str,  # 'bound' | 'index' | 'label' | 'scan'
        label: Optional[str],
        key: Optional[str],
        value: Any,
        estimate: int,
    ):
        self.var = var
        self.strategy = strategy
        self.label = label
        self.key = key
        self.value = value
        self.estimate = estimate

    def describe(self) -> str:
        name = self.var or "_"
        if self.strategy == "bound":
            return f"{name}: already bound by an earlier pattern"
        if self.strategy == "index":
            return (
                f"{name}: index seek {self.label}.{self.key} = "
                f"{_lit_text(self.value)} (est {self.estimate} rows)"
            )
        if self.strategy == "label":
            return f"{name}: label scan :{self.label} (est {self.estimate} rows)"
        return f"{name}: full node scan (est {self.estimate} rows)"


class PatternPlan:
    """One MATCH pattern: orientation, anchor, pushed filters, counters."""

    __slots__ = (
        "original",
        "oriented",
        "reversed",
        "anchor",
        "position_filters",
        "forward_estimate",
        "backward_estimate",
        "expand_fan",
        # profile counters
        "rows_in",
        "anchor_checked",
        "anchor_rows",
        "expand_rows",
        "filter_drops",
        "rows_out",
        "seconds",
    )

    def __init__(
        self,
        original: PatternPath,
        oriented: PatternPath,
        reversed_: bool,
        anchor: Anchor,
        position_filters: List[List[Expr]],
        forward_estimate: int,
        backward_estimate: int,
        expand_fan: List[float],
    ):
        self.original = original
        self.oriented = oriented
        self.reversed = reversed_
        self.anchor = anchor
        self.position_filters = position_filters
        self.forward_estimate = forward_estimate
        self.backward_estimate = backward_estimate
        self.expand_fan = expand_fan
        self.rows_in = 0
        self.anchor_checked = 0
        self.anchor_rows = 0
        self.expand_rows = [0] * len(oriented.rels)
        self.filter_drops = [0] * len(oriented.nodes)
        self.rows_out = 0
        self.seconds = 0.0


class StageStats:
    """A row-pipeline operator (project/aggregate/distinct/sort/limit)."""

    __slots__ = ("name", "detail", "rows", "seconds")

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        self.rows = 0
        self.seconds = 0.0


class QueryPlan:
    """The compiled plan: per-pattern strategies plus the row pipeline.

    ``render()`` produces the EXPLAIN text; after a ``profile=True`` run
    the same object carries per-operator row and time counters.
    """

    def __init__(
        self,
        query: Query,
        source: str,
        patterns: List[PatternPlan],
        residual: List[Expr],
        node_count: int,
    ):
        self.query = query
        self.source = source
        self.patterns = patterns
        self.residual = residual
        self.node_count = node_count
        self.residual_drops = 0
        self.pipeline: List[StageStats] = []
        self.profiled = False
        self.rows_returned = 0

    # -- display ---------------------------------------------------------

    def render(self) -> str:
        profiled = self.profiled
        lines = [
            "QUERY PLAN (cost-based planner)"
            + (" — profiled" if profiled else "")
        ]
        prev_seconds = 0.0
        for i, pplan in enumerate(self.patterns, start=1):
            tag = " [reversed]" if pplan.reversed else ""
            suffix = ""
            if profiled:
                self_ms = max(0.0, pplan.seconds - prev_seconds) * 1000
                prev_seconds = pplan.seconds
                suffix = f"  (rows={pplan.rows_out}, time={self_ms:.2f}ms)"
            lines.append(
                f"  MATCH {pattern_text(pplan.original)}{tag}{suffix}"
            )
            if len(pplan.original.nodes) > 1:
                lines.append(
                    "    cost: forward anchor est "
                    f"{pplan.forward_estimate}, reversed anchor est "
                    f"{pplan.backward_estimate} of {self.node_count} nodes"
                )
            anchor_suffix = ""
            if profiled:
                anchor_suffix = (
                    f"  (candidates={pplan.anchor_checked}, "
                    f"rows={pplan.anchor_rows})"
                )
            lines.append(f"    anchor {pplan.anchor.describe()}{anchor_suffix}")
            for f in pplan.position_filters[0]:
                lines.append(
                    f"      filter {expr_text(f)}  [pushed to anchor]"
                )
            for h, rel in enumerate(pplan.oriented.rels):
                target = _node_pattern_text(pplan.oriented.nodes[h + 1])
                hop_suffix = ""
                if profiled:
                    hop_suffix = f"  (rows={pplan.expand_rows[h]})"
                lines.append(
                    f"    expand {_rel_pattern_text(rel)} {target} via typed "
                    f"adjacency (est fan {pplan.expand_fan[h]:.2f}){hop_suffix}"
                )
                for f in pplan.position_filters[h + 1]:
                    lines.append(
                        f"      filter {expr_text(f)}  [pushed to hop {h + 1}]"
                    )
        if self.residual:
            drops = f"  (dropped={self.residual_drops})" if profiled else ""
            for f in self.residual:
                lines.append(f"  residual WHERE {expr_text(f)}{drops}")
        for stage in self.pipeline:
            suffix = ""
            if profiled:
                suffix = f"  (rows={stage.rows}, time={stage.seconds * 1000:.2f}ms)"
            detail = f": {stage.detail}" if stage.detail else ""
            lines.append(f"  {stage.name}{detail}{suffix}")
        if profiled:
            lines.append(f"  returned {self.rows_returned} row(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "profiled": self.profiled,
            "node_count": self.node_count,
            "patterns": [
                {
                    "pattern": pattern_text(p.original),
                    "reversed": p.reversed,
                    "anchor": {
                        "var": p.anchor.var,
                        "strategy": p.anchor.strategy,
                        "label": p.anchor.label,
                        "key": p.anchor.key,
                        "value": p.anchor.value,
                        "estimate": p.anchor.estimate,
                    },
                    "forward_estimate": p.forward_estimate,
                    "backward_estimate": p.backward_estimate,
                    "expand_fan": p.expand_fan,
                    "pushed_filters": [
                        [expr_text(f) for f in fs] for fs in p.position_filters
                    ],
                    "rows_out": p.rows_out,
                    "anchor_candidates": p.anchor_checked,
                    "expand_rows": p.expand_rows,
                    "filter_drops": p.filter_drops,
                    "seconds": p.seconds,
                }
                for p in self.patterns
            ],
            "residual_where": [expr_text(f) for f in self.residual],
            "pipeline": [
                {
                    "stage": s.name,
                    "detail": s.detail,
                    "rows": s.rows,
                    "seconds": s.seconds,
                }
                for s in self.pipeline
            ],
            "rows_returned": self.rows_returned,
        }


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def _as_anchor_equality(expr: Expr, var: str) -> Optional[Tuple[str, Any]]:
    """``var.key = literal`` (either side), usable as an index seek.

    ``= null`` conjuncts are excluded: the naive engine's ``==`` treats a
    *missing* property as null, but indexes only cover present values.
    """
    if expr[0] != "cmp" or expr[1] != "=":
        return None
    left, right = expr[2], expr[3]
    if left[0] == "prop" and left[1] == var and right[0] == "lit":
        return (left[2], right[1]) if right[1] is not None else None
    if right[0] == "prop" and right[1] == var and left[0] == "lit":
        return (right[2], left[1]) if left[1] is not None else None
    return None


def _score_anchor(
    graph: PropertyGraph,
    pat: NodePattern,
    bound_vars: Set[str],
    conjuncts: List[Expr],
) -> Anchor:
    """Estimate the cheapest way to seed matching from this node pattern."""
    if pat.var is not None and pat.var in bound_vars:
        return Anchor(pat.var, "bound", None, None, None, 1)
    pairs = list(pat.props.items())
    if pat.var is not None:
        for c in conjuncts:
            if expr_variables(c) == {pat.var}:
                kv = _as_anchor_equality(c, pat.var)
                if kv is not None:
                    pairs.append(kv)
    best: Optional[Anchor] = None
    for label in pat.labels:
        for key, value in pairs:
            n = graph.indexes.count(label, key, value)
            if n is not None and (best is None or n < best.estimate):
                best = Anchor(pat.var, "index", label, key, value, n)
    if best is not None:
        return best
    if pat.labels:
        label = min(pat.labels, key=graph.indexes.label_count)
        return Anchor(pat.var, "label", label, None, None,
                      graph.indexes.label_count(label))
    return Anchor(pat.var, "scan", None, None, None, graph.node_count)


def _reverse_pattern(pattern: PatternPath) -> PatternPath:
    flipped = {"out": "in", "in": "out", "both": "both"}
    nodes = list(reversed(pattern.nodes))
    rels = [
        RelPattern(rel.var, rel.types, flipped[rel.direction],
                   rel.min_hops, rel.max_hops)
        for rel in reversed(pattern.rels)
    ]
    return PatternPath(nodes, rels)


def _expand_fan(graph: PropertyGraph, rel: RelPattern) -> float:
    """Expected neighbours per hop: typed edge count over node count,
    doubled for undirected hops (the type buckets are consulted in both
    directions)."""
    counts = graph.relationship_type_counts()
    if rel.types:
        total = sum(counts.get(t, 0) for t in dict.fromkeys(rel.types))
    else:
        total = graph.relationship_count
    fan = total / graph.node_count if graph.node_count else 0.0
    return fan * 2 if rel.direction == "both" else fan


def build_plan(graph: PropertyGraph, query: Query, source: str = "") -> QueryPlan:
    """Compile a parsed query into an executable :class:`QueryPlan`."""
    conjuncts = split_conjuncts(query.where)
    remaining = list(enumerate(conjuncts))
    bound: Set[str] = set()
    plans: List[PatternPlan] = []
    for pattern in query.patterns:
        forward = _score_anchor(graph, pattern.nodes[0], bound, conjuncts)
        if len(pattern.nodes) > 1:
            backward = _score_anchor(graph, pattern.nodes[-1], bound, conjuncts)
        else:
            backward = forward
        if backward is not forward and backward.estimate < forward.estimate:
            oriented, reversed_, anchor = _reverse_pattern(pattern), True, backward
        else:
            oriented, reversed_, anchor = pattern, False, forward

        # variable availability at each oriented position
        avail = set(bound)
        position_sets: List[Set[str]] = []
        for i, npat in enumerate(oriented.nodes):
            if i > 0 and oriented.rels[i - 1].var is not None:
                avail.add(oriented.rels[i - 1].var)
            if npat.var is not None:
                avail.add(npat.var)
            position_sets.append(set(avail))

        position_filters: List[List[Expr]] = [[] for _ in oriented.nodes]
        still_remaining = []
        for idx, c in remaining:
            needed = expr_variables(c)
            for p, have in enumerate(position_sets):
                if needed <= have:
                    position_filters[p].append(c)
                    break
            else:
                still_remaining.append((idx, c))
        remaining = still_remaining
        bound = position_sets[-1] if position_sets else bound

        fans = [_expand_fan(graph, rel) for rel in oriented.rels]
        plans.append(
            PatternPlan(
                pattern, oriented, reversed_, anchor, position_filters,
                forward.estimate, backward.estimate, fans,
            )
        )
    residual = [c for _, c in remaining]
    return QueryPlan(query, source, plans, residual, graph.node_count)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _anchor_candidates(
    graph: PropertyGraph, anchor: Anchor
) -> Optional[List[Node]]:
    """Binding-independent candidate list, or None for 'bound' anchors."""
    if anchor.strategy == "bound":
        return None
    if anchor.strategy == "index":
        ids = graph.indexes.lookup(anchor.label, anchor.key, anchor.value)
        return [graph.node(i) for i in sorted(ids or ())]
    if anchor.strategy == "label":
        return [graph.node(i) for i in sorted(graph.indexes.nodes_with_label(anchor.label))]
    return list(graph.nodes())


def _match_oriented(
    graph: PropertyGraph,
    pplan: PatternPlan,
    binding: Binding,
    candidates: Optional[List[Node]],
) -> Iterator[Binding]:
    """The planner's matcher: oriented pattern, pushed filters."""
    pattern = pplan.oriented
    filters = pplan.position_filters
    expand_rows = pplan.expand_rows
    filter_drops = pplan.filter_drops

    def passes(p: int, b: Binding) -> bool:
        for f in filters[p]:
            if not _eval_predicate(f, b):
                filter_drops[p] += 1
                return False
        return True

    def rec(b: Binding, node: Node, index: int) -> Iterator[Binding]:
        if index == len(pattern.rels):
            pplan.rows_out += 1
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
                expand_rows[index] += 1
                if not passes(index + 1, b3):
                    continue
                yield from rec(b3, nxt, index + 1)
            return
        max_hops = (
            rel_pat.max_hops if rel_pat.max_hops is not None else graph.node_count
        )
        stack: List[Path] = [Path.single(node)]
        while stack:
            path = stack.pop()
            if path.length >= rel_pat.min_hops:
                b2 = b
                if rel_pat.var is not None:
                    rel_list = list(path.relationships)
                    if pplan.reversed:
                        # bindings must reflect the pattern as written
                        rel_list.reverse()
                    b2 = dict(b2)
                    b2[rel_pat.var] = rel_list
                b3 = _bind_node(b2, next_pat, path.end_node)
                if b3 is not None:
                    expand_rows[index] += 1
                    if passes(index + 1, b3):
                        yield from rec(b3, path.end_node, index + 1)
            if path.length >= max_hops:
                continue
            for rel, nxt in _step(graph, path.end_node, rel_pat):
                if path.contains_node(nxt):
                    continue
                stack.append(path.extend(rel, nxt))

    if candidates is None:  # 'bound' anchor: seeded from the binding
        value = binding.get(pplan.anchor.var)
        candidates = [value] if isinstance(value, Node) else []
    first = pattern.nodes[0]
    for node in candidates:
        pplan.anchor_checked += 1
        b0 = _bind_node(binding, first, node)
        if b0 is None:
            continue
        if not passes(0, b0):
            continue
        pplan.anchor_rows += 1
        yield from rec(b0, node, 0)


def _timed(it: Iterator, holder, timer) -> Iterator:
    """Attribute the time spent pulling each item to ``holder.seconds``
    (cumulative through this operator; render() subtracts upstream)."""
    while True:
        t0 = timer()
        try:
            item = next(it)
        except StopIteration:
            holder.seconds += timer() - t0
            return
        holder.seconds += timer() - t0
        yield item


def _binding_stream(
    graph: PropertyGraph, plan: QueryPlan, timer
) -> Iterator[Binding]:
    stream: Iterator[Binding] = iter(({},))
    for pplan in plan.patterns:
        candidates = _anchor_candidates(graph, pplan.anchor)

        def stage(
            upstream: Iterator[Binding],
            pplan: PatternPlan = pplan,
            candidates: Optional[List[Node]] = candidates,
        ) -> Iterator[Binding]:
            for b in upstream:
                pplan.rows_in += 1
                yield from _match_oriented(graph, pplan, b, candidates)

        stream = stage(stream)
        if timer is not None:
            stream = _timed(stream, pplan, timer)
    if plan.residual:

        def residual_stage(upstream: Iterator[Binding]) -> Iterator[Binding]:
            for b in upstream:
                ok = True
                for c in plan.residual:
                    if not _eval_predicate(c, b):
                        plan.residual_drops += 1
                        ok = False
                        break
                if ok:
                    yield b

        stream = residual_stage(stream)
    return stream


def execute_planned(
    graph: PropertyGraph,
    query: Query,
    source: str = "",
    *,
    explain: bool = False,
    profile: bool = False,
) -> QueryResult:
    """Build the plan and (unless ``explain``) run the optimized engine."""
    plan = build_plan(graph, query, source)
    columns = [item.alias for item in query.items]
    has_aggregate = any(item.is_aggregate for item in query.items)
    skip, limit = query.skip, query.limit

    # pipeline stage descriptors (shown by EXPLAIN even before a run)
    if has_aggregate:
        produce = StageStats("aggregate", "group + count()")
    else:
        produce = StageStats(
            "project", ", ".join(expr_text(i.expr) + " AS " + i.alias
                                 for i in query.items)
        )
    plan.pipeline.append(produce)
    distinct_stage = None
    if query.distinct:
        distinct_stage = StageStats("distinct", "streaming first-occurrence")
        plan.pipeline.append(distinct_stage)
    order_stage = None
    if query.order_by:
        if limit is not None:
            order_stage = StageStats(
                "order+limit",
                f"bounded stable heap, k={skip + limit} (skip {skip} + "
                f"limit {limit})",
            )
        else:
            order_stage = StageStats("order", "full stable sort")
        plan.pipeline.append(order_stage)
    elif limit is not None or skip:
        window = f"skip {skip}" + (f", limit {limit}" if limit is not None else "")
        order_stage = StageStats(
            "limit", f"short-circuit binding pull ({window})"
        )
        plan.pipeline.append(order_stage)

    if explain:
        return QueryResult(columns, [], plan=plan)

    timer = time.perf_counter if profile else None
    plan.profiled = profile
    bindings = _binding_stream(graph, plan, timer)

    rows_iter: Iterable[Dict[str, Any]]
    if has_aggregate:
        t0 = timer() if timer else 0.0
        agg_rows = _aggregate_rows(query, bindings)
        if timer:
            produce.seconds = timer() - t0
        produce.rows = len(agg_rows)
        rows_iter = iter(agg_rows)
    else:

        def projected() -> Iterator[Dict[str, Any]]:
            for b in bindings:
                produce.rows += 1
                yield _project_row(query, b)

        rows_iter = projected()
        if timer is not None:
            rows_iter = _timed(rows_iter, produce, timer)

    if distinct_stage is not None:

        def deduped(
            upstream: Iterable[Dict[str, Any]] = rows_iter,
        ) -> Iterator[Dict[str, Any]]:
            for row in _distinct_rows(columns, upstream):
                distinct_stage.rows += 1
                yield row

        rows_iter = deduped()
        if timer is not None:
            rows_iter = _timed(rows_iter, distinct_stage, timer)

    t0 = timer() if timer else 0.0
    if query.order_by:
        sort_key = _make_sort_key(query)
        if limit is not None:
            # nsmallest is stable and equivalent to sorted()[:k]
            rows = heapq.nsmallest(skip + limit, rows_iter, key=sort_key)[skip:]
        else:
            rows = sorted(rows_iter, key=sort_key)
            if skip:
                rows = rows[skip:]
    elif limit is not None:
        rows = list(islice(rows_iter, skip, skip + limit))
    elif skip:
        rows = list(islice(rows_iter, skip, None))
    else:
        rows = list(rows_iter)
    if order_stage is not None:
        if timer:
            order_stage.seconds = timer() - t0
        order_stage.rows = len(rows)
    plan.rows_returned = len(rows)
    return QueryResult(columns, rows, plan=plan)
