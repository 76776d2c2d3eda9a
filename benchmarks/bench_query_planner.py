"""Query-planner benchmark: planned execution vs the naive interpreter.

Workloads run against the merged 26-component Table IX corpus CPG (plus,
for the LIMIT workload, nothing extra — the corpus itself is large
enough for short-circuiting to matter):

* **sink_anchored** — ``MATCH (a:Method)-[c:CALL]->(b:Method
  {IS_SINK: true}) ...``: the naive engine scans every method and
  expands every CALL edge; the planner reverses the pattern and walks
  backwards from the indexed sink nodes.  This is the workload the
  speedup gate (>=3x, full mode only) is asserted on.
* **pushdown_filter** — a WHERE conjunction whose per-variable parts
  the planner folds into the anchor index seek and evaluates mid-
  expansion instead of on complete bindings.
* **var_length_blacklist** — the blacklist-style ``CALL|ALIAS*1..``
  reachability query from the query-reuse benchmark.
* **order_by_limit** — top-k selection via a bounded heap instead of
  sort-everything-then-slice.

Every workload's planned row multiset is compared against the naive
engine's — the reference interpreter in ``tests/oracles/query.py`` —
(and, where ORDER BY pins a total order, the exact row lists);
any divergence makes the script exit non-zero.  Results are recorded to
``BENCH_query.json``.  ``--smoke`` uses a two-component corpus and skips
the speedup assertion (identity is always enforced) — that is what CI
runs.  A ``--smoke`` run refuses to overwrite a full-mode results file, so
pass ``--output`` elsewhere when smoke-testing.
"""

import argparse
import json
import sys
import time
from collections import Counter

sys.path.insert(0, "src")
sys.path.insert(0, ".")  # the repo root, for the tests.oracles reference engine

from repro.core.cpg import CPGBuilder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.plan import build_plan
from repro.graphdb.query import _hashable, parse_query, run_query
from repro.jvm.hierarchy import ClassHierarchy
from smoke_guard import refuses_smoke_overwrite
from tests.oracles.query import run_naive_query

REPETITIONS = 3

SMOKE_COMPONENTS = ["CommonsBeanutils1", "commons-collections(3.2.1)"]

WORKLOADS = [
    {
        "name": "sink_anchored",
        "gate": True,  # the >=3x assertion rides on this one
        "ordered": True,
        "cypher": (
            "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
            "RETURN a.SIGNATURE AS caller, b.NAME AS sink "
            "ORDER BY caller, sink"
        ),
    },
    {
        "name": "pushdown_filter",
        "gate": False,
        "ordered": True,
        "cypher": (
            "MATCH (a:Method)-[c:CALL]->(b:Method) "
            "WHERE b.IS_SINK = true AND a.ARITY > 0 "
            "RETURN a.SIGNATURE AS caller, b.NAME AS sink "
            "ORDER BY caller, sink"
        ),
    },
    {
        "name": "var_length_blacklist",
        "gate": False,
        "ordered": True,
        "cypher": (
            "MATCH (a:Method)-[:CALL|ALIAS*1..3]->(b:Method {IS_SINK: true}) "
            "RETURN DISTINCT a.SIGNATURE AS caller ORDER BY caller"
        ),
    },
    {
        "name": "order_by_limit",
        "gate": False,
        "ordered": True,
        "cypher": (
            "MATCH (m:Method) RETURN m.SIGNATURE AS sig "
            "ORDER BY sig LIMIT 20"
        ),
    },
]


def build_corpus_graph(components):
    classes = build_lang_base()
    for name in components:
        classes += build_component(name).classes
    return CPGBuilder(ClassHierarchy(classes)).build().graph


def row_multiset(result):
    return Counter(
        tuple(_hashable(row[c]) for c in result.columns) for row in result.rows
    )


def timed_query(graph, cypher, repetitions=REPETITIONS, engine=run_query, **kwargs):
    best = float("inf")
    result = None
    for _ in range(repetitions):
        started = time.perf_counter()
        result = engine(graph, cypher, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two-component corpus, identity checks only (no speedup gate)",
    )
    parser.add_argument("--output", default="BENCH_query.json")
    args = parser.parse_args(argv)
    if refuses_smoke_overwrite(args):
        return 2

    components = SMOKE_COMPONENTS if args.smoke else COMPONENT_NAMES
    failures = []
    report = {
        "benchmark": "query_planner",
        "mode": "smoke" if args.smoke else "full",
        "components": len(components),
        "workloads": {},
    }

    print(f"building merged {len(components)}-component corpus CPG ...")
    graph = build_corpus_graph(components)
    report["graph"] = {
        "nodes": graph.node_count,
        "relationships": graph.relationship_count,
    }
    print(f"  {graph.node_count} nodes, {graph.relationship_count} "
          "relationships")

    gate_speedup = None
    for workload in WORKLOADS:
        name, cypher = workload["name"], workload["cypher"]
        naive_s, naive = timed_query(graph, cypher, engine=run_naive_query)
        planned_s, planned = timed_query(graph, cypher)
        _, profiled = timed_query(graph, cypher, repetitions=1, profile=True)

        identical_multiset = row_multiset(planned) == row_multiset(naive)
        if not identical_multiset:
            failures.append(f"row multiset mismatch on {name}")
        if workload["ordered"] and planned.rows != naive.rows:
            failures.append(f"row order mismatch on ordered workload {name}")
        if profiled.rows != planned.rows:
            failures.append(f"profile=True changed the rows on {name}")

        plan = build_plan(graph, parse_query(cypher))
        speedup = naive_s / planned_s if planned_s else float("inf")
        report["workloads"][name] = {
            "cypher": cypher,
            "naive_s": naive_s,
            "planned_s": planned_s,
            "speedup": speedup,
            "rows": len(planned.rows),
            "identical": identical_multiset,
            "anchor_strategy": plan.patterns[0].anchor.strategy,
            "reversed": plan.patterns[0].reversed,
        }
        if workload["gate"]:
            gate_speedup = speedup
        print(f"  {name:<22} naive {naive_s * 1000:8.1f}ms  "
              f"planned {planned_s * 1000:8.1f}ms  {speedup:6.2f}x  "
              f"rows={len(planned.rows)}  "
              f"{'OK' if identical_multiset else 'MISMATCH'}")

    report["speedup"] = gate_speedup
    if not args.smoke and gate_speedup is not None and gate_speedup < 3.0:
        failures.append(
            f"expected >=3x planner speedup on sink-anchored workload, "
            f"got {gate_speedup:.2f}x"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"planner: {gate_speedup:.1f}x vs naive on the sink-anchored "
          "workload — all row sets identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
