"""Incremental-analysis benchmark: differential identity + speedup.

Two claims, two gates:

* **identity** (every mode, smoke included) — after each edit in the
  script, the incremental session's output must be *bit-identical* to
  a cold rebuild of the edited version: same chain-key list, same
  ``repr(graph_fingerprint(...))`` after the canonical renumber.  Any
  divergence fails the run; there is no tolerance.

* **speedup** (full mode) — a one-class edit over the merged corpus
  (lang base + every component) must analyse >= 5x faster through
  ``IncrementalAnalyzer.update`` than through a cold
  build-and-search, reported with the per-phase breakdown
  (dirty/summaries/patch/renumber/search) from
  ``IncrementalStatistics``.

``--smoke`` runs the identity gate over a 3-edit script on a two
component corpus and skips the speedup gate — that is what CI runs.
The full run writes ``BENCH_incremental.json``.
A ``--smoke`` run refuses to overwrite a full-mode results file, so
pass ``--output`` elsewhere when smoke-testing.
"""

import argparse
import copy
import json
import sys
import time

sys.path.insert(0, "src")

from repro.core.chains import dedupe_chains
from repro.core.cpg import CPGBuilder
from repro.core.incremental import ChainSearchConfig, IncrementalAnalyzer
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.snapshot import graph_fingerprint
from repro.jvm.hierarchy import ClassHierarchy
from smoke_guard import refuses_smoke_overwrite

SMOKE_COMPONENTS = ["commons-collections(3.2.1)", "Hibernate"]

#: the canonical one-class edit target; guaranteed present in the
#: commons-collections component and in the merged corpus
EDIT_TARGET = "org.apache.commons.collections.map.TransformedMap"


def load_corpus(components):
    classes = list(build_lang_base())
    for name in components:
        classes.extend(build_component(name).classes)
    return classes


def cold_pipeline(classes, cfg):
    """Build + per-sink search + dedupe — the work update() avoids."""
    cpg = CPGBuilder(ClassHierarchy(classes)).build()
    finder = GadgetChainFinder(
        cpg,
        max_depth=cfg.max_depth,
        follow_alias=cfg.follow_alias,
        max_results_per_sink=cfg.max_results_per_sink,
        uniqueness=cfg.uniqueness,
    )
    per_sink = finder.find_chains_per_sink(
        cpg.sink_nodes(), source_filter=cfg.source_filter
    )
    return cpg, dedupe_chains([c for bucket in per_sink for c in bucket])


def drop_last_method(classes, target=EDIT_TARGET):
    """Remove the last body-carrying method of ``target`` (falling back
    to any multi-method class) — the canonical one-class edit."""
    edited = [copy.deepcopy(c) for c in classes]
    cls = next(
        (c for c in edited if c.name == target),
        next(c for c in edited
             if c.name != "java.lang.Object"
             and sum(m.has_body for m in c.methods.values()) > 1),
    )
    victim = [k for k, m in cls.methods.items() if m.has_body][-1]
    del cls.methods[victim]
    return edited, cls.name


def drop_class(classes, name):
    return [copy.deepcopy(c) for c in classes if c.name != name]


def check_identity(session, classes, label, failures):
    """update() and compare chains + fingerprint against a cold build."""
    result = session.update([copy.deepcopy(c) for c in classes])
    cpg_cold, chains_cold = cold_pipeline(
        [copy.deepcopy(c) for c in classes], session.search
    )
    ok = True
    if [c.key for c in result.chains] != [c.key for c in chains_cold]:
        failures.append(f"{label}: chain list diverged from cold rebuild")
        ok = False
    if repr(graph_fingerprint(session.cpg.graph)) != repr(
        graph_fingerprint(cpg_cold.graph)
    ):
        failures.append(f"{label}: graph fingerprint diverged from cold rebuild")
        ok = False
    if session.last_statistics.full_rebuild:
        failures.append(
            f"{label}: fell back to a full rebuild "
            f"({session.last_statistics.full_rebuild_reason})"
        )
        ok = False
    print(f"  identity [{label}]: {'ok' if ok else 'FAILED'} "
          f"({len(result.chains)} chains, "
          f"{session.last_statistics.sinks_researched}/"
          f"{session.last_statistics.sinks_total} sinks re-searched)")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="identity gate only, on a 2-component corpus (what CI runs)",
    )
    parser.add_argument("--output", default="BENCH_incremental.json")
    args = parser.parse_args(argv)
    if refuses_smoke_overwrite(args):
        return 2

    components = SMOKE_COMPONENTS if args.smoke else list(COMPONENT_NAMES)
    failures = []
    report = {
        "benchmark": "incremental",
        "mode": "smoke" if args.smoke else "full",
        "components": components,
    }

    classes = load_corpus(components)
    print(f"corpus: {len(classes)} classes from {len(components)} "
          f"component(s) + lang base")

    cfg = ChainSearchConfig()
    t0 = time.perf_counter()
    session = IncrementalAnalyzer(
        [copy.deepcopy(c) for c in classes], search=cfg
    )
    cold_session_seconds = time.perf_counter() - t0
    report["classes"] = len(classes)
    report["chains_initial"] = len(session.chains)
    report["cold_session_seconds"] = round(cold_session_seconds, 4)
    print(f"cold session: {len(session.chains)} chains "
          f"in {cold_session_seconds:.2f}s")

    # -- 3-edit identity script (all modes) ----------------------------
    edited, target = drop_last_method(classes)
    check_identity(session, edited, f"edit-method {target}", failures)
    check_identity(session, drop_class(edited, target),
                   f"drop-class {target}", failures)
    check_identity(session, classes, "revert-all", failures)
    report["identity_edits"] = 3
    report["identity_ok"] = not failures

    # -- speedup gate (full mode): 1-class edit, incremental vs cold ---
    edited, target = drop_last_method(classes)
    incremental_input = [copy.deepcopy(c) for c in edited]
    cold_input = [copy.deepcopy(c) for c in edited]

    t0 = time.perf_counter()
    result = session.update(incremental_input)
    incremental_seconds = time.perf_counter() - t0
    stats = result.statistics

    t0 = time.perf_counter()
    cpg_cold, chains_cold = cold_pipeline(cold_input, cfg)
    cold_seconds = time.perf_counter() - t0

    if [c.key for c in result.chains] != [c.key for c in chains_cold]:
        failures.append("speedup edit: chain list diverged from cold rebuild")
    if repr(graph_fingerprint(session.cpg.graph)) != repr(
        graph_fingerprint(cpg_cold.graph)
    ):
        failures.append("speedup edit: fingerprint diverged from cold rebuild")

    speedup = cold_seconds / incremental_seconds if incremental_seconds else 0.0
    report["one_class_edit"] = {
        "target": target,
        "cold_seconds": round(cold_seconds, 4),
        "incremental_seconds": round(incremental_seconds, 4),
        "speedup": round(speedup, 2),
        "phases": {k: round(v, 4) for k, v in stats.phase_seconds.items()},
        "statistics": stats.as_row(),
    }
    print(f"1-class edit ({target}):")
    print(f"  cold rebuild + search : {cold_seconds:8.3f}s")
    print(f"  incremental update    : {incremental_seconds:8.3f}s "
          f"({speedup:.1f}x)")
    for phase, seconds in stats.phase_seconds.items():
        print(f"    {phase:<10} {seconds:8.3f}s")

    if not args.smoke and speedup < 5.0:
        failures.append(
            f"expected >=5x speedup for a 1-class edit over the merged "
            f"corpus, got {speedup:.2f}x"
        )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
