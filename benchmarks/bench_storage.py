"""Storage benchmark: v3 mmap / v1 JSON snapshots.

Two workloads, both rooted in the 26-component Table IX corpus:

* **corpus** — the merged corpus CPG exactly as built: the graph a
  ``tabby analyze`` of the whole corpus persists.  The load-speedup and
  open-latency gates (full mode only) are asserted on this workload.

* **library_bulk** — the same CPG plus decoy CALL lattices attached to
  a real sink, mimicking the storage profile of real-world classpaths
  (lots of near-identical method nodes and CALL edges, few distinct
  strings).  This is where columnar layout and the string table pay
  the most; the decoys add zero chains, which is also asserted.

Per workload x format we record save time, full-decode load time (both
best-of-N), file size, and two memory figures: the tracemalloc-visible
size of the loaded object graph (blind to mmap'd pages by design) and
the process RSS delta around the load (sees mmap'd pages once touched,
but noisy at small sizes — which is why both are reported).  The v3
format additionally records its zero-copy *open* latency — mmap plus
header validation, no decoding — and an N-process concurrent-reader
measurement: 8 spawned readers each open the same corpus snapshot, run
the probe query, and report their PSS delta while all 8 hold the graph
simultaneously; then 8 more each fully decode the same file.  mmap'd
pages are shared, so the zero-copy total collapses where 8 independent
decodes each pay full freight.

Identity gates run in every mode, smoke included:

* ``load_graph(save_graph(g))`` is :func:`graph_fingerprint`-identical
  to ``g`` under both formats;
* the gadget-chain search over the reloaded graph — and, for v3, over
  the *mmap'd zero-copy view* — is bit-identical to the search over
  the in-memory original;
* a planner query over the reloaded graph (and the v3 view) returns
  bit-identical rows.

Results go to ``BENCH_storage.json``.  The full run asserts per
workload that a full v3 decode is >=1.5x faster than a v1 load (the
floor leaves headroom for shared CI hosts — quiet machines measure well
above it, and the report records the actual ratio each run); that v3
opens >=10x faster than a full v3 decode of the same file on the merged
corpus; and that 8 zero-copy readers of one snapshot cost <=0.5x the
memory of 8 independent full decodes of it.  File size carries no gate:
v3 is deliberately uncompressed (it is the mmap'd in-memory layout).
``--smoke`` uses a two-component corpus and skips the performance
gates (identity is always enforced), which is what CI runs.
A ``--smoke`` run refuses to overwrite a full-mode results file, so
pass ``--output`` elsewhere when smoke-testing.
"""

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc

sys.path.insert(0, "src")

from repro.core.cpg import CALL, CPG, CPGBuilder
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.query import run_query
from repro.graphdb.snapshot import graph_fingerprint
from repro.graphdb.storage import load_graph, open_graph, save_graph
from repro.jvm.hierarchy import ClassHierarchy
from smoke_guard import refuses_smoke_overwrite

REPETITIONS = 5

#: load/open timings get extra repetitions — they are cheap and their
#: best-of is what the speedup gates divide, so squeeze the noise there
LOAD_REPETITIONS = 9

#: concurrent readers in the shared-memory measurement
READERS = 8

SMOKE_COMPONENTS = ["CommonsBeanutils1", "commons-collections(3.2.1)"]

#: every format answers this after a reload, bit-identically
PROBE_QUERY = (
    "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
    "RETURN a.SIGNATURE AS caller, b.NAME AS sink ORDER BY caller, sink"
)

FORMATS = {
    "v1_json": ("g.cpg.json.gz", "json"),
    "v3_mmap": ("g3.cpg", "v3"),
}


def build_corpus_cpg(components):
    classes = build_lang_base()
    for name in components:
        classes += build_component(name).classes
    return CPGBuilder(ClassHierarchy(classes)).build()


def decoy_method(graph, name):
    return graph.create_node(
        ["Method"],
        {
            "NAME": name,
            "CLASSNAME": "bulk.Library",
            "SIGNATURE": f"void bulk.Library.{name}(java.lang.Object)",
            "ARITY": 1,
            "IS_SOURCE": False,
            "IS_SINK": False,
        },
    )


def attach_lattice(graph, sink, tag, width, depth):
    """A diamond CALL lattice feeding ``sink`` (see bench_search_scaling):
    source-unreachable, so it adds bulk but zero chains."""
    layers = []
    for d in range(depth + 1):
        layers.append([decoy_method(graph, f"{tag}_{d}_{k}") for k in range(width)])
    for node in layers[0]:
        graph.create_relationship(
            CALL, node, sink, {"POLLUTED_POSITION": [0, 0], "KIND": "virtual"}
        )
    for d in range(depth):
        for k in range(width):
            for caller in (layers[d + 1][k], layers[d + 1][(k + 1) % width]):
                graph.create_relationship(
                    CALL, caller, layers[d][k],
                    {"POLLUTED_POSITION": [0, 0], "KIND": "virtual"},
                )


def build_bulk_cpg(components, width, depth):
    cpg = build_corpus_cpg(components)
    sink = cpg.sink_nodes()[0]
    attach_lattice(cpg.graph, sink, "bulk", width, depth)
    return cpg


def chain_fingerprint(cpg):
    return [
        (
            tuple(step.qualified for step in chain.steps),
            chain.sink_category,
            tuple(chain.trigger_condition),
        )
        for chain in GadgetChainFinder(cpg).find_chains()
    ]


def reload_as_cpg(graph):
    return CPG.from_graph(graph)


def timed(action, repetitions=REPETITIONS):
    best = float("inf")
    result = None
    for _ in range(repetitions):
        started = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - started)
    return best, result


def statm_rss_bytes():
    """Resident set size from ``/proc/self/statm`` (None off-Linux)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        return None


def pss_bytes():
    """Proportional set size (shared pages divided by their mapper
    count — the honest metric for mmap sharing), falling back to plain
    RSS where ``smaps_rollup`` is unavailable."""
    try:
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024, "pss"
    except OSError:
        pass
    rss = statm_rss_bytes()
    return (rss, "rss") if rss is not None else (None, None)


def resident_bytes(path):
    """Memory cost of a full load, measured two ways.

    tracemalloc sees exactly the Python objects the load allocates but
    is blind to mmap'd file pages; the statm RSS delta sees those pages
    once touched but is noisy at small sizes (allocator reuse, arena
    growth).  Both are reported; neither alone tells the mmap story.
    """
    rss_before = statm_rss_bytes()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    graph = load_graph(path)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    rss_after = statm_rss_bytes()
    rss = (
        max(0, rss_after - rss_before)
        if rss_before is not None and rss_after is not None
        else None
    )
    return after - before, rss, graph


def _reader_worker(path, mmap_mode, barrier, out):
    """One concurrent reader: open/decode, do real work, report the
    memory delta while every sibling still holds its graph."""
    before, metric = pss_bytes()
    graph = open_graph(path) if mmap_mode else load_graph(path)
    rows = run_query(graph, PROBE_QUERY).rows
    barrier.wait(timeout=300)  # all readers resident simultaneously
    after, _ = pss_bytes()
    delta = (
        max(0, after - before)
        if before is not None and after is not None
        else None
    )
    out.put((delta, metric, len(rows)))
    barrier.wait(timeout=300)  # hold the graph until everyone measured


def measure_concurrent_readers(v3_path, failures):
    """Total memory of N processes reading one corpus snapshot: mmap
    readers share a single physical copy; decode readers each
    materialise their own."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    result = {"readers": READERS}
    for label, mmap_mode in (("v3_mmap", True), ("v3_decode", False)):
        barrier = ctx.Barrier(READERS)
        out = ctx.Queue()
        procs = [
            ctx.Process(
                target=_reader_worker, args=(v3_path, mmap_mode, barrier, out)
            )
            for _ in range(READERS)
        ]
        for proc in procs:
            proc.start()
        try:
            samples = [out.get(timeout=600) for _ in range(READERS)]
        except Exception:
            for proc in procs:
                proc.terminate()
            failures.append(f"readers/{label}: worker did not report")
            return result
        finally:
            for proc in procs:
                proc.join(timeout=60)
        deltas = [sample[0] for sample in samples]
        total = sum(deltas) if all(d is not None for d in deltas) else None
        result[label] = {"total_bytes": total, "metric": samples[0][1]}
        shown = f"{total:>12}" if total is not None else "         n/a"
        print(f"  {READERS} readers {label:<10} total {shown} bytes "
              f"({samples[0][1] or 'unavailable'})")
    mapped = result.get("v3_mmap", {}).get("total_bytes")
    decoded = result.get("v3_decode", {}).get("total_bytes")
    if mapped is not None and decoded:
        result["ratio_mmap_vs_decode"] = mapped / decoded
    return result


def measure_workload(name, cpg, tmp_dir, report, failures):
    graph = cpg.graph
    print(f"{name}: {graph.node_count} nodes, "
          f"{graph.relationship_count} relationships")
    reference = graph_fingerprint(graph)
    chains_before = chain_fingerprint(cpg)
    rows_before = run_query(graph, PROBE_QUERY).rows
    entry = {
        "nodes": graph.node_count,
        "relationships": graph.relationship_count,
        "chains": len(chains_before),
        "formats": {},
    }
    paths = {}
    for label, (file_name, format) in FORMATS.items():
        path = os.path.join(tmp_dir, f"{name}-{file_name}")
        paths[label] = path
        save_s, _ = timed(lambda: save_graph(graph, path, format=format))
        load_s, _ = timed(lambda: load_graph(path), LOAD_REPETITIONS)
        traced, rss, loaded = resident_bytes(path)
        entry["formats"][label] = {
            "save_s": save_s,
            "load_s": load_s,
            "file_bytes": os.path.getsize(path),
            "resident_bytes": traced,
            "resident_rss_bytes": rss,
        }
        print(f"  {label:<10} save {save_s * 1000:7.1f}ms  "
              f"load {load_s * 1000:7.1f}ms  "
              f"{os.path.getsize(path):>9} bytes on disk  "
              f"{traced:>9} bytes traced")

        # -- identity gates (every mode)
        if graph_fingerprint(loaded) != reference:
            failures.append(f"{name}/{label}: reload is not "
                            "fingerprint-identical to the original")
        if chain_fingerprint(reload_as_cpg(loaded)) != chains_before:
            failures.append(f"{name}/{label}: chain search diverged "
                            "after a save/load cycle")
        if run_query(loaded, PROBE_QUERY).rows != rows_before:
            failures.append(f"{name}/{label}: planner query rows diverged "
                            "after a save/load cycle")

        if label == "v3_mmap":
            # zero-copy open latency: mmap + header validation only
            def open_close():
                view = open_graph(path)
                view.close()

            open_s, _ = timed(open_close, LOAD_REPETITIONS)
            entry["formats"][label]["open_s"] = open_s
            print(f"  {label:<10} open {open_s * 1000:7.3f}ms  (zero-copy)")
            # the mmap'd view itself — no materialisation — must search
            # and query bit-identically to the in-memory original
            view = open_graph(path)
            if chain_fingerprint(reload_as_cpg(view)) != chains_before:
                failures.append(f"{name}/{label}: chain search over the "
                                "mmap'd view diverged from the original")
            if run_query(view, PROBE_QUERY).rows != rows_before:
                failures.append(f"{name}/{label}: planner query over the "
                                "mmap'd view diverged from the original")
            if graph_fingerprint(view.materialize()) != reference:
                failures.append(f"{name}/{label}: materialized view is not "
                                "fingerprint-identical to the original")
            view.close()

    v1 = entry["formats"]["v1_json"]
    v3 = entry["formats"]["v3_mmap"]
    entry["load_speedup_v3_vs_v1"] = (
        v1["load_s"] / v3["load_s"] if v3["load_s"] else float("inf")
    )
    entry["size_ratio_v3_vs_v1"] = v3["file_bytes"] / v1["file_bytes"]
    entry["open_speedup_v3_vs_decode"] = (
        v3["load_s"] / v3["open_s"] if v3["open_s"] else float("inf")
    )
    report["workloads"][name] = entry
    return entry, paths


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="two-component corpus, identity checks only (no perf gates)",
    )
    parser.add_argument("--output", default="BENCH_storage.json")
    args = parser.parse_args(argv)
    if refuses_smoke_overwrite(args):
        return 2

    components = SMOKE_COMPONENTS if args.smoke else list(COMPONENT_NAMES)
    width, depth = (8, 4) if args.smoke else (96, 14)
    failures = []
    report = {
        "benchmark": "storage",
        "mode": "smoke" if args.smoke else "full",
        "components": len(components),
        "repetitions": REPETITIONS,
        "lattice": {"width": width, "depth": depth},
        "workloads": {},
    }

    print(f"building merged {len(components)}-component corpus CPG ...")
    corpus = build_corpus_cpg(components)
    print(f"building library-bulk CPG (lattice width={width}, depth={depth}) ...")
    bulk = build_bulk_cpg(components, width, depth)

    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp_dir:
        corpus_entry, corpus_paths = measure_workload(
            "corpus", corpus, tmp_dir, report, failures
        )
        bulk_entry, _ = measure_workload(
            "library_bulk", bulk, tmp_dir, report, failures
        )
        print(f"measuring {READERS} concurrent readers of the corpus "
              "snapshot ...")
        report["concurrent_readers"] = measure_concurrent_readers(
            corpus_paths["v3_mmap"], failures
        )

    speedup = corpus_entry["load_speedup_v3_vs_v1"]
    report["speedup"] = speedup
    if not args.smoke:
        # per-workload load gates: the corpus and bulk profiles stress
        # different parts of the codec, so each gets its own floor
        load_floors = {"corpus": 1.5, "library_bulk": 1.5}
        for name, entry in report["workloads"].items():
            floor = load_floors[name]
            if entry["load_speedup_v3_vs_v1"] < floor:
                failures.append(
                    f"{name}: expected a full v3 decode >={floor}x faster "
                    f"than a v1 load, got {entry['load_speedup_v3_vs_v1']:.2f}x"
                )
        if corpus_entry["open_speedup_v3_vs_decode"] < 10.0:
            failures.append(
                f"corpus: expected v3 open >=10x faster than a full v3 "
                f"decode, got {corpus_entry['open_speedup_v3_vs_decode']:.1f}x"
            )
        readers = report["concurrent_readers"]
        ratio = readers.get("ratio_mmap_vs_decode")
        if ratio is None:
            if readers.get("v3_mmap", {}).get("metric") is not None:
                failures.append("readers: memory totals unavailable")
        elif ratio > 0.5:
            failures.append(
                f"readers: {READERS} zero-copy readers cost {ratio:.2f}x the "
                f"memory of {READERS} full decodes (expected <=0.5x)"
            )

    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    open_ms = corpus_entry["formats"]["v3_mmap"]["open_s"] * 1000
    print(f"v3: full decode {speedup:.1f}x faster than a v1 load on the "
          f"merged corpus; opens in {open_ms:.2f}ms "
          f"({corpus_entry['open_speedup_v3_vs_decode']:.0f}x faster than a "
          "full decode) — all reloads bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
