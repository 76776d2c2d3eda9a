"""MVCC + WAL benchmark: reader identity, crash recovery, throughput.

Four claims, four gates:

* **reader identity** (every mode, smoke included) — reader threads
  pin snapshots and run the gadget-chain search while the incremental
  writer commits an edit script; every reader's chain-key list must be
  *bit-identical* to the list computed from the exact version it
  pinned.  Any divergence fails the run; there is no tolerance.

* **crash recovery** (every mode) — after the edit script, re-opening
  the write-ahead log (the crash path: attach + replay, no in-memory
  state) must reconstruct a graph whose ``graph_fingerprint`` equals
  the last committed version's.

* **O(changed buckets) staging** (every mode) — a write transaction
  may privatize only the buckets it touches: a point write's
  owned-node fraction must stay under 5% of the graph, and
  ``begin_snapshot`` must cost the same on the full corpus as on a
  10-node graph (it is one attribute read; the gate allows 20x for
  timer noise).

* **reader throughput** (full mode) — with a writer continuously
  committing one-class edits, aggregate snapshot-reader throughput
  must be >= 2x the coarse global-lock baseline in which every reader
  and the writer serialize on one mutex around the same graph.

``--smoke`` runs the first three gates on a two-component corpus —
that is what CI runs.  The full run adds the throughput gate and
writes ``BENCH_mvcc.json``.
A ``--smoke`` run refuses to overwrite a full-mode results file, so
pass ``--output`` elsewhere when smoke-testing.
"""

import argparse
import copy
import json
import sys
import tempfile
import threading
import time

sys.path.insert(0, "src")

from repro.core.cpg import CLASS_LABEL, CPG, METHOD_LABEL, CPGStatistics
from repro.core.incremental import IncrementalAnalyzer
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import COMPONENT_NAMES, build_component, build_lang_base
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.mvcc import VersionedGraph, version_of
from repro.graphdb.query import run_query
from repro.graphdb.snapshot import fingerprint_digest, graph_fingerprint
from repro.jvm.hierarchy import ClassHierarchy
from smoke_guard import refuses_smoke_overwrite

SMOKE_COMPONENTS = ["commons-collections(3.2.1)", "Hibernate"]

EDIT_TARGET = "org.apache.commons.collections.map.TransformedMap"

READERS = 4

#: one reader "op": a label count plus a sink scan — the serve-layer
#: query mix, cheap enough that the op rate is lock-bound, not CPU-bound
READER_QUERIES = (
    "MATCH (n:Class) RETURN count(n) AS c",
    "MATCH (m:Method) WHERE m.IS_SINK = true RETURN count(m) AS c",
)


def load_corpus(components):
    classes = list(build_lang_base())
    for name in components:
        classes.extend(build_component(name).classes)
    return classes


def chain_keys(snapshot, max_depth=12):
    statistics = CPGStatistics(
        class_node_count=snapshot.indexes.label_count(CLASS_LABEL),
        method_node_count=snapshot.indexes.label_count(METHOD_LABEL),
        relationship_edge_count=snapshot.relationship_count,
    )
    view = CPG(snapshot, ClassHierarchy([]), statistics, {})
    finder = GadgetChainFinder(view, max_depth=max_depth)
    return sorted(
        (tuple(s.qualified for s in chain.steps), chain.sink_category)
        for chain in finder.find_chains()
    )


def drop_last_method(classes, target=EDIT_TARGET):
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


# -- gate 1+2: reader identity under a writer, then crash recovery -----


def run_identity_gate(classes, wal_path, failures, report):
    session = IncrementalAnalyzer(
        [copy.deepcopy(c) for c in classes], wal_path=wal_path,
        wal_fsync=False,
    )
    vg = session.versioned
    reference = {0: chain_keys(vg.begin_snapshot())}

    stop = threading.Event()
    observations = []
    errors = []

    def reader():
        local = []
        while not stop.is_set():
            snap = vg.begin_snapshot()
            try:
                local.append((version_of(snap), chain_keys(snap)))
            except Exception as exc:  # noqa: BLE001 - failed in the assert
                errors.append(repr(exc))
                return
        observations.extend(local)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    for thread in threads:
        thread.start()

    edited, target = drop_last_method(classes)
    script = [
        ("edit-method", edited),
        ("drop-class", drop_class(edited, target)),
        ("revert-all", classes),
    ]
    for label, version_classes in script:
        session.update([copy.deepcopy(c) for c in version_classes])
        current = vg.begin_snapshot()
        reference[version_of(current)] = chain_keys(current)
    stop.set()
    for thread in threads:
        thread.join()

    mismatches = sum(
        1 for version, keys in observations if keys != reference[version]
    )
    if errors:
        failures.append(f"identity: reader raised: {errors[0]}")
    if mismatches:
        failures.append(
            f"identity: {mismatches}/{len(observations)} reader "
            f"observations diverged from their pinned version"
        )
    if len({tuple(map(tuple, keys)) for keys in reference.values()}) < 2:
        failures.append("identity: the edit script never changed the chains")
    report["identity"] = {
        "edits": len(script),
        "reader_observations": len(observations),
        "versions_observed": sorted(
            {version for version, _ in observations}
        ),
        "mismatches": mismatches,
    }
    print(f"  identity: {len(observations)} reader observations across "
          f"versions {report['identity']['versions_observed']}, "
          f"{mismatches} mismatches")

    # crash path: throw the session away, attach + replay the log
    want = graph_fingerprint(vg.begin_snapshot())
    recovered = VersionedGraph.open_durable(wal_path, fsync=False)
    got = graph_fingerprint(recovered.begin_snapshot())
    ok = got == want and recovered.version == vg.version
    if not ok:
        failures.append(
            "recovery: WAL replay fingerprint/version diverged from the "
            "last committed state"
        )
    report["recovery"] = {
        "version": recovered.version,
        "fingerprint_identical": got == want,
        "digest": fingerprint_digest(recovered.begin_snapshot()),
    }
    print(f"  recovery: replayed to version {recovered.version}, "
          f"fingerprint {'identical' if ok else 'DIVERGED'}")
    return session


# -- gate 3: O(changed buckets) staging --------------------------------


def run_staging_gate(session, failures, report):
    vg = session.versioned
    base = vg.begin_snapshot()
    node_count = base.node_count

    # a point write privatizes O(touched buckets), not O(graph):
    # stage one property write over the full corpus graph and count
    # what the transaction actually copied (then abort it)
    with vg.write_txn() as txn:
        any_node = next(iter(txn.graph._nodes))
        txn.graph.set_node_property(any_node, "NAME", "bench-touch")
        cow = txn.cow_stats()
        txn.abort()
    owned_fraction = cow.get("owned_nodes", 0) / max(1, node_count)
    if owned_fraction > 0.05:
        failures.append(
            f"staging: a point write privatized "
            f"{owned_fraction:.1%} of {node_count} nodes (gate: 5%)"
        )

    def snapshot_ns(graph_like, rounds=200_000):
        t0 = time.perf_counter_ns()
        for _ in range(rounds):
            graph_like.begin_snapshot()
        return (time.perf_counter_ns() - t0) / rounds

    tiny = PropertyGraph()
    for _ in range(10):
        tiny.create_node(["Class"])
    tiny_ns = snapshot_ns(VersionedGraph(tiny))
    corpus_ns = snapshot_ns(vg)
    ratio = corpus_ns / max(tiny_ns, 1e-9)
    if ratio > 20.0:
        failures.append(
            f"staging: begin_snapshot scaled with graph size "
            f"({corpus_ns:.0f}ns on {node_count} nodes vs "
            f"{tiny_ns:.0f}ns on 10 nodes)"
        )
    report["staging"] = {
        "graph_nodes": node_count,
        "cow": cow,
        "owned_node_fraction": round(owned_fraction, 5),
        "snapshot_begin_ns_tiny": round(tiny_ns, 1),
        "snapshot_begin_ns_corpus": round(corpus_ns, 1),
    }
    print(f"  staging: point write owned {cow.get('owned_nodes', 0)}"
          f"/{node_count} nodes ({owned_fraction:.2%}); "
          f"begin_snapshot {corpus_ns:.0f}ns on the corpus vs "
          f"{tiny_ns:.0f}ns on 10 nodes")


# -- gate 4 (full mode): reader throughput vs a global lock ------------


def reader_op(graph):
    for query in READER_QUERIES:
        run_query(graph, query)


def measure_readers(duration, get_graph, lock=None):
    """Aggregate reader ops completed in ``duration`` seconds."""
    stop = threading.Event()
    counts = [0] * READERS

    def reader(slot):
        while not stop.is_set():
            if lock is not None:
                with lock:
                    reader_op(get_graph())
            else:
                reader_op(get_graph())
            counts[slot] += 1

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(READERS)
    ]
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join()
    return sum(counts)


def run_throughput_gate(classes, failures, report, duration=6.0):
    edited, _ = drop_last_method(classes)
    flip = [classes, edited]

    # -- MVCC: wait-free readers, writer commits via write_txn ---------
    session = IncrementalAnalyzer(
        [copy.deepcopy(c) for c in classes], versioned=True
    )
    vg = session.versioned
    stop = threading.Event()
    commits = [0]

    def mvcc_writer():
        while not stop.is_set():
            commits[0] += 1
            session.update(
                [copy.deepcopy(c) for c in flip[commits[0] % 2]]
            )

    writer = threading.Thread(target=mvcc_writer)
    writer.start()
    mvcc_ops = measure_readers(duration, vg.begin_snapshot)
    stop.set()
    writer.join()
    mvcc_commits = commits[0]

    # -- baseline: one mutex around one mutable graph ------------------
    baseline = IncrementalAnalyzer([copy.deepcopy(c) for c in classes])
    lock = threading.Lock()
    stop = threading.Event()
    commits = [0]

    def locked_writer():
        while not stop.is_set():
            commits[0] += 1
            with lock:
                baseline.update(
                    [copy.deepcopy(c) for c in flip[commits[0] % 2]]
                )

    writer = threading.Thread(target=locked_writer)
    writer.start()
    lock_ops = measure_readers(
        duration, lambda: baseline.cpg.graph, lock=lock
    )
    stop.set()
    writer.join()
    lock_commits = commits[0]

    ratio = mvcc_ops / max(1, lock_ops)
    if ratio < 2.0:
        failures.append(
            f"throughput: expected >=2x aggregate reader throughput with "
            f"an active writer, got {ratio:.2f}x "
            f"({mvcc_ops} vs {lock_ops} ops in {duration:.0f}s)"
        )
    report["throughput"] = {
        "readers": READERS,
        "window_seconds": duration,
        "mvcc_reader_ops": mvcc_ops,
        "mvcc_writer_commits": mvcc_commits,
        "locked_reader_ops": lock_ops,
        "locked_writer_commits": lock_commits,
        "speedup": round(ratio, 2),
    }
    print(f"  throughput ({READERS} readers, {duration:.0f}s window):")
    print(f"    mvcc snapshots : {mvcc_ops:8d} reader ops "
          f"({mvcc_commits} writer commits)")
    print(f"    global lock    : {lock_ops:8d} reader ops "
          f"({lock_commits} writer commits)")
    print(f"    speedup        : {ratio:8.1f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="identity/recovery/staging gates only, on a 2-component "
             "corpus (what CI runs)",
    )
    parser.add_argument("--output", default="BENCH_mvcc.json")
    args = parser.parse_args(argv)
    if refuses_smoke_overwrite(args):
        return 2

    components = SMOKE_COMPONENTS if args.smoke else list(COMPONENT_NAMES)
    failures = []
    report = {
        "benchmark": "mvcc",
        "mode": "smoke" if args.smoke else "full",
        "components": components,
        "readers": READERS,
    }

    classes = load_corpus(components)
    report["classes"] = len(classes)
    print(f"corpus: {len(classes)} classes from {len(components)} "
          f"component(s) + lang base")

    with tempfile.TemporaryDirectory() as tmp:
        session = run_identity_gate(
            classes, f"{tmp}/bench.wal", failures, report
        )
        run_staging_gate(session, failures, report)

    if not args.smoke:
        run_throughput_gate(classes, failures, report)

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
