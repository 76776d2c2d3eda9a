"""The MVCC interleaving battery: reader threads pin snapshots and
run queries/chain searches while a writer commits edit scripts.

The single invariant under test is the MVCC contract itself — every
reader observation (fingerprint, query result, chain list) equals the
one computed from **exactly one committed version**, never a blend,
whatever the thread interleaving.  Scripts are hypothesis-generated in
the style of ``test_mutation_properties.py``; the chain-search half
drives the real incremental analyzer in versioned mode.
"""

import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graphdb.graph import PropertyGraph
from repro.graphdb.mvcc import VersionedGraph, version_of
from repro.graphdb.query import run_query
from repro.graphdb.snapshot import graph_fingerprint

from tests.graphdb.test_mutation_properties import apply_ops, op

READERS = 4
MAX_READS = 120


def fresh():
    g = PropertyGraph()
    for label in ("Class", "Method"):
        for key in ("NAME", "IS_SINK"):
            g.create_index(label, key)
    g.create_relationship_index("PRUNED")
    return g


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scripts=st.lists(
        st.lists(op, min_size=1, max_size=6), min_size=2, max_size=5
    )
)
def test_concurrent_readers_see_exactly_one_committed_version(scripts):
    vg = VersionedGraph(fresh())
    committed = {0: repr(graph_fingerprint(vg.begin_snapshot()))}
    start = threading.Event()
    stop = threading.Event()
    observations = []
    errors = []

    def reader():
        local = []
        start.wait()
        while not stop.is_set() and len(local) < MAX_READS:
            snap = vg.begin_snapshot()
            version = version_of(snap)
            try:
                fp = repr(graph_fingerprint(snap))
                counted = run_query(
                    snap, "MATCH (n:Class) RETURN count(n) AS c"
                ).rows[0]["c"]
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)
                return
            local.append((version, fp, counted))
        observations.extend(local)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    for thread in threads:
        thread.start()
    start.set()
    for script in scripts:
        with vg.write_txn() as txn:
            apply_ops(txn.graph, script)
        committed[vg.version] = repr(
            graph_fingerprint(vg.begin_snapshot())
        )
    stop.set()
    for thread in threads:
        thread.join()

    assert not errors, errors
    for version, fp, counted in observations:
        assert version in committed
        # fingerprint-equal to exactly the version the reader pinned:
        # no torn reads, no writer bleed-through
        assert fp == committed[version], version
        # the query ran over the same frozen version without tripping
        # the immutability guard or observing a half-applied script
        assert counted >= 0


def test_chain_search_readers_during_incremental_updates():
    """Readers run the real gadget-chain search over pinned snapshots
    while the incremental analyzer commits successive class versions;
    every reader's chain list is bit-identical to the list computed
    from the version it pinned."""
    from repro.core.cpg import CLASS_LABEL, CPG, METHOD_LABEL, CPGStatistics
    from repro.core.incremental import IncrementalAnalyzer
    from repro.core.pathfinder import GadgetChainFinder
    from repro.jvm.hierarchy import ClassHierarchy

    from tests.core.test_incremental import gadget_program

    def chain_keys(snapshot):
        statistics = CPGStatistics(
            class_node_count=snapshot.indexes.label_count(CLASS_LABEL),
            method_node_count=snapshot.indexes.label_count(METHOD_LABEL),
            relationship_edge_count=snapshot.relationship_count,
        )
        view = CPG(snapshot, ClassHierarchy([]), statistics, {})
        finder = GadgetChainFinder(view, max_depth=12)
        return sorted(
            (tuple(s.qualified for s in chain.steps), chain.sink_category)
            for chain in finder.find_chains()
        )

    versions = [
        gadget_program(sink_in_b=True),
        gadget_program(sink_in_b=False),
        gadget_program(sink_in_b=True, with_extra=True),
        gadget_program(sink_in_b=True, define_util=True),
    ]
    session = IncrementalAnalyzer(versions[0], versioned=True)
    vg = session.versioned
    reference = {0: chain_keys(vg.begin_snapshot())}

    stop = threading.Event()
    observations = []
    errors = []

    def reader():
        local = []
        while not stop.is_set() and len(local) < 30:
            snap = vg.begin_snapshot()
            try:
                local.append((version_of(snap), chain_keys(snap)))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                return
        observations.extend(local)

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    for thread in threads:
        thread.start()
    for classes in versions[1:]:
        session.update(classes)
        current = vg.begin_snapshot()
        reference[version_of(current)] = chain_keys(current)
    stop.set()
    for thread in threads:
        thread.join()

    assert not errors, errors
    assert vg.version == len(versions) - 1
    seen_versions = {version for version, _ in observations}
    assert seen_versions  # the readers did observe something
    for version, keys in observations:
        assert keys == reference[version], version
    # the sink toggles really did change the chain lists between
    # versions, so the identity above is not vacuous
    assert reference[0] != reference[1]
