"""v3 zero-copy snapshots: codec robustness, the ArrayGraph view's
parity with PropertyGraph, and cross-process mmap sharing.

The contract under test, in three layers:

* **corruption** — every malformed input (empty file, shorter than the
  magic, a v3 header stapled onto a foreign body, truncation anywhere in
  the section area, a retired v2 file) must surface as a structured
  ``StorageError``, never a raw ``struct.error``/``IndexError``;
* **parity** — the mmap'd :class:`ArrayGraph` answers the entire read
  surface (lookups, degrees, indexes, queries, chain search in every
  uniqueness mode) bit-identically to the ``PropertyGraph`` the
  snapshot was written from, and materializes fingerprint-identically;
* **sharing** — two separate processes traversing one v3 file get
  bit-identical chain lists.
"""

import multiprocessing
import struct
import tracemalloc
import zlib

import pytest

from repro.core.cpg import CPG, CPGBuilder, CPGStatistics
from repro.core.pathfinder import GadgetChainFinder
from repro.corpus import build_component, build_lang_base
from repro.errors import GraphError, StorageError
from repro.graphdb.arraygraph import ArrayGraph
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.query import run_query
from repro.graphdb.snapshot import fingerprint_digest, graph_fingerprint
from repro.graphdb.snapshot_v3 import (
    SNAPSHOT_MAGIC,
    decode_snapshot_v3,
    encode_snapshot_v3,
    open_snapshot,
    view_snapshot,
)
from repro.graphdb.storage import load_graph, open_graph, save_graph
from repro.graphdb.traversal import Uniqueness
from repro.jvm.hierarchy import ClassHierarchy

PROBE_QUERY = (
    "MATCH (a:Method)-[c:CALL]->(b:Method {IS_SINK: true}) "
    "RETURN a.SIGNATURE AS caller, b.NAME AS sink ORDER BY caller, sink"
)


def small_graph():
    g = PropertyGraph()
    g.indexes.create_index("Method", "NAME")
    g.indexes.create_index("Method", "IS_SINK")
    a = g.create_node(["Class"], {"NAME": "A", "INTERFACES": ["I", "J"]})
    m = g.create_node(
        ["Method"],
        {"NAME": "run", "IS_SINK": True, "PP": [0, 1], "RATE": 0.5,
         "META": {"k": "v"}},
    )
    n = g.create_node(["Method"], {"NAME": "call", "IS_SINK": False})
    g.create_relationship("HAS", a, m, {"weight": 2})
    g.create_relationship("CALL", n, m, {"POLLUTED_POSITION": [0, 0]})
    g.create_relationship("ALIAS", n, m)
    return g


@pytest.fixture(scope="module")
def corpus_cpg():
    classes = build_lang_base() + build_component("CommonsBeanutils1").classes
    return CPGBuilder(ClassHierarchy(classes)).build()


@pytest.fixture(scope="module")
def v3_path(corpus_cpg, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("v3") / "corpus.cpg")
    save_graph(corpus_cpg.graph, path, format="v3")
    return path


def view_as_cpg(graph):
    return CPG(graph, ClassHierarchy([]), CPGStatistics(), {})


def chain_fingerprint(cpg, **kwargs):
    return [
        (
            tuple(step.qualified for step in chain.steps),
            chain.sink_category,
            tuple(chain.trigger_condition),
        )
        for chain in GadgetChainFinder(cpg, **kwargs).find_chains()
    ]


# ---------------------------------------------------------------------------
# Corruption: structured errors, never struct.error / IndexError
# ---------------------------------------------------------------------------


class TestCorruption:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.cpg"
        path.write_bytes(b"")
        with pytest.raises(StorageError):
            load_graph(str(path))
        with pytest.raises(StorageError):
            open_graph(str(path))

    def test_shorter_than_magic(self, tmp_path):
        path = tmp_path / "tiny.cpg"
        path.write_bytes(b"TABBY")
        with pytest.raises(StorageError):
            load_graph(str(path))
        with pytest.raises(StorageError):
            open_graph(str(path))

    def test_v3_header_on_foreign_body(self, tmp_path):
        """A v3 header stapled onto bytes that are not a v3 section
        table (here a v1 JSON document) must fail the table checksum,
        not be misparsed as sections."""
        v1_path = tmp_path / "g.json"
        save_graph(small_graph(), str(v1_path), format="json")
        header = struct.pack("<8sHHI", SNAPSHOT_MAGIC, 3, 0, 20)
        path = tmp_path / "lying.cpg"
        path.write_bytes(header + v1_path.read_bytes())
        with pytest.raises(StorageError, match="checksum"):
            load_graph(str(path))
        with pytest.raises(StorageError, match="checksum"):
            open_graph(str(path))

    @pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5, 0.8, 0.97])
    def test_truncation_anywhere(self, tmp_path, fraction):
        data = encode_snapshot_v3(small_graph())
        cut = data[: max(1, int(len(data) * fraction))]
        path = tmp_path / "cut.cpg"
        path.write_bytes(cut)
        with pytest.raises(StorageError):
            open_graph(str(path))
        with pytest.raises(StorageError):
            decode_snapshot_v3(cut)

    def test_truncated_csr_section(self):
        """Cutting inside the CSR arrays specifically (the largest
        fixed-layout section) raises at open, not at first traversal."""
        g = small_graph()
        data = encode_snapshot_v3(g)
        # drop the final 16 bytes: lands inside the trailing sections'
        # data, making some section's recorded length overrun the file
        with pytest.raises(StorageError):
            view_snapshot(data[:-16])

    def test_every_single_byte_truncation_is_structured(self):
        """Exhaustive: no prefix of a tiny snapshot escapes as a raw
        struct/index error."""
        data = encode_snapshot_v3(small_graph())
        step = max(1, len(data) // 97)
        for cut in range(0, len(data) - 1, step):
            with pytest.raises(StorageError):
                graph = view_snapshot(data[:cut])
                graph.materialize()  # force lazy sections if open passed

    def test_error_message_names_the_problem(self, tmp_path):
        path = tmp_path / "empty.cpg"
        path.write_bytes(b"")
        with pytest.raises(StorageError, match="empty"):
            open_graph(str(path))


# ---------------------------------------------------------------------------
# Round trips and auto-detection
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_v3_fingerprint_identical(self):
        g = small_graph()
        assert graph_fingerprint(decode_snapshot_v3(encode_snapshot_v3(g))) \
            == graph_fingerprint(g)

    def test_default_save_is_v3_and_autodetected(self, tmp_path):
        path = str(tmp_path / "g.cpg")
        save_graph(small_graph(), path)  # auto -> v3
        assert isinstance(open_graph(path), ArrayGraph)
        assert isinstance(load_graph(path), PropertyGraph)

    def test_json_suffix_still_means_v1(self, tmp_path):
        path = str(tmp_path / "g.json.gz")
        save_graph(small_graph(), path)
        assert isinstance(open_graph(path), PropertyGraph)

    def test_gzipped_v3_opens_as_in_memory_view(self, tmp_path):
        import gzip

        path = str(tmp_path / "g.cpg.gz")
        with open(path, "wb") as fh:
            fh.write(gzip.compress(encode_snapshot_v3(small_graph())))
        view = open_graph(path)
        assert isinstance(view, ArrayGraph)
        assert view.path is None  # decompressed copy, not a file mapping

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="unknown snapshot format"):
            save_graph(small_graph(), str(tmp_path / "g.cpg"), format="v9")


def v2_file(path, inflated_bytes=64):
    """A file with the retired v2 framing: the ``TABBYCPG`` header with
    version 2, then one zlib-compressed section that inflates to
    ``inflated_bytes`` of zeros while declaring a 16-byte payload."""
    compressor = zlib.compressobj(9)
    chunk = bytes(min(inflated_bytes, 1 << 20))
    stored = b"".join(
        compressor.compress(chunk) for _ in range(inflated_bytes // len(chunk))
    ) + compressor.flush()
    section = struct.pack("<BIQQ", 1, zlib.crc32(stored), 16, len(stored))
    header = struct.pack("<8sHHI", SNAPSHOT_MAGIC, 2, 0, 1)
    path.write_bytes(header + section + stored)
    return str(path)


class TestRetiredFormat:
    """v2 columnar snapshots are no longer read: the header alone is
    enough to reject them, with an error that says what to do."""

    @pytest.mark.parametrize("reader", [load_graph, open_graph])
    def test_v2_file_rejected_with_remedy(self, tmp_path, reader):
        path = v2_file(tmp_path / "old.cpg")
        with pytest.raises(StorageError) as info:
            reader(path)
        message = str(info.value)
        assert "version 2" in message
        assert "tabby analyze" in message
        assert 'format="v3"' in message

    def test_gzipped_v2_file_rejected(self, tmp_path):
        import gzip

        plain = v2_file(tmp_path / "old.cpg")
        path = tmp_path / "old.cpg.gz"
        with open(plain, "rb") as fh:
            path.write_bytes(gzip.compress(fh.read()))
        for reader in (load_graph, open_graph):
            with pytest.raises(StorageError, match="version 2"):
                reader(str(path))

    @pytest.mark.parametrize("reader", [load_graph, open_graph])
    def test_inflating_v2_file_fails_without_decompressing(self, tmp_path, reader):
        """A section that inflates to 16 MiB is never inflated: the
        reader stops at the header."""
        path = v2_file(tmp_path / "bomb.cpg", inflated_bytes=16 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(StorageError, match="version 2"):
                reader(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{peak} bytes allocated rejecting the file"


# ---------------------------------------------------------------------------
# ArrayGraph parity with PropertyGraph
# ---------------------------------------------------------------------------


class TestArrayGraphParity:
    @pytest.fixture()
    def pair(self, tmp_path):
        g = small_graph()
        path = str(tmp_path / "g.cpg")
        save_graph(g, path, format="v3")
        view = open_graph(path)
        yield g, view
        view.close()

    def test_counts_and_labels(self, pair):
        g, view = pair
        assert view.node_count == g.node_count
        assert view.relationship_count == g.relationship_count
        assert view.label_counts() == g.label_counts()
        assert view.relationship_type_counts() == g.relationship_type_counts()

    def test_node_identity_and_properties(self, pair):
        g, view = pair
        for node in g.nodes():
            twin = view.node(node.id)
            assert twin == node and hash(twin) == hash(node)
            assert twin.labels == node.labels
            assert dict(twin.properties) == dict(node.properties)
            for key, value in node.properties.items():
                assert twin[key] == value
                assert key in twin
                assert twin.get(key) == value
            assert twin.get("NOPE", 42) == 42
            with pytest.raises(KeyError):
                twin["NOPE"]

    def test_adjacency(self, pair):
        g, view = pair
        for node in g.nodes():
            for rel_type in (None, "CALL", "ALIAS", "HAS", "NOPE"):
                assert (
                    [r.id for r in view.out_relationships(node, rel_type)]
                    == [r.id for r in g.out_relationships(node, rel_type)]
                )
                assert (
                    [r.id for r in view.in_relationships(node, rel_type)]
                    == [r.id for r in g.in_relationships(node, rel_type)]
                )
                assert view.out_degree(node, rel_type) == g.out_degree(node, rel_type)
                assert view.in_degree(node, rel_type) == g.in_degree(node, rel_type)

    def test_find_nodes_same_order(self, pair):
        g, view = pair
        assert (
            [n.id for n in view.find_nodes("Method", IS_SINK=True)]
            == [n.id for n in g.find_nodes("Method", IS_SINK=True)]
        )
        assert (
            [n.id for n in view.find_nodes("Method")]
            == [n.id for n in g.find_nodes("Method")]
        )

    def test_mutation_rejected(self, pair):
        _, view = pair
        with pytest.raises(GraphError, match="read-only"):
            view.create_node(["X"], {})
        with pytest.raises(GraphError, match="read-only"):
            view.create_relationship("E", 0, 1)
        with pytest.raises(GraphError, match="read-only"):
            view.delete_node(0)

    def test_materialize_fingerprint(self, pair):
        g, view = pair
        assert graph_fingerprint(view.materialize()) == graph_fingerprint(g)

    def test_view_fingerprints_as_the_decoded_graph(self, v3_path):
        """A zero-copy view is fingerprinted as the graph it decodes to."""
        view = open_graph(v3_path)
        try:
            assert isinstance(view, ArrayGraph)
            assert fingerprint_digest(view) == fingerprint_digest(load_graph(v3_path))
        finally:
            view.close()

    def test_query_rows_identical(self, corpus_cpg, v3_path):
        view = open_graph(v3_path)
        assert (
            run_query(view, PROBE_QUERY).rows
            == run_query(corpus_cpg.graph, PROBE_QUERY).rows
        )
        view.close()


# ---------------------------------------------------------------------------
# Chain identity over the mmap'd view, every uniqueness mode
# ---------------------------------------------------------------------------


ALL_MODES = list(Uniqueness)


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.name for m in ALL_MODES])
def test_chains_identical_over_mmap_view(corpus_cpg, v3_path, mode):
    baseline = chain_fingerprint(corpus_cpg, uniqueness=mode)
    view = open_graph(v3_path)
    assert chain_fingerprint(view_as_cpg(view), uniqueness=mode) == baseline
    view.close()


# ---------------------------------------------------------------------------
# Cross-process sharing
# ---------------------------------------------------------------------------


def _search_snapshot(path, out):
    """Child-process worker: open the shared snapshot, search, report."""
    from repro.graphdb.storage import open_graph as _open

    view = _open(path)
    out.put(chain_fingerprint(view_as_cpg(view)))


def test_two_processes_same_mmap_identical_chains(corpus_cpg, v3_path):
    ctx = multiprocessing.get_context("spawn")
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_search_snapshot, args=(v3_path, out))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    results = [out.get(timeout=300) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
    baseline = chain_fingerprint(corpus_cpg)
    assert results[0] == baseline
    assert results[1] == baseline
