"""Unit tests for graph persistence plus hypothesis round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.snapshot import graph_fingerprint
from repro.graphdb.storage import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    open_graph,
    save_graph,
)

from tests.oracles.storage import _graph_from_dict_checked


def sample_graph():
    g = PropertyGraph()
    g.indexes.create_index("Method", "NAME")
    a = g.create_node(["Class"], {"NAME": "A"})
    m = g.create_node(["Method"], {"NAME": "run", "PP": [0, 1]})
    g.create_relationship("HAS", a, m, {"weight": 2})
    return g


class TestRoundTrip:
    def test_dict_round_trip(self):
        g = sample_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        assert g2.node_count == g.node_count
        assert g2.relationship_count == g.relationship_count
        assert g2.find_node("Method", NAME="run")["PP"] == [0, 1]

    def test_indexes_preserved(self):
        g2 = graph_from_dict(graph_to_dict(sample_graph()))
        assert g2.indexes.has_index("Method", "NAME")

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(sample_graph(), path)
        g2 = load_graph(path)
        assert g2.node_count == 2

    def test_gzip_round_trip(self, tmp_path):
        path = str(tmp_path / "g.json.gz")
        save_graph(sample_graph(), path)
        g2 = load_graph(path)
        assert g2.relationship_count == 1

    def test_missing_file(self):
        with pytest.raises(StorageError):
            load_graph("/no/such/graph.json")

    def test_bad_version(self):
        with pytest.raises(StorageError):
            graph_from_dict({"format_version": 99, "nodes": [], "relationships": []})

    def test_malformed_document(self):
        with pytest.raises(StorageError):
            graph_from_dict({"format_version": 1, "nodes": [{"id": 0}], "relationships": []})

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StorageError):
            load_graph(str(path))

    @pytest.mark.parametrize("reader", [load_graph, open_graph])
    @pytest.mark.parametrize("format", ["json", "v3"])
    def test_gzip_file_decompressed_once(self, tmp_path, monkeypatch, reader, format):
        """Each reader reads and unpeels a gzip file once, then
        dispatches on the payload."""
        import gzip

        g = sample_graph()
        path = tmp_path / "g.gz"
        save_graph(g, str(tmp_path / "g"), format=format)
        path.write_bytes(gzip.compress((tmp_path / "g").read_bytes()))
        calls = []
        decompress = gzip.decompress

        def counting(data):
            calls.append(len(data))
            return decompress(data)

        monkeypatch.setattr(gzip, "decompress", counting)
        loaded = reader(str(path))
        assert len(calls) == 1
        assert loaded.node_count == g.node_count


class TestGzipInflateBound:
    """A gzip file is checked on its first 64 KiB of inflated data
    before the rest is inflated."""

    @staticmethod
    def write_gzip(path, chunks):
        import gzip

        with gzip.GzipFile(str(path), "wb", compresslevel=9) as fh:
            for chunk in chunks:
                fh.write(chunk)

    @pytest.mark.parametrize("reader", [load_graph, open_graph])
    def test_zeros_fail_within_a_small_memory_budget(self, tmp_path, reader):
        """64 MiB of zeros compress to ~65 KB; refusing them must not
        inflate them."""
        import tracemalloc

        path = tmp_path / "zeros.json.gz"
        self.write_gzip(path, (bytes(1 << 20) for _ in range(64)))
        assert path.stat().st_size < 100_000
        tracemalloc.start()
        try:
            with pytest.raises(StorageError, match="neither a v3 snapshot nor a JSON"):
                reader(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("reader", [load_graph, open_graph])
    def test_truncated_and_corrupt_streams_keep_gzip_messages(self, tmp_path, reader):
        import gzip

        path = tmp_path / "g.json.gz"
        save_graph(sample_graph(), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StorageError, match="end-of-stream marker"):
            reader(str(path))
        # a flipped deflate byte: zlib's error, or gzip's CRC check
        body = bytearray(raw)
        body[len(body) // 2] ^= 0xFF
        path.write_bytes(bytes(body))
        with pytest.raises(StorageError) as info:
            reader(str(path))
        with pytest.raises(Exception) as expected:
            gzip.decompress(bytes(body))
        assert str(expected.value) in str(info.value)

    def test_gzip_wrapped_retired_format_fails_at_its_header(self, tmp_path):
        import struct

        from repro.graphdb.snapshot_v3 import SNAPSHOT_MAGIC

        path = tmp_path / "old.cpg.gz"
        header = struct.pack("<8sHHI", SNAPSHOT_MAGIC, 2, 0, 5)
        self.write_gzip(path, [header] + [bytes(1 << 20)] * 16)
        with pytest.raises(StorageError, match="unsupported snapshot format version 2"):
            load_graph(str(path))


class TestBulkLoaderEquivalence:
    """graph_from_dict (trusted bulk path) vs the legacy validated
    loader: structurally identical graphs, including after deletions
    force an id remap."""

    def test_sample_graph(self):
        doc = graph_to_dict(sample_graph())
        assert graph_fingerprint(graph_from_dict(doc)) == graph_fingerprint(
            _graph_from_dict_checked(doc)
        )

    def test_graph_with_deletions_remaps_identically(self):
        g = sample_graph()
        extra = g.create_node(["Class"], {"NAME": "Gone"})
        keep = g.create_node(["Method"], {"NAME": "keep"})
        g.create_relationship("HAS", extra, keep)
        g.delete_node(extra, detach=True)
        doc = graph_to_dict(g)
        bulk = graph_from_dict(doc)
        legacy = _graph_from_dict_checked(doc)
        assert graph_fingerprint(bulk) == graph_fingerprint(legacy)
        # the remap is dense, unlike the pre-save graph
        assert sorted(n.id for n in bulk.nodes()) == list(range(bulk.node_count))

    def test_columnar_loader_matches_row_loader(self):
        """The v3 decode path (_bulk_load_columns) and the v1 path
        (_bulk_load) must produce interchangeable graphs."""
        from repro.graphdb.snapshot_v3 import decode_snapshot_v3, encode_snapshot_v3

        g = sample_graph()
        via_columns = decode_snapshot_v3(encode_snapshot_v3(g))
        via_rows = graph_from_dict(graph_to_dict(g))
        assert graph_fingerprint(via_columns) == graph_fingerprint(via_rows)
        assert graph_fingerprint(via_columns) == graph_fingerprint(g)

    def test_columnar_loader_requires_empty_graph(self):
        from repro.errors import GraphError
        from repro.graphdb.graph import _bulk_load_columns

        with pytest.raises(GraphError):
            _bulk_load_columns(sample_graph(), [], [], [], [], [], [], [], [])

    def test_malformed_documents_still_raise_storage_error(self):
        for doc in (
            {"format_version": 1, "nodes": [{"id": 0}], "relationships": []},
            {"format_version": 1, "nodes": []},
            {"format_version": 1, "nodes": [], "relationships": [{"id": 0}]},
            {
                "format_version": 1,
                "nodes": [],
                "relationships": [
                    {"id": 0, "type": "E", "start": 7, "end": 7},
                ],
            },
        ):
            with pytest.raises(StorageError):
                graph_from_dict(doc)


_props = st.dictionaries(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True),
    st.one_of(
        st.integers(min_value=-1000, max_value=1000),
        st.text(max_size=8),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False),
        st.lists(st.integers(min_value=0, max_value=9), max_size=4),
        st.lists(st.text(max_size=5), max_size=3),
        # mixed lists and nested maps take the tagged fallback encoding
        st.lists(
            st.one_of(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
            max_size=4,
        ),
        st.dictionaries(
            st.from_regex(r"[a-z]{1,4}", fullmatch=True),
            st.text(max_size=5),
            max_size=3,
        ),
    ),
    max_size=4,
)


@settings(max_examples=30, deadline=None)
@given(
    node_specs=st.lists(
        st.tuples(st.sampled_from(["A", "B", "C"]), _props), min_size=1, max_size=8
    ),
    edge_seed=st.data(),
)
def test_property_arbitrary_graph_round_trips(node_specs, edge_seed):
    """Any graph built from random nodes/edges survives serialisation:
    same node/rel counts, same labels, same property maps."""
    g = PropertyGraph()
    nodes = [g.create_node([label], props) for label, props in node_specs]
    n_edges = edge_seed.draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_edges):
        a = edge_seed.draw(st.sampled_from(nodes))
        b = edge_seed.draw(st.sampled_from(nodes))
        g.create_relationship("E", a, b)
    g2 = graph_from_dict(graph_to_dict(g))
    assert g2.node_count == g.node_count
    assert g2.relationship_count == g.relationship_count
    assert g2.label_counts() == g.label_counts()
    def snapshot(graph):
        return sorted(
            (
                (sorted(n.labels), sorted(n.properties.items(), key=repr))
                for n in graph.nodes()
            ),
            key=repr,
        )

    assert snapshot(g) == snapshot(g2)


_multi_labels = st.sets(st.sampled_from(["A", "B", "C", "Method"]), min_size=1,
                        max_size=3)
_rel_types = st.sampled_from(["CALL", "ALIAS", "HAS"])


@pytest.mark.parametrize("format", ["json", "v3"])
@settings(max_examples=25, deadline=None)
@given(
    node_specs=st.lists(st.tuples(_multi_labels, _props), min_size=1, max_size=8),
    index_keys=st.sets(
        st.tuples(st.sampled_from(["A", "Method"]),
                  st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)),
        max_size=2,
    ),
    edge_seed=st.data(),
)
def test_both_formats_round_trip_full_state(format, tmp_path_factory, node_specs,
                                            index_keys, edge_seed):
    """save -> load is fingerprint-identical for random graphs under
    both formats: labels x property shapes x declared indexes, plus
    adjacency buckets and relationship-type counts."""
    g = PropertyGraph()
    for label, key in sorted(index_keys):
        g.indexes.create_index(label, key)
    nodes = [g.create_node(labels, props) for labels, props in node_specs]
    n_edges = edge_seed.draw(st.integers(min_value=0, max_value=8))
    for _ in range(n_edges):
        a = edge_seed.draw(st.sampled_from(nodes))
        b = edge_seed.draw(st.sampled_from(nodes))
        rel_type = edge_seed.draw(_rel_types)
        props = edge_seed.draw(_props)
        g.create_relationship(rel_type, a, b, props)
    path = str(tmp_path_factory.mktemp("rt") / "g.snapshot")
    save_graph(g, path, format=format)
    assert graph_fingerprint(load_graph(path)) == graph_fingerprint(g)
