"""Unit tests for the binary snapshot codec (format v3): value round
trips, string and labelset interning, header errors, and format
auto-detection on read.  File-level corruption, the mmap'd view and
cross-process sharing are covered in ``test_snapshot_v3.py``."""

import gzip
import json
import struct
import sys

import pytest

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.snapshot import graph_fingerprint
from repro.graphdb.snapshot_v3 import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION_V3,
    decode_snapshot_v3,
    encode_snapshot_v3,
)
from repro.graphdb.storage import load_graph, save_graph


def rich_graph():
    g = PropertyGraph()
    g.indexes.create_index("Method", "NAME")
    g.indexes.create_index("Method", "IS_SINK")
    a = g.create_node(["Class"], {"NAME": "A", "INTERFACES": ["I", "J"]})
    m = g.create_node(
        ["Method"],
        {
            "NAME": "run",
            "PP": [0, 1],
            "IS_SINK": True,
            "RATIO": 1.5,
            "NOTE": None,
            "BIG": 1 << 70,
            "NEG": -12345,
            "META": {"depth": 3, "tags": ["x", "y"]},
        },
    )
    extra = g.create_node(["Method", "Phantom"], {"NAME": "exec"})
    g.create_relationship("HAS", a, m, {"weight": 2})
    g.create_relationship("CALL", m, extra, {"POLLUTED_POSITION": [0, -1]})
    g.create_relationship("CALL", extra, m, {})
    return g


class TestRoundTrip:
    def test_fingerprint_identical(self):
        g = rich_graph()
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        assert graph_fingerprint(g2) == graph_fingerprint(g)

    def test_empty_graph(self):
        g2 = decode_snapshot_v3(encode_snapshot_v3(PropertyGraph()))
        assert g2.node_count == 0
        assert g2.relationship_count == 0

    def test_property_values_survive(self):
        g2 = decode_snapshot_v3(encode_snapshot_v3(rich_graph()))
        m = g2.find_node("Method", NAME="run")
        assert m["PP"] == [0, 1]
        assert m["BIG"] == 1 << 70
        assert m["NEG"] == -12345
        assert m["RATIO"] == 1.5
        assert m["NOTE"] is None
        assert m["META"] == {"depth": 3, "tags": ["x", "y"]}

    def test_special_floats(self):
        g = PropertyGraph()
        g.create_node(["N"], {"INF": float("inf"), "NINF": float("-inf")})
        n = decode_snapshot_v3(encode_snapshot_v3(g)).node(0)
        assert n["INF"] == float("inf")
        assert n["NINF"] == float("-inf")

    def test_unicode_strings(self):
        g = PropertyGraph()
        g.create_node(["Ünïcode"], {"NAME": "日本語 – ärger ✓"})
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        assert g2.node(0)["NAME"] == "日本語 – ärger ✓"
        assert g2.node(0).has_label("Ünïcode")

    def test_indexes_and_adjacency_restored(self):
        g = rich_graph()
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        assert g2.indexes.indexes() == g.indexes.indexes()
        assert g2.indexes.lookup("Method", "NAME", "run") == {1}
        assert [r.id for r in g2.out_relationships(1, "CALL")] == [1]
        assert g2.relationship_type_counts() == {"HAS": 1, "CALL": 2}

    def test_ids_renumbered_densely_like_v1(self):
        g = rich_graph()
        victim = g.create_node(["Class"], {"NAME": "Gone"})
        g.delete_node(victim)
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        assert sorted(n.id for n in g2.nodes()) == [0, 1, 2]
        assert g2._next_node_id == 3


class TestInterning:
    def test_labelsets_pooled_on_load(self):
        g = PropertyGraph()
        for i in range(4):
            g.create_node(["Method", "Phantom"], {"NAME": f"m{i}"})
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        labelsets = {id(n.labels) for n in g2.nodes()}
        assert len(labelsets) == 1

    def test_string_values_deduplicated_on_load(self):
        g = PropertyGraph()
        for i in range(4):
            g.create_node(["Method"], {"CLASSNAME": "com.example.Widget"})
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        objects = {id(n.properties["CLASSNAME"]) for n in g2.nodes()}
        assert len(objects) == 1

    def test_property_keys_interned_on_load(self):
        g = PropertyGraph()
        g.create_node(["Method"], {"SIGNATURE": "x"})
        g2 = decode_snapshot_v3(encode_snapshot_v3(g))
        (key,) = g2.node(0).properties
        assert key is sys.intern("SIGNATURE")


class TestCorruption:
    def test_truncated_header(self):
        with pytest.raises(StorageError, match="truncated"):
            decode_snapshot_v3(SNAPSHOT_MAGIC[:4])

    def test_bad_magic(self):
        data = bytearray(encode_snapshot_v3(rich_graph()))
        data[:8] = b"NOTACPG!"
        with pytest.raises(StorageError, match="magic"):
            decode_snapshot_v3(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode_snapshot_v3(rich_graph()))
        for version in (2, SNAPSHOT_VERSION_V3 + 1):
            struct.pack_into("<H", data, 8, version)
            with pytest.raises(
                StorageError, match=f"version {version}.*tabby analyze"
            ):
                decode_snapshot_v3(bytes(data))

    def test_truncated_body(self):
        data = encode_snapshot_v3(rich_graph())
        with pytest.raises(StorageError, match="truncated"):
            decode_snapshot_v3(data[: len(data) - 7])

    def test_truncated_file_raises_storage_error(self, tmp_path):
        path = tmp_path / "g.cpg"
        save_graph(rich_graph(), str(path), format="v3")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(StorageError):
            load_graph(str(path))


class TestAutoDetect:
    @pytest.mark.parametrize(
        "name,format",
        [
            ("g.cpg", None),          # auto -> v3
            ("g.cpg", "v3"),
            ("g.json", None),         # auto -> v1 json
            ("g.json.gz", None),      # auto -> gzip v1 json
            ("g.weird", "json"),      # explicit json under a binary-ish name
            ("g.json", "v3"),         # explicit v3 under a json name
        ],
    )
    def test_load_graph_detects_content(self, tmp_path, name, format):
        g = rich_graph()
        path = str(tmp_path / name)
        save_graph(g, path, format=format)
        assert graph_fingerprint(load_graph(path)) == graph_fingerprint(g)

    def test_gzipped_binary_snapshot_loads(self, tmp_path):
        g = rich_graph()
        path = tmp_path / "g.cpg.gz"
        path.write_bytes(gzip.compress(encode_snapshot_v3(g)))
        assert graph_fingerprint(load_graph(str(path))) == graph_fingerprint(g)

    def test_json_format_is_byte_stable_v1(self, tmp_path):
        path = str(tmp_path / "g.json")
        save_graph(rich_graph(), path, format="json")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["format_version"] == 1
        assert {"nodes", "relationships", "indexes"} <= set(doc)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(StorageError, match="unknown snapshot format"):
            save_graph(rich_graph(), str(tmp_path / "g"), format="msgpack")

    @pytest.mark.parametrize("format", ["binary", "v2"])
    def test_retired_v2_format_rejected_on_save(self, tmp_path, format):
        path = tmp_path / "g.cpg"
        with pytest.raises(StorageError, match="unknown snapshot format"):
            save_graph(rich_graph(), str(path), format=format)
        assert not path.exists()
