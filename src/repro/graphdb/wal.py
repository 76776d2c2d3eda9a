"""Write-ahead log for the MVCC graph core.

Every committed write transaction is journalled *before* it becomes
the published version: a crash at any point loses at most the
uncommitted transaction, never a committed one, and ``replay()``
recovers the graph to the last durable commit.

On-disk layout (checksummed records — CRC32 over the payload,
little-endian fixed-width frame):

``header``
    ``TABBYWAL`` magic + ``<H`` format version + ``<H`` reserved.

``record``
    ``<BIQ`` (kind, crc32(payload), payload length) followed by the
    payload, a compact UTF-8 JSON document.

Two record kinds:

* ``BASE`` (always first) — points at a v3 snapshot file holding the
  compaction base, plus everything a dense v3 snapshot cannot carry:
  the real (possibly sparse) node/relationship ids, the id counters,
  the declared relationship-property presence indexes, and a
  fingerprint digest of the base graph for end-to-end verification.
* ``TXN`` — one committed transaction: its version number and the
  ordered list of mutation ops (see :func:`apply_ops`).

Corruption semantics match the snapshot codecs: a *torn tail* (short
frame, short payload, or a bad CRC on the final record — all
indistinguishable from a crash mid-append) recovers cleanly to the
last good record and truncates; a corrupt record *followed by intact
data* cannot be a torn write and raises a structured
:class:`~repro.errors.StorageError`.

Compaction (:meth:`WriteAheadLog.compact`) folds the journal into a
fresh v3 base snapshot plus a truncated log, using write-to-temp +
``os.replace`` so a crash mid-compaction leaves either the old or the
new base/log pair, never a blend.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Tuple

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.snapshot import fingerprint_digest
from repro.graphdb.storage import load_graph, save_graph

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "WriteAheadLog",
    "ReplayResult",
    "apply_ops",
]

WAL_MAGIC = b"TABBYWAL"
WAL_VERSION = 1

_HEADER = struct.Struct("<8sHH")  # magic, format version, reserved
_FRAME = struct.Struct("<BIQ")  # kind, crc32(payload), payload length

_KIND_BASE = 1
_KIND_TXN = 2

#: refuse absurd frames outright instead of attempting a 2**63-byte read
_MAX_PAYLOAD = 1 << 40


# ---------------------------------------------------------------------------
# mutation ops
# ---------------------------------------------------------------------------
#
# One op is one public-mutator call, encoded as a JSON array whose head
# names the mutator.  Ids are recorded so replay can *assert* that the
# deterministic id assignment reproduced them — any drift means the
# journal and the graph diverged and recovery must not continue.


def apply_ops(graph: PropertyGraph, ops: Iterable[Sequence[Any]]) -> None:
    """Replay journalled mutation ops through the public mutators.

    Raises :class:`StorageError` on an unknown op kind or when a
    created entity comes back with an id other than the recorded one
    (the journal is only valid against the exact base it was written
    over).
    """
    for op in ops:
        kind = op[0]
        if kind == "n+":
            _, node_id, labels, props = op
            if graph._next_node_id != node_id:
                raise StorageError(
                    f"WAL replay id drift: expected node {node_id}, "
                    f"graph would assign {graph._next_node_id}"
                )
            graph.create_node(labels, props or None)
        elif kind == "r+":
            _, rel_id, rel_type, start, end, props = op
            if graph._next_rel_id != rel_id:
                raise StorageError(
                    f"WAL replay id drift: expected relationship {rel_id}, "
                    f"graph would assign {graph._next_rel_id}"
                )
            graph.create_relationship(rel_type, start, end, props or None)
        elif kind == "r-":
            graph.delete_relationship(op[1])
        elif kind == "n-":
            graph.delete_node(op[1])
        elif kind == "np":
            _, node_id, key, value = op
            graph.set_node_property(node_id, key, value)
        elif kind == "rp":
            _, rel_id, key, value = op
            graph.set_relationship_property(rel_id, key, value)
        elif kind == "ix":
            graph.create_index(op[1], op[2])
        elif kind == "rix":
            graph.create_relationship_index(op[1])
        else:
            raise StorageError(f"WAL replay: unknown op kind {kind!r}")


def _remap_graph_ids(
    graph: PropertyGraph,
    node_ids: Sequence[int],
    rel_ids: Sequence[int],
) -> None:
    """Restore the real (sparse) ids over a densely-loaded snapshot.

    v3 snapshots renumber entities densely in id order; a live graph
    that has seen deletions has holes.  The BASE record stores the real
    ids in dense position order, and this helper rewrites every id-
    bearing structure in place — sound because the graph was loaded
    moments ago and shares nothing.
    """
    node_map = dict(enumerate(node_ids))
    rel_map = dict(enumerate(rel_ids))
    if len(node_map) != len(graph._nodes) or len(rel_map) != len(graph._rels):
        raise StorageError(
            "WAL base id lists do not match the base snapshot "
            f"({len(node_map)}/{len(graph._nodes)} nodes, "
            f"{len(rel_map)}/{len(graph._rels)} relationships)"
        )
    for dense, node in graph._nodes.items():
        node.id = node_map[dense]
    for dense, rel in graph._rels.items():
        rel.id = rel_map[dense]
        rel.start_id = node_map[rel.start_id]
        rel.end_id = node_map[rel.end_id]
    graph._nodes = {node.id: node for node in graph._nodes.values()}
    graph._rels = {rel.id: rel for rel in graph._rels.values()}
    graph._out = {
        node_map[nid]: [rel_map[r] for r in ids] for nid, ids in graph._out.items()
    }
    graph._in = {
        node_map[nid]: [rel_map[r] for r in ids] for nid, ids in graph._in.items()
    }
    graph._out_by_type = {
        node_map[nid]: {t: [rel_map[r] for r in b] for t, b in buckets.items()}
        for nid, buckets in graph._out_by_type.items()
    }
    graph._in_by_type = {
        node_map[nid]: {t: [rel_map[r] for r in b] for t, b in buckets.items()}
        for nid, buckets in graph._in_by_type.items()
    }
    graph._rel_prop_indexes = {
        key: {rel_map[r] for r in ids}
        for key, ids in graph._rel_prop_indexes.items()
    }
    indexes = graph.indexes
    indexes._by_label = {
        label: {node_map[n] for n in ids}
        for label, ids in indexes._by_label.items()
    }
    indexes._property_indexes = {
        pair: {value: {node_map[n] for n in ids} for value, ids in table.items()}
        for pair, table in indexes._property_indexes.items()
    }


# ---------------------------------------------------------------------------
# the log
# ---------------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of :meth:`WriteAheadLog.replay`."""

    graph: PropertyGraph
    version: int
    txns_applied: int = 0
    #: bytes of torn tail discarded (0 = the log ended cleanly)
    truncated_bytes: int = 0


class WriteAheadLog:
    """A CRC-framed append-only journal of graph mutations.

    Use :meth:`create` for a fresh log (writes the base snapshot and
    the BASE record) and :meth:`attach` to adopt an existing one; the
    plain constructor does not touch the filesystem.
    """

    def __init__(self, path: str, *, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync

    # -- construction ---------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        graph: PropertyGraph,
        version: int = 0,
        *,
        fsync: bool = True,
    ) -> "WriteAheadLog":
        """Start a fresh log whose base is ``graph`` at ``version``."""
        wal = cls(path, fsync=fsync)
        wal.compact(graph, version)
        return wal

    @classmethod
    def attach(cls, path: str, *, fsync: bool = True) -> "WriteAheadLog":
        if not os.path.exists(path):
            raise StorageError(f"write-ahead log not found: {path}")
        return cls(path, fsync=fsync)

    # -- framing --------------------------------------------------------

    @staticmethod
    def _frame(kind: int, payload: bytes) -> bytes:
        return _FRAME.pack(kind, zlib.crc32(payload), len(payload)) + payload

    def _base_name(self, version: int) -> str:
        return f"{os.path.basename(self.path)}.base.{version}"

    def _sync(self, fh) -> None:
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    # -- appending ------------------------------------------------------

    def append_txn(self, version: int, ops: Sequence[Sequence[Any]]) -> None:
        """Journal one committed transaction, durably (write + fsync)
        before the caller publishes the new version."""
        payload = json.dumps(
            {"version": version, "ops": [list(op) for op in ops]},
            separators=(",", ":"),
        ).encode("utf-8")
        try:
            with open(self.path, "ab") as fh:
                fh.write(self._frame(_KIND_TXN, payload))
                self._sync(fh)
        except OSError as exc:
            raise StorageError(f"cannot append to WAL {self.path}: {exc}") from exc

    # -- compaction -----------------------------------------------------

    def compact(self, graph: PropertyGraph, version: int) -> None:
        """Fold the journal into a fresh v3 base + truncated log.

        Crash-safe by ordering: the new base snapshot lands first
        (under a version-suffixed name, so the old base stays intact),
        then the new log replaces the old one atomically, then stale
        bases are garbage-collected.  A crash between any two steps
        leaves a fully consistent old or new state.
        """
        node_ids = list(graph._nodes)
        rel_ids = list(graph._rels)
        dense = (
            node_ids == list(range(len(node_ids)))
            and graph._next_node_id == len(node_ids)
            and rel_ids == list(range(len(rel_ids)))
            and graph._next_rel_id == len(rel_ids)
        )
        base_name = self._base_name(version)
        base_path = os.path.join(os.path.dirname(self.path) or ".", base_name)
        try:
            save_graph(graph, base_path + ".tmp", format="v3")
            os.replace(base_path + ".tmp", base_path)
        except OSError as exc:
            raise StorageError(
                f"cannot write WAL base snapshot {base_path}: {exc}"
            ) from exc
        payload = json.dumps(
            {
                "base": base_name,
                "version": version,
                "digest": fingerprint_digest(graph),
                "next_node_id": graph._next_node_id,
                "next_rel_id": graph._next_rel_id,
                "node_ids": None if dense else node_ids,
                "rel_ids": None if dense else rel_ids,
                "rel_prop_indexes": list(graph._rel_prop_indexes),
            },
            separators=(",", ":"),
        ).encode("utf-8")
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(_HEADER.pack(WAL_MAGIC, WAL_VERSION, 0))
                fh.write(self._frame(_KIND_BASE, payload))
                self._sync(fh)
            os.replace(tmp, self.path)
        except OSError as exc:
            raise StorageError(f"cannot compact WAL {self.path}: {exc}") from exc
        self._collect_stale_bases(keep=base_name)

    def _collect_stale_bases(self, keep: str) -> None:
        directory = os.path.dirname(self.path) or "."
        prefix = os.path.basename(self.path) + ".base."
        try:
            for name in os.listdir(directory):
                if name.startswith(prefix) and name != keep:
                    os.unlink(os.path.join(directory, name))
        except OSError:
            pass  # stale bases are harmless; never fail a commit over GC

    # -- replay ---------------------------------------------------------

    def _read_records(self) -> Tuple[List[Tuple[int, bytes]], int, int]:
        """Parse the log into (kind, payload) records.

        Returns ``(records, good_end, total_size)`` where ``good_end``
        is the offset just past the last intact record.  Torn tails
        stop the scan; mid-log corruption raises.
        """
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise StorageError(f"cannot read WAL {self.path}: {exc}") from exc
        if len(data) < _HEADER.size:
            raise StorageError(f"WAL {self.path}: truncated header")
        magic, fmt, _reserved = _HEADER.unpack_from(data, 0)
        if magic != WAL_MAGIC:
            raise StorageError(f"WAL {self.path}: bad magic {magic!r}")
        if fmt != WAL_VERSION:
            raise StorageError(f"WAL {self.path}: unsupported format {fmt}")
        records: List[Tuple[int, bytes]] = []
        pos = _HEADER.size
        size = len(data)
        while pos < size:
            if pos + _FRAME.size > size:
                break  # torn frame at EOF
            kind, crc, length = _FRAME.unpack_from(data, pos)
            body_start = pos + _FRAME.size
            if length > _MAX_PAYLOAD:
                raise StorageError(
                    f"WAL {self.path}: record at offset {pos} declares an "
                    f"implausible {length}-byte payload"
                )
            if body_start + length > size:
                break  # torn payload at EOF
            payload = data[body_start : body_start + length]
            if zlib.crc32(payload) != crc:
                if body_start + length == size:
                    break  # bad CRC on the final record == torn write
                raise StorageError(
                    f"WAL {self.path}: CRC mismatch at offset {pos} with "
                    "intact data after it — mid-log corruption, not a torn "
                    "write; refusing to recover past it"
                )
            records.append((kind, payload))
            pos = body_start + length
        return records, pos, size

    def replay(self, *, recover: bool = True) -> ReplayResult:
        """Rebuild the graph state of the last durable commit.

        With ``recover=True`` (the default) a torn tail is truncated
        away so subsequent appends start from the last good record.
        """
        records, good_end, size = self._read_records()
        if not records or records[0][0] != _KIND_BASE:
            raise StorageError(f"WAL {self.path}: missing BASE record")
        try:
            base = json.loads(records[0][1].decode("utf-8"))
            base_name = base["base"]
            version = base["version"]
        except (ValueError, KeyError) as exc:
            raise StorageError(
                f"WAL {self.path}: malformed BASE record: {exc}"
            ) from exc
        base_path = os.path.join(os.path.dirname(self.path) or ".", base_name)
        graph = load_graph(base_path)
        if base.get("node_ids") is not None:
            _remap_graph_ids(graph, base["node_ids"], base["rel_ids"])
        graph._next_node_id = base["next_node_id"]
        graph._next_rel_id = base["next_rel_id"]
        for key in base.get("rel_prop_indexes", ()):
            graph.create_relationship_index(key)
        digest = base.get("digest")
        if digest is not None and fingerprint_digest(graph) != digest:
            raise StorageError(
                f"WAL {self.path}: base snapshot fingerprint mismatch — "
                "the base file does not match the BASE record"
            )
        txns = 0
        for kind, raw in records[1:]:
            if kind == _KIND_BASE:
                raise StorageError(
                    f"WAL {self.path}: unexpected second BASE record"
                )
            if kind != _KIND_TXN:
                raise StorageError(f"WAL {self.path}: unknown record kind {kind}")
            try:
                txn = json.loads(raw.decode("utf-8"))
                txn_version = txn["version"]
                ops = txn["ops"]
            except (ValueError, KeyError) as exc:
                raise StorageError(
                    f"WAL {self.path}: malformed TXN record: {exc}"
                ) from exc
            if txn_version != version + 1:
                raise StorageError(
                    f"WAL {self.path}: TXN version {txn_version} does not "
                    f"follow {version}"
                )
            apply_ops(graph, ops)
            version = txn_version
            txns += 1
        truncated = size - good_end
        if truncated and recover:
            try:
                with open(self.path, "r+b") as fh:
                    fh.truncate(good_end)
                    self._sync(fh)
            except OSError as exc:
                raise StorageError(
                    f"cannot truncate torn WAL tail in {self.path}: {exc}"
                ) from exc
        return ReplayResult(
            graph=graph,
            version=version,
            txns_applied=txns,
            truncated_bytes=truncated,
        )
