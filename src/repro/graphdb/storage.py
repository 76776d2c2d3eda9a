"""Persistence for property graphs.

Two on-disk formats, one per purpose, one read path:

* **v3** — the page-structured zero-copy snapshot of
  :mod:`repro.graphdb.snapshot_v3`: fixed-width little-endian columns,
  precomputed CSR adjacency and a column directory, laid out so a
  reader can ``mmap`` the file and walk it in place.  The default for
  new saves; :func:`open_graph` opens it without decoding.
* **v1 (json)** — a gzip/plain JSON document with ``nodes``,
  ``relationships`` and ``indexes`` sections: the readable interchange.
  Byte-stable: the JSON emitted today diffs cleanly against snapshots
  written by any earlier build, which is why ``--format json`` remains
  available.

:func:`load_graph` and :func:`open_graph` detect the format from
content (gzip wrapping included), so callers never pass a format on
read.  A ``TABBYCPG`` header of any version but 3 — the retired v2
columnar snapshot, or a file from a newer build — is rejected from its
header alone with a :class:`StorageError` that names the remedy.  This
is the analogue of a Neo4j database directory: Tabby builds the CPG
once, persists it, and researchers re-query it across sessions (paper
§IV-F — the re-queryability advantage over
GadgetInspector/Serianalyzer).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
import sys
import zlib
from typing import Any, Dict, Optional, Union

from repro.errors import StorageError
from repro.graphdb.arraygraph import ArrayGraph
from repro.graphdb.graph import PropertyGraph, _bulk_load
from repro.graphdb.snapshot_v3 import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION_V3,
    decode_snapshot_v3,
    encode_snapshot_v3,
    open_snapshot,
    unsupported_version,
    view_snapshot,
)

__all__ = [
    "save_graph",
    "load_graph",
    "open_graph",
    "graph_to_dict",
    "graph_from_dict",
]

_FORMAT_VERSION = 1
_GZIP_MAGIC = b"\x1f\x8b"
#: inflated bytes a gzip file's format is checked on before the rest
#: of it is inflated
_PROBE_BYTES = 64 * 1024

#: suffixes that keep emitting v1 JSON under the default "auto" format,
#: so existing pipelines that name their snapshots *.json(.gz) stay
#: byte-compatible
_JSON_SUFFIXES = (".json", ".json.gz")


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    """Serialise a graph to a JSON-compatible dict (the v1 document)."""
    return {
        "format_version": _FORMAT_VERSION,
        "nodes": [
            {"id": n.id, "labels": sorted(n.labels), "properties": n.properties}
            for n in graph.nodes()
        ],
        "relationships": [
            {
                "id": r.id,
                "type": r.type,
                "start": r.start_id,
                "end": r.end_id,
                "properties": r.properties,
            }
            for r in graph.relationships()
        ],
        "indexes": [list(ix) for ix in graph.indexes.indexes()],
    }


def graph_from_dict(data: Dict[str, Any]) -> PropertyGraph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    Node/relationship ids are remapped densely, preserving order.  The
    document is fed through the same trusted bulk loader as the binary
    format: property values are installed without re-validation (the
    writer only emits values that passed validation when the graph was
    built), and indexes/adjacency are backfilled in batch rather than
    one ``add_*`` call per entity.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported graph format version: {version!r}")
    intern = sys.intern
    try:
        id_map: Dict[int, int] = {}
        node_rows = []
        for position, spec in enumerate(data["nodes"]):
            id_map[spec["id"]] = position
            props = spec.get("properties")
            node_rows.append(
                (
                    spec["labels"],
                    {intern(k): v for k, v in props.items()} if props else {},
                )
            )
        rel_rows = []
        for spec in data["relationships"]:
            props = spec.get("properties")
            rel_rows.append(
                (
                    intern(spec["type"]),
                    id_map[spec["start"]],
                    id_map[spec["end"]],
                    {intern(k): v for k, v in props.items()} if props else {},
                )
            )
        indexes = [(label, key) for label, key in data.get("indexes", ())]
    except (KeyError, TypeError, AttributeError) as exc:
        raise StorageError(f"malformed graph document: missing {exc}") from exc
    return _bulk_load(PropertyGraph(), indexes, node_rows, rel_rows)


def _resolve_format(path: str, format: Optional[str]) -> str:
    if format in (None, "auto"):
        return "json" if path.endswith(_JSON_SUFFIXES) else "v3"
    if format in ("json", "v3"):
        return format
    raise StorageError(
        f"unknown snapshot format {format!r} (expected 'json', 'v3' or 'auto')"
    )


def _is_v3_header(head: bytes) -> bool:
    """True when ``head`` starts a v3 snapshot, False when it is not a
    snapshot at all (v1 JSON, or too short to tell); raises
    :class:`StorageError` for a snapshot header of any other version,
    before a byte after the header is read or inflated."""
    if head[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        return False
    if len(head) < 10:
        return True  # the v3 decoder reports the truncated header
    version = struct.unpack_from("<H", head, 8)[0]
    if version != SNAPSHOT_VERSION_V3:
        raise unsupported_version(version)
    return True


def save_graph(graph: PropertyGraph, path: str, format: Optional[str] = None) -> None:
    """Write a graph to ``path``.

    ``format`` is ``"json"`` (the byte-stable v1 document; a ``.gz``
    suffix enables gzip), ``"v3"`` (the mmap-able zero-copy layout), or
    ``"auto"``/``None``: v3 unless the path ends in ``.json``/
    ``.json.gz``.  :func:`load_graph` reads either format regardless of
    the file name.
    """
    resolved = _resolve_format(path, format)
    try:
        if resolved == "v3":
            with open(path, "wb") as fh:
                fh.write(encode_snapshot_v3(graph))
            return
        data = graph_to_dict(graph)
        if path.endswith(".gz"):
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                json.dump(data, fh)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
    except OSError as exc:
        raise StorageError(f"cannot write graph to {path}: {exc}") from exc


def _open(path: str):
    if not os.path.exists(path):
        raise StorageError(f"graph file not found: {path}")
    try:
        return open(path, "rb")
    except OSError as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc


def _read(path: str, fh, size: int = -1) -> bytes:
    try:
        return fh.read(size)
    except OSError as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc


def _unpeel(path: str, raw: bytes) -> bytes:
    """``raw`` with its gzip wrapping, if any, decompressed.

    The first 64 KiB are inflated alone first, and the file is refused
    unless they begin a v3 snapshot (of a supported version) or a JSON
    object: a small file of compressed filler costs bounded memory,
    not its inflated size.  Corrupt and truncated streams still fail
    with gzip's own message."""
    if raw[:2] == _GZIP_MAGIC:
        try:
            head = zlib.decompressobj(16 + zlib.MAX_WBITS).decompress(
                raw, _PROBE_BYTES
            )
        except zlib.error:
            head = b""  # gzip.decompress below reports the corruption
        if (
            head
            and not _is_v3_header(head[:10])
            and not head.lstrip(b" \t\r\n").startswith(b"{")
        ):
            raise StorageError(
                f"cannot read graph from {path}: the inflated data begins "
                "neither a v3 snapshot nor a JSON document"
            )
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise StorageError(f"cannot read graph from {path}: {exc}") from exc
    if not raw:
        raise StorageError(f"cannot read graph from {path}: file is empty")
    return raw


def _load_json(path: str, raw: bytes) -> PropertyGraph:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc
    return graph_from_dict(data)


def load_graph(path: str) -> PropertyGraph:
    """Read a graph previously written by :func:`save_graph` into a
    mutable :class:`PropertyGraph`.

    The format is detected from content, not the file name: gzip
    wrapping is unpeeled first, then the payload is dispatched on the
    snapshot magic plus version (v3), falling back to the v1 JSON
    document.  For the zero-copy open of a v3 file — no
    materialisation — use :func:`open_graph`.
    """
    with _open(path) as fh:
        raw = _unpeel(path, _read(path, fh))
    if _is_v3_header(raw[:10]):
        return decode_snapshot_v3(raw)
    return _load_json(path, raw)


def open_graph(path: str) -> Union[ArrayGraph, PropertyGraph]:
    """Open a snapshot for reading, zero-copy when the format allows.

    A v3 file comes back as a read-only mmap-backed
    :class:`~repro.graphdb.arraygraph.ArrayGraph` — O(header) open, one
    physical copy shared by every process that opens the same path.
    Anything else is read once: a gzip-wrapped v3 payload becomes an
    in-memory ``ArrayGraph`` view (still lazily decoded), and a v1
    document decodes into a ``PropertyGraph``.  Call ``.materialize()``
    on the view when a mutable graph is needed.
    """
    with _open(path) as fh:
        head = _read(path, fh, 10)
        if not _is_v3_header(head):
            raw = _unpeel(path, head + _read(path, fh))
            if _is_v3_header(raw[:10]):
                return view_snapshot(raw)
            return _load_json(path, raw)
    return open_snapshot(path)
