"""Page-structured zero-copy graph snapshots (format v3).

The binary snapshot format of :mod:`repro.graphdb.storage`, next to the
v1 JSON text format.  Decoding a dict-of-objects graph on every open
costs O(graph) per process and gives every process a private copy, so
the file is laid out for a reader to ``mmap`` it and walk it in place —

* a fixed-size header (the ``TABBYCPG`` magic, version 3) plus a
  section *table* of ``(tag, offset, length)`` entries, protected by a
  CRC32 so a corrupt or mis-versioned file fails structured validation
  instead of mis-slicing;
* every array section is raw little-endian fixed-width integers at an
  8-byte-aligned offset, viewed directly via ``memoryview.cast`` (a
  byte-swapping ``array`` fallback keeps big-endian hosts correct);
* adjacency is precomputed **CSR**: one flat forward and one flat
  reverse index over all relationships plus one forward/reverse pair
  *per relationship type*, so ``in_relationships(node, "CALL")`` — the
  chain search's hot operation — is two indptr reads and a slice;
* strings live in one UTF-8 blob indexed by an offset array and decode
  lazily per id;
* property maps are stored *columnar by shape*.  A shape is an
  entity's ``(property key, value kind)`` signature; CPG graphs have
  only a handful, so each shape contributes one typed column per key:
  bools, ints (zigzag), string ids, floats, int and string lists
  (lengths plus one flattened column), string-to-string dicts, and a
  tagged varint fallback for anything else (nested maps, mixed lists,
  ints wider than 64 bits).  A random-access *column directory* of
  ``(key, kind, offsets)`` entries lets a column decode on first touch
  of that property and never before;
* node/relationship property membership is two u32 arrays (shape id,
  row within shape), making ``rel.get("POLLUTED_POSITION")`` an array
  read plus a cached column index.

Opening therefore touches the header, the section table, the directory
pages and nothing else — O(header), not O(graph) — and N processes
opening one snapshot share its pages through the OS page cache instead
of holding N decoded heaps.  Integrity model: the header/table CRC and
exact arithmetic length checks on every fixed-layout section run at
open; variable-payload sections (string blob, property data) are
bounds-checked on first touch and surface :class:`StorageError`, never
``struct.error``/``IndexError``.  A ``TABBYCPG`` header of any other
version fails before anything else is read, with an error that says
how to rebuild or convert the file (:func:`unsupported_version`).

``decode_snapshot_v3`` (used by ``load_graph``) materialises through
:meth:`~repro.graphdb.arraygraph.ArrayGraph.materialize`, which funnels
into the trusted columnar bulk loader — a materialised v3 load is
``graph_fingerprint``-identical to the v1 load of the same graph
(asserted in tests and the storage benchmark).
"""

from __future__ import annotations

import mmap
import struct
import sys
import zlib
from array import array
from itertools import accumulate
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.graphdb.arraygraph import Adjacency, ArrayGraph
from repro.graphdb.graph import PropertyGraph

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION_V3",
    "encode_snapshot_v3",
    "decode_snapshot_v3",
    "open_snapshot",
    "view_snapshot",
    "unsupported_version",
]

SNAPSHOT_MAGIC = b"TABBYCPG"
SNAPSHOT_VERSION_V3 = 3

_HEADER = struct.Struct("<8sHHI")  # magic, version, flags, section count

_LITTLE = sys.byteorder == "little"

#: section table entry: tag, reserved, absolute offset, length
_SECTION_V3 = struct.Struct("<IIQQ")
_CRC = struct.Struct("<I")
#: node count, rel count, string count, labelset count, rel-type count,
#: index count
_META = struct.Struct("<QQQQII")
#: per-shape directory header: key count, row count
_DIR_SHAPE = struct.Struct("<II")
#: per-column directory entry: key sid, kind, three data offsets
#: (meaning depends on kind; relative to the PROP_DATA section)
_DIR_ENTRY = struct.Struct("<IIQQQ")

_T_META = 1
_T_STR_OFFS = 2
_T_STR_BLOB = 3
_T_LS_OFFS = 4
_T_LS_MEMBERS = 5
_T_NODE_LS = 6
_T_RELTYPES = 7
_T_REL_TYPEID = 8
_T_REL_START = 9
_T_REL_END = 10
_T_CSR = 11
_T_NODE_SHAPE = 12
_T_NODE_ROW = 13
_T_NODE_PROP_DIR = 14
_T_NODE_PROP_DATA = 15
_T_REL_SHAPE = 16
_T_REL_ROW = 17
_T_REL_PROP_DIR = 18
_T_REL_PROP_DATA = 19
_T_INDEXES = 20

_SECTION_NAMES_V3 = {
    _T_META: "META",
    _T_STR_OFFS: "STR_OFFS",
    _T_STR_BLOB: "STR_BLOB",
    _T_LS_OFFS: "LS_OFFS",
    _T_LS_MEMBERS: "LS_MEMBERS",
    _T_NODE_LS: "NODE_LS",
    _T_RELTYPES: "RELTYPES",
    _T_REL_TYPEID: "REL_TYPEID",
    _T_REL_START: "REL_START",
    _T_REL_END: "REL_END",
    _T_CSR: "CSR",
    _T_NODE_SHAPE: "NODE_SHAPE",
    _T_NODE_ROW: "NODE_ROW",
    _T_NODE_PROP_DIR: "NODE_PROP_DIR",
    _T_NODE_PROP_DATA: "NODE_PROP_DATA",
    _T_REL_SHAPE: "REL_SHAPE",
    _T_REL_ROW: "REL_ROW",
    _T_REL_PROP_DIR: "REL_PROP_DIR",
    _T_REL_PROP_DATA: "REL_PROP_DATA",
    _T_INDEXES: "INDEXES",
}
_REQUIRED_V3 = tuple(_SECTION_NAMES_V3)

_U32_MAX = 1 << 32


# ---------------------------------------------------------------------------
# value codec: kinds, tagged fallback values, row builders
# ---------------------------------------------------------------------------

_DOUBLE = struct.Struct("<d")

# value tags of the fallback (nested) property encoding
_V_NONE, _V_TRUE, _V_FALSE, _V_INT, _V_FLOAT, _V_STR, _V_LIST, _V_DICT = range(8)

# column kinds of the shape-grouped property encoding
(
    _K_NONE,
    _K_BOOL,
    _K_INT,
    _K_FLOAT,
    _K_STR,
    _K_INTLIST,
    _K_STRLIST,
    _K_STRDICT,
    _K_NESTED,
) = range(9)

#: zigzag of ints in this range fits a struct-packed (<= 8 byte) column
_I63 = 1 << 63

_BOOLS = (False, True)

#: strings longer than this are deduplicated via the table but not
#: sys.intern'd (interned strings live for the rest of the process)
_INTERN_MAX = 512


def _write_varint(out: bytearray, value: int) -> None:
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _sid(table: Dict[str, int], value: str) -> int:
    sid = table.get(value)
    if sid is None:
        sid = len(table)
        table[value] = sid
    return sid


def _write_value(out: bytearray, value: Any, strings: Dict[str, int]) -> None:
    if value is None:
        out.append(_V_NONE)
    elif isinstance(value, bool):
        out.append(_V_TRUE if value else _V_FALSE)
    elif isinstance(value, int):
        out.append(_V_INT)
        _write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)
    elif isinstance(value, float):
        out.append(_V_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        out.append(_V_STR)
        _write_varint(out, _sid(strings, value))
    elif isinstance(value, (list, tuple)):
        out.append(_V_LIST)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item, strings)
    elif isinstance(value, dict):
        out.append(_V_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            _write_varint(out, _sid(strings, key))
            _write_value(out, item, strings)
    else:
        raise StorageError(
            f"unsupported property value type for snapshot: {type(value).__name__}"
        )


def _make_readers(buf: bytes, strings: List[str]):
    """Varint / fallback-value readers closed over one buffer."""

    unpack_double = _DOUBLE.unpack_from

    def read_varint(pos: int) -> Tuple[int, int]:
        b = buf[pos]
        pos += 1
        if b < 0x80:
            return b, pos
        result = b & 0x7F
        shift = 7
        while True:
            b = buf[pos]
            pos += 1
            result |= (b & 0x7F) << shift
            if b < 0x80:
                return result, pos
            shift += 7

    def read_value(pos: int) -> Tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _V_STR:
            sid, pos = read_varint(pos)
            return strings[sid], pos
        if tag == _V_INT:
            z, pos = read_varint(pos)
            return (z >> 1) ^ -(z & 1), pos
        if tag == _V_NONE:
            return None, pos
        if tag == _V_TRUE:
            return True, pos
        if tag == _V_FALSE:
            return False, pos
        if tag == _V_FLOAT:
            return unpack_double(buf, pos)[0], pos + 8
        if tag == _V_LIST:
            count, pos = read_varint(pos)
            items = []
            append = items.append
            for _ in range(count):
                item, pos = read_value(pos)
                append(item)
            return items, pos
        if tag == _V_DICT:
            count, pos = read_varint(pos)
            nested: Dict[str, Any] = {}
            for _ in range(count):
                sid, pos = read_varint(pos)
                item, pos = read_value(pos)
                nested[strings[sid]] = item
            return nested, pos
        raise StorageError(f"unknown property value tag {tag}")

    return read_varint, read_value


#: property-map builders compiled per column count (see _rows_to_maps)
_ROW_BUILDERS: Dict[int, Any] = {}

#: shapes wider than this fall back to dict(zip(keys, row))
_ROW_BUILDER_MAX_WIDTH = 32


def _rows_to_maps(keys: Tuple[str, ...], cols: List[Sequence[Any]]) -> List[Dict[str, Any]]:
    """One property dict per row of ``zip(*cols)``.

    A dict *display* with the keys bound to locals builds a small dict
    2-4x faster than ``dict(zip(keys, row))``, but needs the column
    count at compile time — so builders are compiled once per width and
    cached (a CPG has a handful of shapes, so a handful of widths).
    """
    width = len(keys)
    if width > _ROW_BUILDER_MAX_WIDTH:
        return [dict(zip(keys, row)) for row in zip(*cols)]
    builder = _ROW_BUILDERS.get(width)
    if builder is None:
        key_args = ", ".join(f"k{i}" for i in range(width))
        values = ", ".join(f"v{i}" for i in range(width))
        items = ", ".join(f"k{i}: v{i}" for i in range(width))
        source = (
            "def _build(k0):\n"
            "    def rows(cols):\n"
            "        return [{k0: v0} for v0 in cols[0]]\n"
            "    return rows\n"
            if width == 1
            else f"def _build({key_args}):\n"
            f"    def rows(cols):\n"
            f"        return [{{{items}}} for ({values},) in zip(*cols)]\n"
            f"    return rows\n"
        )
        namespace: Dict[str, Any] = {}
        exec(source, namespace)
        builder = namespace["_build"]
        _ROW_BUILDERS[width] = builder
    return builder(*keys)(cols)


def _kind_of(value: Any) -> int:
    """The column kind a value belongs to (see the module docstring)."""
    kind = type(value)
    if kind is str:
        return _K_STR
    if kind is bool:
        return _K_BOOL
    if kind is int:
        return _K_INT if -_I63 <= value < _I63 else _K_NESTED
    if kind is float:
        return _K_FLOAT
    if value is None:
        return _K_NONE
    if kind is list or kind is tuple:
        all_int = all_str = True
        for item in value:
            t = type(item)
            if t is int and -_I63 <= item < _I63:
                all_str = False
            elif t is str:
                all_int = False
            else:
                return _K_NESTED
        if all_int:  # including the empty list
            return _K_INTLIST
        return _K_STRLIST if all_str else _K_NESTED
    if kind is dict:
        for k, v in value.items():
            if type(k) is not str or type(v) is not str:
                return _K_NESTED
        return _K_STRDICT
    if isinstance(value, (bool, int, float, str, list, tuple, dict)):
        return _K_NESTED  # exotic subclasses: tagged fallback
    raise StorageError(
        f"unsupported property value type for snapshot: {type(value).__name__}"
    )


# ---------------------------------------------------------------------------
# low-level array helpers
# ---------------------------------------------------------------------------


def _pad8(out: bytearray) -> None:
    out += b"\x00" * (-len(out) % 8)


def _put_array(out: bytearray, code: str, values) -> int:
    """Append a fixed-width little-endian integer/float column at an
    8-aligned offset; returns the offset."""
    _pad8(out)
    offset = len(out)
    column = array(code, values)
    if not _LITTLE:
        column.byteswap()
    out += column.tobytes()
    return offset


def _put_bytes(out: bytearray, blob: bytes) -> int:
    _pad8(out)
    offset = len(out)
    out += blob
    return offset


_ITEM_SIZES = {"B": 1, "I": 4, "q": 8, "d": 8, "Q": 8}


def _cast(view: memoryview, offset: int, count: int, code: str):
    """A ``count``-element fixed-width column at ``offset``, zero-copy on
    little-endian hosts, byte-swapped into an ``array`` otherwise."""
    nbytes = count * _ITEM_SIZES[code]
    chunk = view[offset : offset + nbytes]
    if len(chunk) != nbytes:
        raise StorageError("snapshot data column is truncated")
    if _LITTLE and code != "B":
        return chunk.cast(code)
    if code == "B":
        return chunk  # bytes-like indexing already yields ints
    column = array(code)
    column.frombytes(chunk)
    column.byteswap()
    return column


# ---------------------------------------------------------------------------
# lazy readers
# ---------------------------------------------------------------------------


class _LazyStrings:
    """The deduplicated string table, decoded per id on first touch.
    Strings at most ``_INTERN_MAX`` bytes are ``sys.intern``'d; longer
    ones stay shared through the table but are not interned."""

    __slots__ = ("_blob", "_offs", "_cache")

    def __init__(self, blob: memoryview, offs) -> None:
        self._blob = blob
        self._offs = offs
        self._cache: List[Optional[str]] = [None] * (len(offs) - 1)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, sid: int) -> str:
        try:
            value = self._cache[sid]
        except IndexError:
            raise StorageError(
                f"snapshot references string id {sid} beyond the string table"
            ) from None
        if value is None:
            offs = self._offs
            start, end = offs[sid], offs[sid + 1]
            if end < start:
                raise StorageError("snapshot string table offsets are not monotonic")
            try:
                value = bytes(self._blob[start:end]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StorageError(f"snapshot string table is corrupt: {exc}") from exc
            if end - start <= _INTERN_MAX:
                value = sys.intern(value)
            self._cache[sid] = value
        return value

    def decode_all(self) -> None:
        """Bulk-decode the whole table (the materialization path)."""
        cache = self._cache
        blob = bytes(self._blob)
        offsets = list(self._offs)
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise StorageError("snapshot string table offsets are not monotonic")
        if blob.isascii():
            # byte offsets == char offsets: decode once, slice the str
            text = blob.decode("utf-8")
            intern = sys.intern
            for sid, (start, end) in enumerate(zip(offsets, offsets[1:])):
                if cache[sid] is None:
                    value = text[start:end]
                    cache[sid] = (
                        intern(value) if end - start <= _INTERN_MAX else value
                    )
        else:
            for sid in range(len(cache)):
                self[sid]


class _LazyLabelsets:
    """Distinct label combinations, one pooled frozenset per id."""

    __slots__ = ("_strings", "_offs", "_members", "_cache")

    def __init__(self, strings: _LazyStrings, offs, members) -> None:
        self._strings = strings
        self._offs = offs
        self._members = members
        self._cache: List[Optional[FrozenSet[str]]] = [None] * (len(offs) - 1)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, lsid: int) -> FrozenSet[str]:
        try:
            labelset = self._cache[lsid]
        except IndexError:
            raise StorageError(
                f"snapshot references labelset id {lsid} beyond the labelset table"
            ) from None
        if labelset is None:
            offs = self._offs
            start, end = offs[lsid], offs[lsid + 1]
            if end < start or end > len(self._members):
                raise StorageError("snapshot labelset offsets are out of range")
            labelset = frozenset(
                map(self._strings.__getitem__, self._members[start:end])
            )
            self._cache[lsid] = labelset
        return labelset


class _Column:
    __slots__ = ("kind", "a", "b", "c", "values")

    def __init__(self, kind: int, a: int, b: int, c: int) -> None:
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c
        self.values: Optional[Sequence[Any]] = None


class _Shape:
    __slots__ = ("keys", "rows", "cols")

    def __init__(self, keys: Tuple[str, ...], rows: int, cols: Dict[str, _Column]):
        self.keys = keys
        self.rows = rows
        self.cols = cols


class _PropTable:
    """Shape-grouped property columns with per-column lazy decode.

    ``shape_col[eid]`` names the entity's shape, ``row_col[eid]`` its
    row within that shape; a property read is two array loads, a dict
    probe and (after first touch) a list index.  Decoded columns cache
    on their directory entry, so each column pays its decode exactly
    once per process.
    """

    __slots__ = ("_shapes", "_shape_col", "_row_col", "_data", "_strings", "_count")

    def __init__(self, shapes, shape_col, row_col, data, strings, count) -> None:
        self._shapes = shapes
        self._shape_col = shape_col
        self._row_col = row_col
        self._data = data
        self._strings = strings
        self._count = count
        if sum(shape.rows for shape in shapes) != count:
            raise StorageError("property shape column is inconsistent")

    def get(self, eid: int, key: str, default: Any = None) -> Any:
        try:
            shape = self._shapes[self._shape_col[eid]]
        except IndexError:
            raise StorageError("property shape column is inconsistent") from None
        col = shape.cols.get(key)
        if col is None:
            return default
        values = col.values
        if values is None:
            values = self._decode_column(shape, col)
        try:
            return values[self._row_col[eid]]
        except IndexError:
            raise StorageError("property row column is inconsistent") from None

    def has(self, eid: int, key: str) -> bool:
        try:
            return key in self._shapes[self._shape_col[eid]].cols
        except IndexError:
            raise StorageError("property shape column is inconsistent") from None

    def map(self, eid: int) -> Dict[str, Any]:
        try:
            shape = self._shapes[self._shape_col[eid]]
            row = self._row_col[eid]
        except IndexError:
            raise StorageError("property shape column is inconsistent") from None
        out = {}
        for key in shape.keys:
            col = shape.cols[key]
            values = col.values
            if values is None:
                values = self._decode_column(shape, col)
            try:
                out[key] = values[row]
            except IndexError:
                raise StorageError("property row column is inconsistent") from None
        return out

    def _decode_column(self, shape: _Shape, col: _Column) -> Sequence[Any]:
        try:
            values = self._decode_column_raw(shape.rows, col)
        except StorageError:
            raise
        except (IndexError, ValueError, OverflowError, struct.error) as exc:
            raise StorageError(f"corrupt v3 property column: {exc}") from exc
        col.values = values
        return values

    def _decode_column_raw(self, n: int, col: _Column) -> Sequence[Any]:
        kind = col.kind
        data = self._data
        strings = self._strings
        if kind == _K_STR:
            return list(map(strings.__getitem__, _cast(data, col.a, n, "I")))
        if kind == _K_INT:
            return _cast(data, col.a, n, "q").tolist()
        if kind == _K_BOOL:
            return [_BOOLS[b] for b in _cast(data, col.a, n, "B")]
        if kind == _K_NONE:
            return [None] * n
        if kind == _K_FLOAT:
            return _cast(data, col.a, n, "d").tolist()
        if kind == _K_INTLIST:
            offs = _cast(data, col.a, n + 1, "I")
            flat = _cast(data, col.b, offs[n], "q").tolist()
            return [flat[offs[i] : offs[i + 1]] for i in range(n)]
        if kind == _K_STRLIST:
            offs = _cast(data, col.a, n + 1, "I")
            flat = list(map(strings.__getitem__, _cast(data, col.b, offs[n], "I")))
            return [flat[offs[i] : offs[i + 1]] for i in range(n)]
        if kind == _K_STRDICT:
            offs = _cast(data, col.a, n + 1, "I")
            total = offs[n]
            flat_keys = list(map(strings.__getitem__, _cast(data, col.b, total, "I")))
            flat_values = list(map(strings.__getitem__, _cast(data, col.c, total, "I")))
            return [
                dict(zip(flat_keys[offs[i] : offs[i + 1]], flat_values[offs[i] : offs[i + 1]]))
                for i in range(n)
            ]
        # _K_NESTED — kinds were validated while parsing the directory
        offs = _cast(data, col.a, n + 1, "I")
        blob = data[col.b : col.b + offs[n]]
        if len(blob) != offs[n]:
            raise StorageError("snapshot data column is truncated")
        _, read_value = _make_readers(blob, strings)
        values = []
        append = values.append
        for i in range(n):
            value, _end = read_value(offs[i])
            append(value)
        return values

    def decode_all(self) -> List[Dict[str, Any]]:
        """Every entity's property map, in entity order — the
        materialization path, sharing decoded columns with any prior
        lazy reads."""
        per_shape: List[List[Dict[str, Any]]] = []
        for shape in self._shapes:
            if shape.keys:
                cols = []
                for key in shape.keys:
                    col = shape.cols[key]
                    values = col.values
                    if values is None:
                        values = self._decode_column(shape, col)
                    cols.append(values)
                per_shape.append(_rows_to_maps(shape.keys, cols))
            else:
                per_shape.append([{} for _ in range(shape.rows)])
        cursors = [iter(maps) for maps in per_shape]
        try:
            result = list(map(next, map(cursors.__getitem__, self._shape_col)))
        except IndexError as exc:
            raise StorageError("property shape column is inconsistent") from exc
        if len(result) != self._count:
            raise StorageError("property shape column is inconsistent")
        return result


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _csr(n: int, endpoint_of: List[int], rel_ids: Sequence[int]):
    """Counting-sort ``rel_ids`` into CSR runs keyed by their endpoint
    node.  Iterating ``rel_ids`` in ascending order keeps every run
    ascending — the adjacency-bucket invariant of ``PropertyGraph``."""
    counts = [0] * n
    for rid in rel_ids:
        counts[endpoint_of[rid]] += 1
    indptr = list(accumulate(counts, initial=0))
    ids = [0] * len(rel_ids)
    cursor = indptr[:-1]  # slicing copies
    for rid in rel_ids:
        node = endpoint_of[rid]
        ids[cursor[node]] = rid
        cursor[node] += 1
    return indptr, ids


def _encode_columns(
    all_props: Sequence[Dict[str, Any]],
    strings: Dict[str, int],
    data: bytearray,
) -> Tuple[List[int], List[int], bytearray]:
    """Shape-group ``all_props`` and write one random-
    access typed column per (shape, key) into ``data``; returns the
    shape/row membership columns and the column directory."""
    shape_ids: Dict[Tuple[Tuple[int, int], ...], int] = {}
    shapes: List[Tuple[Tuple[int, int], ...]] = []
    shape_keys: List[List[str]] = []
    groups: List[List[Dict[str, Any]]] = []
    shape_col: List[int] = []
    row_col: List[int] = []
    for props in all_props:
        sig = tuple(
            (_sid(strings, key), _kind_of(value)) for key, value in props.items()
        )
        sid = shape_ids.get(sig)
        if sid is None:
            sid = len(shapes)
            shape_ids[sig] = sid
            shapes.append(sig)
            shape_keys.append(list(props))
            groups.append([])
        row_col.append(len(groups[sid]))
        groups[sid].append(props)
        shape_col.append(sid)

    directory = bytearray(_CRC.pack(len(shapes)))
    for sig, keys, group in zip(shapes, shape_keys, groups):
        directory += _DIR_SHAPE.pack(len(sig), len(group))
        for key, (key_sid, kind) in zip(keys, sig):
            a = b = c = 0
            if kind == _K_NONE:
                pass
            elif kind == _K_STR:
                a = _put_array(data, "I", [_sid(strings, v[key]) for v in group])
            elif kind == _K_INT:
                a = _put_array(data, "q", [v[key] for v in group])
            elif kind == _K_BOOL:
                a = _put_array(data, "B", [1 if v[key] else 0 for v in group])
            elif kind == _K_FLOAT:
                a = _put_array(data, "d", [v[key] for v in group])
            elif kind == _K_INTLIST:
                column = [v[key] for v in group]
                a = _put_array(
                    data,
                    "I",
                    accumulate((len(v) for v in column), initial=0),
                )
                b = _put_array(data, "q", [x for v in column for x in v])
            elif kind == _K_STRLIST:
                column = [v[key] for v in group]
                a = _put_array(
                    data,
                    "I",
                    accumulate((len(v) for v in column), initial=0),
                )
                b = _put_array(
                    data, "I", [_sid(strings, x) for v in column for x in v]
                )
            elif kind == _K_STRDICT:
                column = [v[key] for v in group]
                a = _put_array(
                    data,
                    "I",
                    accumulate((len(v) for v in column), initial=0),
                )
                b = _put_array(
                    data, "I", [_sid(strings, k) for v in column for k in v]
                )
                c = _put_array(
                    data,
                    "I",
                    [_sid(strings, x) for v in column for x in v.values()],
                )
            else:  # _K_NESTED: tagged fallback blob + byte offsets
                blob = bytearray()
                offs = [0]
                for v in group:
                    _write_value(blob, v[key], strings)
                    offs.append(len(blob))
                a = _put_array(data, "I", offs)
                b = _put_bytes(data, bytes(blob))
            directory += _DIR_ENTRY.pack(key_sid, kind, a, b, c)
    return shape_col, row_col, directory


def encode_snapshot_v3(graph: PropertyGraph) -> bytes:
    """Serialise ``graph`` to v3 mmap-able snapshot bytes."""
    strings: Dict[str, int] = {}

    node_values = list(graph._nodes.values())  # insertion order == id order
    n = len(node_values)
    position = {node_id: i for i, node_id in enumerate(graph._nodes)}

    labelset_ids: Dict[FrozenSet[str], int] = {}
    ls_member_rows: List[List[int]] = []
    node_ls: List[int] = []
    for node in node_values:
        labelset = node.labels
        lsid = labelset_ids.get(labelset)
        if lsid is None:
            lsid = len(ls_member_rows)
            labelset_ids[labelset] = lsid
            ls_member_rows.append([_sid(strings, label) for label in sorted(labelset)])
        node_ls.append(lsid)

    rels = list(graph._rels.values())
    m = len(rels)
    if n >= _U32_MAX or m >= _U32_MAX:
        raise StorageError("graph too large for a v3 snapshot (u32 id overflow)")
    type_ids: Dict[str, int] = {}
    type_sids: List[int] = []
    rel_typeid: List[int] = []
    for rel in rels:
        tid = type_ids.get(rel.type)
        if tid is None:
            tid = len(type_ids)
            type_ids[rel.type] = tid
            type_sids.append(_sid(strings, rel.type))
        rel_typeid.append(tid)
    rel_start = [position[rel.start_id] for rel in rels]
    rel_end = [position[rel.end_id] for rel in rels]
    type_count = len(type_ids)
    type_counts = [0] * type_count
    for tid in rel_typeid:
        type_counts[tid] += 1

    # CSR: flat forward/reverse plus one forward/reverse pair per type
    all_rids = range(m)
    per_type: List[List[int]] = [[] for _ in range(type_count)]
    for rid, tid in enumerate(rel_typeid):
        per_type[tid].append(rid)
    csr = array("I")
    for indptr_or_ids in _csr(n, rel_start, all_rids) + _csr(n, rel_end, all_rids):
        csr.extend(indptr_or_ids)
    for rids in per_type:
        for indptr_or_ids in _csr(n, rel_start, rids) + _csr(n, rel_end, rids):
            csr.extend(indptr_or_ids)
    if not _LITTLE:
        csr.byteswap()

    node_data = bytearray()
    node_shape, node_row, node_dir = _encode_columns(
        [node.properties for node in node_values], strings, node_data
    )
    rel_data = bytearray()
    rel_shape, rel_row, rel_dir = _encode_columns(
        [rel.properties for rel in rels], strings, rel_data
    )

    index_pairs = [
        (_sid(strings, label), _sid(strings, key))
        for label, key in graph.indexes.indexes()
    ]

    # strings last: every earlier stage may have added table entries
    str_blob = bytearray()
    str_offs = [0]
    for value in strings:  # dict preserves first-seen (== id) order
        str_blob += value.encode("utf-8")
        str_offs.append(len(str_blob))

    ls_offs = list(accumulate((len(row) for row in ls_member_rows), initial=0))
    ls_members = [sid for row in ls_member_rows for sid in row]

    def u32(values) -> bytes:
        column = array("I", values)
        if not _LITTLE:
            column.byteswap()
        return column.tobytes()

    def u64(values) -> bytes:
        column = array("Q", values)
        if not _LITTLE:
            column.byteswap()
        return column.tobytes()

    reltype_rows: List[int] = []
    for sid, count in zip(type_sids, type_counts):
        reltype_rows.append(sid)
        reltype_rows.append(count)
    index_rows: List[int] = []
    for label_sid, key_sid in index_pairs:
        index_rows.append(label_sid)
        index_rows.append(key_sid)

    sections: List[Tuple[int, bytes]] = [
        (
            _T_META,
            _META.pack(n, m, len(strings), len(ls_member_rows), type_count, len(index_pairs)),
        ),
        (_T_STR_OFFS, u64(str_offs)),
        (_T_STR_BLOB, bytes(str_blob)),
        (_T_LS_OFFS, u32(ls_offs)),
        (_T_LS_MEMBERS, u32(ls_members)),
        (_T_NODE_LS, u32(node_ls)),
        (_T_RELTYPES, u32(reltype_rows)),
        (_T_REL_TYPEID, u32(rel_typeid)),
        (_T_REL_START, u32(rel_start)),
        (_T_REL_END, u32(rel_end)),
        (_T_CSR, csr.tobytes()),
        (_T_NODE_SHAPE, u32(node_shape)),
        (_T_NODE_ROW, u32(node_row)),
        (_T_NODE_PROP_DIR, bytes(node_dir)),
        (_T_NODE_PROP_DATA, bytes(node_data)),
        (_T_REL_SHAPE, u32(rel_shape)),
        (_T_REL_ROW, u32(rel_row)),
        (_T_REL_PROP_DIR, bytes(rel_dir)),
        (_T_REL_PROP_DATA, bytes(rel_data)),
        (_T_INDEXES, u32(index_rows)),
    ]

    table_size = _HEADER.size + _SECTION_V3.size * len(sections)
    pos = table_size + _CRC.size
    placed: List[Tuple[int, int, int]] = []  # tag, offset, length
    for tag, payload in sections:
        pos = (pos + 7) & ~7  # 8-align every section
        placed.append((tag, pos, len(payload)))
        pos += len(payload)

    out = bytearray(pos)
    out[0 : _HEADER.size] = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION_V3, 0, len(sections)
    )
    cursor = _HEADER.size
    for tag, offset, length in placed:
        out[cursor : cursor + _SECTION_V3.size] = _SECTION_V3.pack(
            tag, 0, offset, length
        )
        cursor += _SECTION_V3.size
    out[table_size : table_size + _CRC.size] = _CRC.pack(
        zlib.crc32(bytes(out[:table_size])) & 0xFFFFFFFF
    )
    for (_tag, offset, _length), (_tag2, payload) in zip(placed, sections):
        out[offset : offset + len(payload)] = payload
    return bytes(out)


# ---------------------------------------------------------------------------
# opening / decoding
# ---------------------------------------------------------------------------


def unsupported_version(version: int) -> StorageError:
    """The error for a ``TABBYCPG`` header whose version is not 3 — a
    retired v2 file or one from a newer build — naming the remedy."""
    return StorageError(
        f"unsupported snapshot format version {version}: this build reads "
        f"v3 snapshots and v1 JSON. Re-run `tabby analyze` to rebuild the "
        f"CPG, or convert the file with a release that reads it: "
        f"save_graph(load_graph(path), new_path, format=\"v3\")"
    )


def _parse(view: memoryview, path: Optional[str], closer) -> ArrayGraph:
    size = len(view)
    if size < _HEADER.size:
        raise StorageError("snapshot is truncated: missing header")
    magic, version, _flags, section_count = _HEADER.unpack_from(view, 0)
    if magic != SNAPSHOT_MAGIC:
        raise StorageError("not a Tabby binary snapshot (bad magic)")
    if version != SNAPSHOT_VERSION_V3:
        raise unsupported_version(version)
    table_size = _HEADER.size + _SECTION_V3.size * section_count
    if table_size + _CRC.size > size:
        raise StorageError("snapshot is truncated: incomplete section table")
    (stored_crc,) = _CRC.unpack_from(view, table_size)
    if zlib.crc32(bytes(view[:table_size])) & 0xFFFFFFFF != stored_crc:
        raise StorageError(
            "snapshot header checksum mismatch: the section table is corrupt, "
            "the file is truncated, or a non-v3 body carries a v3 header"
        )
    sections: Dict[int, Tuple[int, int]] = {}
    cursor = _HEADER.size
    for _ in range(section_count):
        tag, _reserved, offset, length = _SECTION_V3.unpack_from(view, cursor)
        cursor += _SECTION_V3.size
        name = _SECTION_NAMES_V3.get(tag, tag)
        if offset + length > size:
            raise StorageError(f"snapshot is truncated inside section {name}")
        if tag in sections:
            raise StorageError(f"snapshot has a duplicate section {name}")
        sections[tag] = (offset, length)
    for tag in _REQUIRED_V3:
        if tag not in sections:
            raise StorageError(
                f"snapshot is missing section {_SECTION_NAMES_V3[tag]}"
            )

    def exact(tag: int, expected: int) -> int:
        offset, length = sections[tag]
        if length != expected:
            raise StorageError(
                f"section {_SECTION_NAMES_V3[tag]} has length {length}, "
                f"expected {expected}: the snapshot is corrupt or truncated"
            )
        return offset

    meta_off = exact(_T_META, _META.size)
    n, m, string_count, labelset_count, type_count, index_count = _META.unpack_from(
        view, meta_off
    )
    if n >= _U32_MAX or m >= _U32_MAX:
        raise StorageError("snapshot META section is corrupt (id overflow)")

    str_offs = _cast(view, exact(_T_STR_OFFS, 8 * (string_count + 1)), string_count + 1, "Q")
    blob_off, blob_len = sections[_T_STR_BLOB]
    if string_count and (str_offs[0] != 0 or str_offs[string_count] != blob_len):
        raise StorageError("snapshot string table does not cover its blob")
    strings = _LazyStrings(view[blob_off : blob_off + blob_len], str_offs)

    ls_offs = _cast(view, exact(_T_LS_OFFS, 4 * (labelset_count + 1)), labelset_count + 1, "I")
    member_off, member_len = sections[_T_LS_MEMBERS]
    if member_len != 4 * ls_offs[labelset_count]:
        raise StorageError("snapshot labelset members do not match their offsets")
    ls_members = _cast(view, member_off, ls_offs[labelset_count], "I")
    labelsets = _LazyLabelsets(strings, ls_offs, ls_members)

    node_ls = _cast(view, exact(_T_NODE_LS, 4 * n), n, "I")

    reltypes = _cast(view, exact(_T_RELTYPES, 8 * type_count), 2 * type_count, "I")
    type_names = [strings[reltypes[2 * t]] for t in range(type_count)]
    type_counts = [reltypes[2 * t + 1] for t in range(type_count)]
    if sum(type_counts) != m:
        raise StorageError(
            "snapshot RELTYPES counts do not sum to the relationship count"
        )
    if len(set(type_names)) != type_count:
        raise StorageError("snapshot RELTYPES section has duplicate types")

    rel_typeid = _cast(view, exact(_T_REL_TYPEID, 4 * m), m, "I")
    rel_start = _cast(view, exact(_T_REL_START, 4 * m), m, "I")
    rel_end = _cast(view, exact(_T_REL_END, 4 * m), m, "I")

    csr_entries = (2 * type_count + 2) * (n + 1) + 4 * m
    csr_off = exact(_T_CSR, 4 * csr_entries)
    cursor = csr_off

    def take(count: int):
        nonlocal cursor
        column = _cast(view, cursor, count, "I")
        cursor += 4 * count
        return column

    flat_out_indptr = take(n + 1)
    flat_out_ids = take(m)
    flat_in_indptr = take(n + 1)
    flat_in_ids = take(m)
    typed_out_indptr, typed_out_ids = [], []
    typed_in_indptr, typed_in_ids = [], []
    for t in range(type_count):
        typed_out_indptr.append(take(n + 1))
        typed_out_ids.append(take(type_counts[t]))
        typed_in_indptr.append(take(n + 1))
        typed_in_ids.append(take(type_counts[t]))
    if m and (flat_out_indptr[n] != m or flat_in_indptr[n] != m):
        raise StorageError("snapshot CSR index does not cover every relationship")
    adjacency = Adjacency(
        flat_out_indptr,
        flat_out_ids,
        flat_in_indptr,
        flat_in_ids,
        typed_out_indptr,
        typed_out_ids,
        typed_in_indptr,
        typed_in_ids,
    )

    def prop_table(dir_tag: int, data_tag: int, shape_tag: int, row_tag: int, count: int):
        dir_off, dir_len = sections[dir_tag]
        data_off, data_len = sections[data_tag]
        shapes = _parse_prop_dir(view[dir_off : dir_off + dir_len], strings)
        return _PropTable(
            shapes,
            _cast(view, exact(shape_tag, 4 * count), count, "I"),
            _cast(view, exact(row_tag, 4 * count), count, "I"),
            view[data_off : data_off + data_len],
            strings,
            count,
        )

    node_props = prop_table(
        _T_NODE_PROP_DIR, _T_NODE_PROP_DATA, _T_NODE_SHAPE, _T_NODE_ROW, n
    )
    rel_props = prop_table(
        _T_REL_PROP_DIR, _T_REL_PROP_DATA, _T_REL_SHAPE, _T_REL_ROW, m
    )

    idx = _cast(view, exact(_T_INDEXES, 8 * index_count), 2 * index_count, "I")
    index_pairs = [
        (strings[idx[2 * i]], strings[idx[2 * i + 1]]) for i in range(index_count)
    ]

    return ArrayGraph(
        path=path,
        strings=strings,
        labelsets=labelsets,
        node_ls=node_ls,
        type_names=type_names,
        type_counts=type_counts,
        rel_typeid=rel_typeid,
        rel_start=rel_start,
        rel_end=rel_end,
        adjacency=adjacency,
        node_props=node_props,
        rel_props=rel_props,
        index_pairs=index_pairs,
        closer=closer,
    )


def _parse_prop_dir(directory: memoryview, strings: _LazyStrings) -> List[_Shape]:
    if len(directory) < _CRC.size:
        raise StorageError("snapshot property directory is truncated")
    (shape_count,) = _CRC.unpack_from(directory, 0)
    cursor = _CRC.size
    shapes: List[_Shape] = []
    for _ in range(shape_count):
        key_count, rows = _DIR_SHAPE.unpack_from(directory, cursor)
        cursor += _DIR_SHAPE.size
        keys: List[str] = []
        cols: Dict[str, _Column] = {}
        for _ in range(key_count):
            key_sid, kind, a, b, c = _DIR_ENTRY.unpack_from(directory, cursor)
            cursor += _DIR_ENTRY.size
            if kind > _K_NESTED:
                raise StorageError(f"unknown property column kind {kind}")
            key = strings[key_sid]
            keys.append(key)
            cols[key] = _Column(kind, a, b, c)
        shapes.append(_Shape(tuple(keys), rows, cols))
    return shapes


def _build_view(view: memoryview, path: Optional[str], closer=None) -> ArrayGraph:
    try:
        return _parse(view, path, closer)
    except StorageError:
        raise
    except (struct.error, IndexError, ValueError, OverflowError) as exc:
        raise StorageError(f"corrupt v3 snapshot: {exc}") from exc


def view_snapshot(data: bytes, path: Optional[str] = None) -> ArrayGraph:
    """An :class:`ArrayGraph` over in-memory v3 snapshot bytes."""
    return _build_view(memoryview(data), path)


def open_snapshot(path: str) -> ArrayGraph:
    """mmap a v3 snapshot file and return the zero-copy view.

    Only the header, section table and column directories are touched;
    everything else pages in on demand, and every process opening the
    same file shares those pages through the OS page cache.  The file
    descriptor is closed immediately after mapping (the mapping keeps
    the pages alive).
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise StorageError(f"cannot read graph from {path}: {exc}") from exc
    try:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # empty or unmappable file: fall back to a plain read, which
            # yields the same structured validation errors
            fh.seek(0)
            return view_snapshot(fh.read(), path=path)
    finally:
        fh.close()
    return _build_view(memoryview(mapped), path, closer=mapped.close)


def decode_snapshot_v3(data: bytes) -> PropertyGraph:
    """Materialise v3 snapshot bytes into a mutable ``PropertyGraph``
    (the ``load_graph`` path) — fingerprint-identical to the graph that
    was saved."""
    view = view_snapshot(data)
    view._strings.decode_all()  # bulk path; per-id decode would also work
    return view.materialize()
