"""Read-only array-backed graph view over a v3 snapshot.

:class:`ArrayGraph` implements the read surface of
:class:`~repro.graphdb.graph.PropertyGraph` — lookup, adjacency,
label/property indexes, statistics — directly on top of the fixed-width
columns of a format-v3 snapshot (:mod:`repro.graphdb.snapshot_v3`),
without materialising ``Node``/``Relationship`` objects or adjacency
dicts.  Opening a snapshot is therefore an ``mmap`` plus header
validation; nodes, relationships, property maps and index tables only
come into existence when something touches them.

Design constraints, in order:

* **Observable equivalence.**  Everything a consumer can read must be
  indistinguishable from the same snapshot decoded into a
  ``PropertyGraph``: same entities, same adjacency order (relationship
  ids ascending — the v3 writer lays CSR runs out in id order), and —
  subtler — the same *set iteration order* for index hits.
  ``find_nodes`` order flows from iterating label/property index sets,
  so :meth:`ArrayGraph.indexes` builds its ``IndexManager`` with
  exactly the algorithm of
  :func:`~repro.graphdb.graph._bulk_load_columns` (same elements
  inserted in the same order produce the same iteration order; int
  hashes are unsalted, so this also holds *across processes*).  The
  chain search and query planner consequently produce bit-identical
  results on either representation — asserted differentially in the
  test suite.
* **Laziness.**  ``__init__`` touches nothing beyond what the caller
  already parsed.  Property columns decode on first access of any
  property of that (shape, key); the string table decodes per string;
  the index manager builds on first ``.indexes`` access.
* **Object protocol compatibility.**  :class:`ArrayNode` and
  :class:`ArrayRelationship` subclass ``Node``/``Relationship`` —
  the query binder and the graph's id-or-node arguments type-check
  with ``isinstance`` — but are flyweights: one graph pointer plus the
  identity fields, with ``labels``/``properties`` served as descriptors
  from the columns.

Mutation raises :class:`~repro.errors.GraphError`; writers call
:meth:`ArrayGraph.materialize` to get a plain ``PropertyGraph`` that is
``graph_fingerprint``-identical to the graph the snapshot was written
from.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    GraphError,
    NodeNotFoundError,
    RelationshipNotFoundError,
    StorageError,
)
from repro.graphdb.graph import Node, PropertyGraph, Relationship, _bulk_load_columns
from repro.graphdb.index import IndexManager, _index_key

__all__ = ["ArrayGraph", "ArrayNode", "ArrayRelationship", "Adjacency"]

_MISS = object()


class Adjacency:
    """The CSR adjacency arrays of one snapshot: flat (all types) and
    per-type, each forward (by start node) and reverse (by end node).
    ``*_indptr[nid] : *_indptr[nid + 1]`` slices the relationship-id
    run of one node; runs are ascending, matching the insertion-order
    buckets of ``PropertyGraph``."""

    __slots__ = (
        "flat_out_indptr",
        "flat_out_ids",
        "flat_in_indptr",
        "flat_in_ids",
        "typed_out_indptr",
        "typed_out_ids",
        "typed_in_indptr",
        "typed_in_ids",
    )

    def __init__(
        self,
        flat_out_indptr,
        flat_out_ids,
        flat_in_indptr,
        flat_in_ids,
        typed_out_indptr,
        typed_out_ids,
        typed_in_indptr,
        typed_in_ids,
    ):
        self.flat_out_indptr = flat_out_indptr
        self.flat_out_ids = flat_out_ids
        self.flat_in_indptr = flat_in_indptr
        self.flat_in_ids = flat_in_ids
        self.typed_out_indptr = typed_out_indptr
        self.typed_out_ids = typed_out_ids
        self.typed_in_indptr = typed_in_indptr
        self.typed_in_ids = typed_in_ids


class ArrayNode(Node):
    """Flyweight node over an :class:`ArrayGraph`: stores only the graph
    pointer and its id; labels and properties resolve through the
    columns on access."""

    __slots__ = ("_g",)

    def __new__(cls, graph: "ArrayGraph", node_id: int) -> "ArrayNode":
        self = object.__new__(cls)
        self._g = graph
        self.id = node_id
        return self

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        # identity is fully assigned in __new__; Node.__init__ must not run
        pass

    @property
    def labels(self):
        graph = self._g
        return graph._labelsets[graph._node_ls[self.id]]

    @property
    def properties(self) -> Dict[str, Any]:
        return self._g._node_props.map(self.id)

    def has_label(self, label: str) -> bool:
        return label in self.labels

    def get(self, key: str, default: Any = None) -> Any:
        return self._g._node_props.get(self.id, key, default)

    def __getitem__(self, key: str) -> Any:
        value = self._g._node_props.get(self.id, key, _MISS)
        if value is _MISS:
            raise KeyError(f"{self!r} has no property {key!r}")
        return value

    def __contains__(self, key: str) -> bool:
        return self._g._node_props.has(self.id, key)


class ArrayRelationship(Relationship):
    """Flyweight relationship over an :class:`ArrayGraph`.  Type and
    endpoints are resolved eagerly (they are single array reads and sit
    on every traversal hot path); properties stay columnar."""

    __slots__ = ("_g",)

    def __new__(cls, graph: "ArrayGraph", rel_id: int) -> "ArrayRelationship":
        self = object.__new__(cls)
        self._g = graph
        self.id = rel_id
        self.type = graph._type_names[graph._rel_typeid[rel_id]]
        self.start_id = graph._rel_start[rel_id]
        self.end_id = graph._rel_end[rel_id]
        return self

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        pass

    @property
    def properties(self) -> Dict[str, Any]:
        return self._g._rel_props.map(self.id)

    def get(self, key: str, default: Any = None) -> Any:
        return self._g._rel_props.get(self.id, key, default)

    def __getitem__(self, key: str) -> Any:
        value = self._g._rel_props.get(self.id, key, _MISS)
        if value is _MISS:
            raise KeyError(f"{self!r} has no property {key!r}")
        return value

    def __contains__(self, key: str) -> bool:
        return self._g._rel_props.has(self.id, key)


class ArrayGraph:
    """Read-only graph over parsed v3 snapshot columns.

    Constructed by :func:`repro.graphdb.snapshot_v3.open_snapshot` /
    ``view_snapshot``; not meant to be built by hand.  Node and
    relationship ids are dense positions (0..n-1 / 0..m-1) — exactly
    the renumbering every snapshot load has always performed, so ids
    agree with a decoded ``PropertyGraph`` of the same file.
    """

    def __init__(
        self,
        *,
        path: Optional[str],
        strings,
        labelsets,
        node_ls,
        type_names: List[str],
        type_counts: List[int],
        rel_typeid,
        rel_start,
        rel_end,
        adjacency: Adjacency,
        node_props,
        rel_props,
        index_pairs: List[Tuple[str, str]],
        closer=None,
    ) -> None:
        self._path = path
        self._strings = strings
        self._labelsets = labelsets
        self._node_ls = node_ls
        self._n = len(node_ls)
        self._m = len(rel_typeid)
        self._type_names = type_names
        self._type_index = {name: tid for tid, name in enumerate(type_names)}
        self._rel_type_counts = dict(zip(type_names, type_counts))
        self._rel_typeid = rel_typeid
        self._rel_start = rel_start
        self._rel_end = rel_end
        self._adj = adjacency
        self._node_props = node_props
        self._rel_props = rel_props
        self._index_pairs = list(index_pairs)
        self._closer = closer
        self._index_manager: Optional[IndexManager] = None
        #: (rel_type, incoming) -> (indptr, neighbour node ids)
        self._csr_cache: Dict[Tuple[str, bool], Tuple[Any, Any]] = {}

    # -- lifecycle ------------------------------------------------------

    @property
    def path(self) -> Optional[str]:
        """The snapshot file backing this view (None for in-memory
        bytes); another process can re-open it to share the same
        physical pages."""
        return self._path

    def close(self) -> None:
        """Drop the references into the backing buffer so the mapping
        can be released.  The graph is unusable afterwards; closing is
        optional (garbage collection releases the mapping too)."""
        self._node_ls = self._rel_typeid = self._rel_start = self._rel_end = ()
        self._n = self._m = 0
        self._adj = None  # type: ignore[assignment]
        self._node_props = self._rel_props = None
        self._strings = self._labelsets = None
        self._csr_cache.clear()
        closer, self._closer = self._closer, None
        if closer is not None:
            try:
                closer()
            except BufferError:
                # a still-live flyweight pins a view into the mapping;
                # garbage collection releases it once they go away
                pass

    # -- mutation: refused ----------------------------------------------

    def _read_only(self, operation: str):
        return GraphError(
            f"{operation}: ArrayGraph is a read-only snapshot view; call "
            f".materialize() for a mutable PropertyGraph"
        )

    def create_node(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("create_node")

    def create_relationship(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("create_relationship")

    def create_index(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("create_index")

    def create_relationship_index(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("create_relationship_index")

    def delete_node(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("delete_node")

    def delete_relationship(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("delete_relationship")

    def set_node_property(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("set_node_property")

    def set_relationship_property(self, *args: Any, **kwargs: Any) -> None:
        raise self._read_only("set_relationship_property")

    # -- lookup ---------------------------------------------------------

    def node(self, node_id: int) -> ArrayNode:
        if 0 <= node_id < self._n:
            return ArrayNode(self, node_id)
        raise NodeNotFoundError(f"node {node_id} does not exist")

    def relationship(self, rel_id: int) -> ArrayRelationship:
        if 0 <= rel_id < self._m:
            return ArrayRelationship(self, rel_id)
        raise RelationshipNotFoundError(f"relationship {rel_id} does not exist")

    def has_node(self, node_id: int) -> bool:
        return 0 <= node_id < self._n

    def nodes(self, label: Optional[str] = None) -> Iterator[ArrayNode]:
        if label is None:
            return (ArrayNode(self, nid) for nid in range(self._n))
        return (
            ArrayNode(self, nid) for nid in self.indexes.nodes_with_label(label)
        )

    def relationships(
        self, rel_type: Optional[str] = None
    ) -> Iterator[ArrayRelationship]:
        if rel_type is None:
            return (ArrayRelationship(self, rid) for rid in range(self._m))
        tid = self._type_index.get(rel_type)
        if tid is None:
            return iter(())
        typeids = self._rel_typeid
        return (
            ArrayRelationship(self, rid)
            for rid in range(self._m)
            if typeids[rid] == tid
        )

    def find_nodes(self, label: Optional[str] = None, **props: Any) -> List[ArrayNode]:
        candidates = None
        if label is not None and props:
            for key, value in props.items():
                hit = self.indexes.lookup(label, key, value)
                if hit is not None:
                    candidates = [ArrayNode(self, nid) for nid in hit]
                    break
        if candidates is None:
            candidates = self.nodes(label)
        out = []
        for node in candidates:
            if label is not None and not node.has_label(label):
                continue
            if all(node.get(k) == v for k, v in props.items()):
                out.append(node)
        return out

    def find_node(
        self, label: Optional[str] = None, **props: Any
    ) -> Optional[ArrayNode]:
        found = self.find_nodes(label, **props)
        return found[0] if found else None

    def relationships_with_property(
        self, key: str, rel_type: Optional[str] = None
    ) -> List[ArrayRelationship]:
        has = self._rel_props.has
        tid = None if rel_type is None else self._type_index.get(rel_type)
        if rel_type is not None and tid is None:
            return []
        typeids = self._rel_typeid
        return [
            ArrayRelationship(self, rid)
            for rid in range(self._m)
            if (tid is None or typeids[rid] == tid) and has(rid, key)
        ]

    # -- adjacency ------------------------------------------------------

    def _node_id(self, node: "Node | int") -> int:
        node_id = node.id if isinstance(node, Node) else node
        if not 0 <= node_id < self._n:
            raise NodeNotFoundError(f"node {node_id} does not exist")
        return node_id

    def out_relationships(
        self, node: "Node | int", rel_type: Optional[str] = None
    ) -> List[ArrayRelationship]:
        node_id = self._node_id(node)
        adj = self._adj
        if rel_type is None:
            indptr, ids = adj.flat_out_indptr, adj.flat_out_ids
        else:
            tid = self._type_index.get(rel_type)
            if tid is None:
                return []
            indptr, ids = adj.typed_out_indptr[tid], adj.typed_out_ids[tid]
        return [
            ArrayRelationship(self, rid)
            for rid in ids[indptr[node_id] : indptr[node_id + 1]]
        ]

    def in_relationships(
        self, node: "Node | int", rel_type: Optional[str] = None
    ) -> List[ArrayRelationship]:
        node_id = self._node_id(node)
        adj = self._adj
        if rel_type is None:
            indptr, ids = adj.flat_in_indptr, adj.flat_in_ids
        else:
            tid = self._type_index.get(rel_type)
            if tid is None:
                return []
            indptr, ids = adj.typed_in_indptr[tid], adj.typed_in_ids[tid]
        return [
            ArrayRelationship(self, rid)
            for rid in ids[indptr[node_id] : indptr[node_id + 1]]
        ]

    def out_degree(self, node: "Node | int", rel_type: Optional[str] = None) -> int:
        node_id = self._node_id(node)
        adj = self._adj
        if rel_type is None:
            indptr = adj.flat_out_indptr
        else:
            tid = self._type_index.get(rel_type)
            if tid is None:
                return 0
            indptr = adj.typed_out_indptr[tid]
        return indptr[node_id + 1] - indptr[node_id]

    def in_degree(self, node: "Node | int", rel_type: Optional[str] = None) -> int:
        node_id = self._node_id(node)
        adj = self._adj
        if rel_type is None:
            indptr = adj.flat_in_indptr
        else:
            tid = self._type_index.get(rel_type)
            if tid is None:
                return 0
            indptr = adj.typed_in_indptr[tid]
        return indptr[node_id + 1] - indptr[node_id]

    def relationships_of(
        self, node: "Node | int", rel_type: Optional[str] = None
    ) -> List[ArrayRelationship]:
        return self.out_relationships(node, rel_type) + self.in_relationships(
            node, rel_type
        )

    def degree(self, node: "Node | int") -> int:
        return self.out_degree(node) + self.in_degree(node)

    def csr_neighbors(self, rel_type: str, incoming: bool):
        """``(indptr, neighbour_ids)`` for one relationship type and
        direction: ``neighbour_ids[indptr[nid]:indptr[nid+1]]`` are the
        node ids one hop from ``nid``.  Built (and cached) on first use
        by mapping the typed CSR run through the endpoint column — the
        zero-allocation fast path for whole-graph sweeps such as the
        pathfinder's source-reachability BFS."""
        key = (rel_type, incoming)
        hit = self._csr_cache.get(key)
        if hit is None:
            tid = self._type_index.get(rel_type)
            if tid is None:
                empty = array("I", bytes(4 * (self._n + 1)))
                hit = (empty, array("I"))
            else:
                adj = self._adj
                if incoming:
                    indptr = adj.typed_in_indptr[tid]
                    ids = adj.typed_in_ids[tid]
                    endpoint = self._rel_start
                else:
                    indptr = adj.typed_out_indptr[tid]
                    ids = adj.typed_out_ids[tid]
                    endpoint = self._rel_end
                hit = (indptr, array("I", map(endpoint.__getitem__, ids)))
            self._csr_cache[key] = hit
        return hit

    # -- indexes --------------------------------------------------------

    @property
    def indexes(self) -> IndexManager:
        manager = self._index_manager
        if manager is None:
            try:
                manager = self._build_indexes()
            except IndexError as exc:
                raise StorageError(
                    f"corrupt v3 snapshot: label or index column out of range "
                    f"({exc})"
                ) from exc
            self._index_manager = manager
        return manager

    def _build_indexes(self) -> IndexManager:
        # Mirror _bulk_load_columns exactly: group node ids by labelset,
        # build each label set with one set()/update per (labelset,
        # label) pair, then backfill the declared property indexes by
        # iterating those sets.  Identical construction order gives
        # identical set iteration order, which downstream consumers
        # (find_nodes, the planner's anchor scans) observe.
        manager = IndexManager()
        labelsets = [self._labelsets[i] for i in range(len(self._labelsets))]
        groups: List[List[int]] = [[] for _ in labelsets]
        nid = 0
        for lsid in self._node_ls:
            groups[lsid].append(nid)
            nid += 1
        by_label = manager._by_label
        for labelset, ids in zip(labelsets, groups):
            for label in labelset:
                bucket = by_label.get(label)
                if bucket is None:
                    by_label[label] = set(ids)
                else:
                    bucket.update(ids)
        tables = manager._property_indexes
        for label, key in self._index_pairs:
            tables.setdefault((label, key), {})
        miss = _MISS
        node_get = self._node_props.get
        for (label, key), table in tables.items():
            table_get = table.get
            for node_id in by_label.get(label, ()):
                value = node_get(node_id, key, miss)
                if value is miss:
                    continue
                kind = type(value)
                if kind is list or kind is dict:
                    value = _index_key(value)
                entry = table_get(value)
                if entry is None:
                    table[value] = {node_id}
                else:
                    entry.add(node_id)
        return manager

    # -- statistics -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def relationship_count(self) -> int:
        return self._m

    def label_counts(self) -> Dict[str, int]:
        return self.indexes.label_counts()

    def relationship_type_counts(self) -> Dict[str, int]:
        return dict(self._rel_type_counts)

    # -- materialization ------------------------------------------------

    def materialize(self) -> PropertyGraph:
        """Decode every column and build a mutable ``PropertyGraph``
        through the trusted columnar bulk loader, ``graph_fingerprint``-
        identical to the graph the snapshot was written from."""
        node_props = self._node_props.decode_all()
        rel_props = self._rel_props.decode_all()
        labelsets = [self._labelsets[i] for i in range(len(self._labelsets))]
        rel_starts = self._rel_start
        rel_ends = self._rel_end
        if self._m:
            if max(rel_starts) >= self._n or max(rel_ends) >= self._n:
                raise StorageError(
                    "snapshot relationship references a node beyond the node count"
                )
        try:
            return _bulk_load_columns(
                PropertyGraph(),
                list(self._index_pairs),
                labelsets,
                self._node_ls,
                node_props,
                list(map(self._type_names.__getitem__, self._rel_typeid)),
                rel_starts,
                rel_ends,
                rel_props,
            )
        except IndexError as exc:
            raise StorageError(f"corrupt v3 snapshot: {exc}") from exc

    def __repr__(self) -> str:
        backing = "mmap" if self._path else "bytes"
        return (
            f"<ArrayGraph {self._n} nodes, {self._m} relationships "
            f"({backing})>"
        )
