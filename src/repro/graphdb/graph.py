"""Embedded property-graph store (the Neo4j replacement).

The paper stores Tabby's code property graph in Neo4j and queries it
with Cypher plus the *tabby-path-finder* traversal plugin.  This module
provides the storage layer: labelled nodes and typed relationships, both
carrying property maps, with label and property indexes
(:mod:`repro.graphdb.index`), a Cypher-subset query language
(:mod:`repro.graphdb.query`), guided traversal
(:mod:`repro.graphdb.traversal`), and JSON persistence
(:mod:`repro.graphdb.storage`).

Property values are restricted to JSON-representable scalars and flat
lists, matching Neo4j's property model.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import GraphError, NodeNotFoundError, RelationshipNotFoundError
from repro.graphdb.index import IndexManager, _index_key

__all__ = ["Node", "Relationship", "PropertyGraph"]


def _intern_key(key: Any) -> Any:
    """Intern property-key strings so the thousands of ``NAME``/
    ``SIGNATURE``/``POLLUTED_POSITION`` dict keys across a CPG share
    one object (and dict lookups hit the pointer-equality fast path)."""
    return sys.intern(key) if type(key) is str else key

_SCALARS = (str, int, float, bool, type(None))


def _check_property_value(key: str, value: Any) -> Any:
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            if not isinstance(item, _SCALARS):
                raise GraphError(
                    f"property {key!r}: list items must be scalars, got {item!r}"
                )
            out.append(item)
        return out
    if isinstance(value, dict):
        out_d = {}
        for k, v in value.items():
            if not isinstance(k, str) or not isinstance(v, _SCALARS + (list,)):
                raise GraphError(
                    f"property {key!r}: nested maps must be str->scalar/list"
                )
            out_d[k] = _check_property_value(f"{key}.{k}", v)
        return out_d
    raise GraphError(f"unsupported property value for {key!r}: {type(value).__name__}")


class _Entity:
    """Shared property-map behaviour of nodes and relationships."""

    __slots__ = ("id", "properties")

    def __init__(self, entity_id: int, properties: Optional[Dict[str, Any]] = None):
        self.id = entity_id
        self.properties: Dict[str, Any] = {}
        if properties:
            for key, value in properties.items():
                self.properties[_intern_key(key)] = _check_property_value(key, value)

    def get(self, key: str, default: Any = None) -> Any:
        return self.properties.get(key, default)

    def __getitem__(self, key: str) -> Any:
        try:
            return self.properties[key]
        except KeyError:
            raise KeyError(f"{self!r} has no property {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self.properties


class Node(_Entity):
    """A graph node with a set of labels and a property map."""

    __slots__ = ("labels",)

    def __init__(
        self,
        entity_id: int,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(entity_id, properties)
        self.labels: FrozenSet[str] = frozenset(labels)
        if not all(isinstance(l, str) and l for l in self.labels):
            raise GraphError("labels must be non-empty strings")

    def has_label(self, label: str) -> bool:
        return label in self.labels

    def __repr__(self) -> str:
        labels = ":".join(sorted(self.labels))
        name = self.properties.get("NAME") or self.properties.get("name") or ""
        return f"<Node {self.id} :{labels} {name}>".replace("  ", " ")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", self.id))


class Relationship(_Entity):
    """A directed, typed relationship between two nodes."""

    __slots__ = ("type", "start_id", "end_id")

    def __init__(
        self,
        entity_id: int,
        rel_type: str,
        start_id: int,
        end_id: int,
        properties: Optional[Dict[str, Any]] = None,
    ):
        if not rel_type:
            raise GraphError("relationship type must be non-empty")
        super().__init__(entity_id, properties)
        self.type = rel_type
        self.start_id = start_id
        self.end_id = end_id

    def other_id(self, node_id: int) -> int:
        """The endpoint opposite ``node_id`` (tabby-path-finder's
        ``getOtherNode``)."""
        if node_id == self.start_id:
            return self.end_id
        if node_id == self.end_id:
            return self.start_id
        raise GraphError(f"node {node_id} is not an endpoint of {self!r}")

    def __repr__(self) -> str:
        return f"<Rel {self.id} ({self.start_id})-[:{self.type}]->({self.end_id})>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("rel", self.id))


class PropertyGraph:
    """An in-memory labelled property graph with adjacency and indexes.

    Adjacency is kept twice: a flat per-node list (all relationships in
    insertion order) and a per-node *type-bucketed* index, so
    ``out_relationships(node, "CALL")`` is a dict hit instead of a
    filtered scan — the hot operation of the gadget-chain search.
    Relationship ids are monotonically increasing and adjacency lists
    only ever append, so every bucket stays sorted by id (== insertion
    order); consumers that merge buckets rely on this invariant.
    """

    #: class-level default so instances built via ``__new__`` (trusted
    #: loaders, unpickling) are mutable without an ``__init__`` call
    _frozen = False

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._rels: Dict[int, Relationship] = {}
        self._out: Dict[int, List[int]] = {}
        self._in: Dict[int, List[int]] = {}
        #: node id -> rel type -> rel ids, each bucket in insertion order
        self._out_by_type: Dict[int, Dict[str, List[int]]] = {}
        self._in_by_type: Dict[int, Dict[str, List[int]]] = {}
        #: rel type -> live relationship count, maintained incrementally
        #: so the query planner's cost model never scans the edge set
        self._rel_type_counts: Dict[str, int] = {}
        #: canonical frozenset per distinct label combination — a CPG
        #: has millions of nodes but a handful of label sets, so every
        #: node with the same labels shares one frozenset object
        self._labelset_pool: Dict[FrozenSet[str], FrozenSet[str]] = {}
        #: indexed relationship-property key -> ids of live relationships
        #: carrying that key (any value); lets annotation passes such as
        #: RTA edge marking be enumerated without scanning the edge set
        self._rel_prop_indexes: Dict[str, Set[int]] = {}
        self._next_node_id = 0
        self._next_rel_id = 0
        self.indexes = IndexManager()

    def _pooled_labels(self, labels: FrozenSet[str]) -> FrozenSet[str]:
        pooled = self._labelset_pool.get(labels)
        if pooled is None:
            pooled = frozenset(
                sys.intern(l) if type(l) is str else l for l in labels
            )
            self._labelset_pool[pooled] = pooled
        return pooled

    # -- immutability ---------------------------------------------------

    def freeze(self) -> None:
        """Make this graph permanently immutable: every mutator raises
        :class:`GraphError` from now on.  Committed MVCC versions are
        frozen so concurrent readers can rely on never observing a
        mutation (and so fingerprints may be memoised per version)."""
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _writable(self) -> None:
        if self._frozen:
            raise GraphError(
                "graph is frozen (a committed MVCC version is immutable); "
                "open a write_txn() on the VersionedGraph to mutate"
            )

    # -- creation -------------------------------------------------------

    def create_node(
        self, labels: Iterable[str] = (), properties: Optional[Dict[str, Any]] = None
    ) -> Node:
        self._writable()
        node = Node(self._next_node_id, labels, properties)
        node.labels = self._pooled_labels(node.labels)
        self._next_node_id += 1
        self._nodes[node.id] = node
        self._out[node.id] = []
        self._in[node.id] = []
        self._out_by_type[node.id] = {}
        self._in_by_type[node.id] = {}
        self.indexes.index_node(node)
        return node

    def create_relationship(
        self,
        rel_type: str,
        start: "Node | int",
        end: "Node | int",
        properties: Optional[Dict[str, Any]] = None,
    ) -> Relationship:
        self._writable()
        start_id = start.id if isinstance(start, Node) else start
        end_id = end.id if isinstance(end, Node) else end
        if start_id not in self._nodes:
            raise NodeNotFoundError(f"start node {start_id} does not exist")
        if end_id not in self._nodes:
            raise NodeNotFoundError(f"end node {end_id} does not exist")
        rel = Relationship(self._next_rel_id, rel_type, start_id, end_id, properties)
        self._next_rel_id += 1
        self._rels[rel.id] = rel
        self._out[start_id].append(rel.id)
        self._in[end_id].append(rel.id)
        self._out_by_type[start_id].setdefault(rel_type, []).append(rel.id)
        self._in_by_type[end_id].setdefault(rel_type, []).append(rel.id)
        self._rel_type_counts[rel_type] = self._rel_type_counts.get(rel_type, 0) + 1
        if rel.properties:
            for key in self._rel_prop_indexes:
                if key in rel.properties:
                    self._rel_prop_indexes[key].add(rel.id)
        return rel

    # -- indexing -----------------------------------------------------------

    def create_index(self, label: str, key: str) -> None:
        """Declare a (label, property) index and backfill it over the
        nodes already in the graph, so lookups are complete no matter
        when the index is declared.  The query planner routes anchor
        scans through these indexes and assumes completeness."""
        self._writable()
        self.indexes.create_index(label, key, nodes=self.nodes(label))

    def create_relationship_index(self, key: str) -> None:
        """Declare a relationship-property presence index and backfill
        it, so :meth:`relationships_with_property` is a set lookup no
        matter when the index is declared.  Idempotent."""
        self._writable()
        if key in self._rel_prop_indexes:
            return
        self._rel_prop_indexes[_intern_key(key)] = {
            rel.id for rel in self._rels.values() if key in rel.properties
        }

    def relationships_with_property(
        self, key: str, rel_type: Optional[str] = None
    ) -> List[Relationship]:
        """Live relationships carrying property ``key`` (any value), in
        id order; served from the presence index when one exists."""
        indexed = self._rel_prop_indexes.get(key)
        if indexed is not None:
            rels = [self._rels[rel_id] for rel_id in sorted(indexed)]
        else:
            rels = [rel for rel in self._rels.values() if key in rel.properties]
        if rel_type is not None:
            rels = [rel for rel in rels if rel.type == rel_type]
        return rels

    # -- deletion -----------------------------------------------------------

    def delete_relationship(self, rel: "Relationship | int") -> None:
        self._writable()
        rel_id = rel.id if isinstance(rel, Relationship) else rel
        found = self._rels.pop(rel_id, None)
        if found is None:
            raise RelationshipNotFoundError(f"relationship {rel_id} does not exist")
        self._out[found.start_id].remove(rel_id)
        self._in[found.end_id].remove(rel_id)
        out_bucket = self._out_by_type[found.start_id][found.type]
        out_bucket.remove(rel_id)
        if not out_bucket:
            del self._out_by_type[found.start_id][found.type]
        in_bucket = self._in_by_type[found.end_id][found.type]
        in_bucket.remove(rel_id)
        if not in_bucket:
            del self._in_by_type[found.end_id][found.type]
        remaining = self._rel_type_counts[found.type] - 1
        if remaining:
            self._rel_type_counts[found.type] = remaining
        else:
            del self._rel_type_counts[found.type]
        for indexed in self._rel_prop_indexes.values():
            indexed.discard(rel_id)

    def delete_node(self, node: "Node | int", detach: bool = False) -> None:
        self._writable()
        node_id = node.id if isinstance(node, Node) else node
        found = self._nodes.get(node_id)
        if found is None:
            raise NodeNotFoundError(f"node {node_id} does not exist")
        attached = self._out[node_id] + self._in[node_id]
        if attached and not detach:
            raise GraphError(
                f"node {node_id} still has {len(attached)} relationships; "
                "use detach=True"
            )
        for rel_id in list(attached):
            if rel_id in self._rels:
                self.delete_relationship(rel_id)
        self.indexes.unindex_node(found)
        del self._nodes[node_id]
        del self._out[node_id]
        del self._in[node_id]
        del self._out_by_type[node_id]
        del self._in_by_type[node_id]

    # -- property updates ------------------------------------------------------

    def set_node_property(self, node: "Node | int", key: str, value: Any) -> None:
        self._writable()
        found = self.node(node.id if isinstance(node, Node) else node)
        self.indexes.unindex_node(found)
        found.properties[_intern_key(key)] = _check_property_value(key, value)
        self.indexes.index_node(found)

    def set_relationship_property(
        self, rel: "Relationship | int", key: str, value: Any
    ) -> None:
        self._writable()
        found = self.relationship(rel.id if isinstance(rel, Relationship) else rel)
        found.properties[_intern_key(key)] = _check_property_value(key, value)
        indexed = self._rel_prop_indexes.get(key)
        if indexed is not None:
            indexed.add(found.id)

    # -- lookup -----------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(f"node {node_id} does not exist") from None

    def relationship(self, rel_id: int) -> Relationship:
        try:
            return self._rels[rel_id]
        except KeyError:
            raise RelationshipNotFoundError(
                f"relationship {rel_id} does not exist"
            ) from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def nodes(self, label: Optional[str] = None) -> Iterator[Node]:
        if label is None:
            yield from self._nodes.values()
            return
        for node_id in self.indexes.nodes_with_label(label):
            yield self._nodes[node_id]

    def relationships(self, rel_type: Optional[str] = None) -> Iterator[Relationship]:
        for rel in self._rels.values():
            if rel_type is None or rel.type == rel_type:
                yield rel

    def find_nodes(self, label: Optional[str] = None, **props: Any) -> List[Node]:
        """Nodes matching a label and exact property values; uses a
        property index when one exists."""
        candidates: Optional[Iterable[Node]] = None
        if label is not None and props:
            for key, value in props.items():
                hit = self.indexes.lookup(label, key, value)
                if hit is not None:
                    candidates = [self._nodes[i] for i in hit]
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

    def find_node(self, label: Optional[str] = None, **props: Any) -> Optional[Node]:
        found = self.find_nodes(label, **props)
        return found[0] if found else None

    # -- adjacency ------------------------------------------------------------------

    def out_relationships(
        self, node: "Node | int", rel_type: Optional[str] = None
    ) -> List[Relationship]:
        node_id = node.id if isinstance(node, Node) else node
        if node_id not in self._nodes:
            raise NodeNotFoundError(f"node {node_id} does not exist")
        if rel_type is None:
            return [self._rels[i] for i in self._out[node_id]]
        bucket = self._out_by_type[node_id].get(rel_type)
        return [self._rels[i] for i in bucket] if bucket else []

    def in_relationships(
        self, node: "Node | int", rel_type: Optional[str] = None
    ) -> List[Relationship]:
        node_id = node.id if isinstance(node, Node) else node
        if node_id not in self._nodes:
            raise NodeNotFoundError(f"node {node_id} does not exist")
        if rel_type is None:
            return [self._rels[i] for i in self._in[node_id]]
        bucket = self._in_by_type[node_id].get(rel_type)
        return [self._rels[i] for i in bucket] if bucket else []

    def out_degree(self, node: "Node | int", rel_type: Optional[str] = None) -> int:
        node_id = node.id if isinstance(node, Node) else node
        if rel_type is None:
            return len(self._out[node_id])
        return len(self._out_by_type[node_id].get(rel_type, ()))

    def in_degree(self, node: "Node | int", rel_type: Optional[str] = None) -> int:
        node_id = node.id if isinstance(node, Node) else node
        if rel_type is None:
            return len(self._in[node_id])
        return len(self._in_by_type[node_id].get(rel_type, ()))

    def relationships_of(
        self, node: "Node | int", rel_type: Optional[str] = None
    ) -> List[Relationship]:
        return self.out_relationships(node, rel_type) + self.in_relationships(
            node, rel_type
        )

    def degree(self, node: "Node | int") -> int:
        node_id = node.id if isinstance(node, Node) else node
        return len(self._out[node_id]) + len(self._in[node_id])

    # -- statistics ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def relationship_count(self) -> int:
        return len(self._rels)

    def label_counts(self) -> Dict[str, int]:
        return self.indexes.label_counts()

    def relationship_type_counts(self) -> Dict[str, int]:
        return dict(self._rel_type_counts)

    # -- integrity ------------------------------------------------------------------

    def check_integrity(self) -> List[str]:
        """Compare every maintained secondary structure — adjacency
        lists, typed adjacency buckets, relationship-type counters,
        relationship-property presence indexes, and the label/property
        node indexes — against a from-scratch recomputation over
        ``_nodes``/``_rels``.

        Returns a list of human-readable discrepancy descriptions
        (empty = consistent).  Mutating paths (deletion in particular)
        are exercised far less than construction, so the CPG verifier
        runs this after in-place patches to catch counter drift
        immediately instead of as a corrupted query result later.
        """
        problems: List[str] = []

        out_ref: Dict[int, List[int]] = {nid: [] for nid in self._nodes}
        in_ref: Dict[int, List[int]] = {nid: [] for nid in self._nodes}
        out_by_type_ref: Dict[int, Dict[str, List[int]]] = {
            nid: {} for nid in self._nodes
        }
        in_by_type_ref: Dict[int, Dict[str, List[int]]] = {
            nid: {} for nid in self._nodes
        }
        type_counts_ref: Dict[str, int] = {}
        for rel_id, rel in self._rels.items():
            if rel.start_id not in self._nodes or rel.end_id not in self._nodes:
                problems.append(
                    f"relationship {rel_id} references a deleted node"
                )
                continue
            out_ref[rel.start_id].append(rel_id)
            in_ref[rel.end_id].append(rel_id)
            out_by_type_ref[rel.start_id].setdefault(rel.type, []).append(rel_id)
            in_by_type_ref[rel.end_id].setdefault(rel.type, []).append(rel_id)
            type_counts_ref[rel.type] = type_counts_ref.get(rel.type, 0) + 1

        def _diff_adjacency(name: str, actual, reference) -> None:
            if set(actual) != set(reference):
                problems.append(f"{name} covers a different node-id set")
                return
            for nid, ref_list in reference.items():
                if sorted(actual[nid]) != sorted(ref_list):
                    problems.append(f"{name}[{nid}] drifted from the edge set")

        _diff_adjacency("_out", self._out, out_ref)
        _diff_adjacency("_in", self._in, in_ref)
        for name, actual, reference in (
            ("_out_by_type", self._out_by_type, out_by_type_ref),
            ("_in_by_type", self._in_by_type, in_by_type_ref),
        ):
            if set(actual) != set(reference):
                problems.append(f"{name} covers a different node-id set")
                continue
            for nid, ref_buckets in reference.items():
                buckets = actual[nid]
                if set(buckets) != set(ref_buckets):
                    problems.append(
                        f"{name}[{nid}] has stale or missing type buckets"
                    )
                    continue
                for rel_type, ref_ids in ref_buckets.items():
                    if sorted(buckets[rel_type]) != sorted(ref_ids):
                        problems.append(
                            f"{name}[{nid}][{rel_type}] drifted from the edge set"
                        )
        if self._rel_type_counts != type_counts_ref:
            problems.append(
                "relationship-type counters drifted: "
                f"maintained={dict(sorted(self._rel_type_counts.items()))} "
                f"actual={dict(sorted(type_counts_ref.items()))}"
            )
        for key, indexed in self._rel_prop_indexes.items():
            reference = {
                rel_id
                for rel_id, rel in self._rels.items()
                if key in rel.properties
            }
            if indexed != reference:
                problems.append(
                    f"relationship-property presence index {key!r} drifted "
                    f"({len(indexed)} indexed vs {len(reference)} actual)"
                )

        by_label_ref: Dict[str, Set[int]] = {}
        for nid, node in self._nodes.items():
            for label in node.labels:
                by_label_ref.setdefault(label, set()).add(nid)
        if self.indexes._by_label != by_label_ref:
            problems.append(
                "label index drifted: "
                f"maintained counts={self.indexes.label_counts()} "
                f"actual counts={ {l: len(ids) for l, ids in sorted(by_label_ref.items())} }"
            )
        for (label, key), table in self.indexes._property_indexes.items():
            table_ref: Dict[Any, Set[int]] = {}
            for nid in by_label_ref.get(label, ()):
                props = self._nodes[nid].properties
                if key in props:
                    table_ref.setdefault(_index_key(props[key]), set()).add(nid)
            if table != table_ref:
                problems.append(
                    f"property index ({label}, {key}) drifted from the node set"
                )
        return problems

    def __repr__(self) -> str:
        return (
            f"<PropertyGraph {self.node_count} nodes, "
            f"{self.relationship_count} relationships>"
        )


def _bulk_load(
    graph: PropertyGraph,
    indexes: Iterable[Tuple[str, str]],
    nodes: Iterable[Tuple[Iterable[str], Optional[Dict[str, Any]]]],
    rels: Iterable[Tuple[str, int, int, Optional[Dict[str, Any]]]],
) -> PropertyGraph:
    """Trusted bulk loader: populate an **empty** graph from columns.

    This is the warm-start fast path of the v1 JSON loader
    (:func:`repro.graphdb.storage.graph_from_dict`).  It is *trusted*:
    property maps are installed as-is, without re-running
    :func:`_check_property_value` — sound because snapshot writers only
    emit values that passed validation when the graph was first built.
    Compared with replaying ``create_node``/``create_relationship`` per
    entity it skips per-property validation, per-node index maintenance
    (indexes are backfilled in batch below) and constructor plumbing,
    while producing a graph that is structurally identical by
    construction:

    * node/relationship ids are assigned densely in input order
      (exactly the legacy loader's remapping — ``rels`` must reference
      nodes by dense position);
    * label frozensets are pooled and label/key strings interned, so
      the resident graph is also *smaller* than one built naively;
    * ``_rel_type_counts``, flat and type-bucketed adjacency, the label
      index and every declared property index come out as if each
      entity had been added individually.
    """
    if graph._nodes or graph._rels:
        raise GraphError("bulk load requires an empty graph")
    _nodes = graph._nodes
    _out, _in = graph._out, graph._in
    _out_by_type, _in_by_type = graph._out_by_type, graph._in_by_type
    pool = graph._labelset_pool
    pooled = pool.get
    new_node = Node.__new__
    #: labelset -> node ids, for batched label-index construction
    label_groups: Dict[FrozenSet[str], List[int]] = {}
    nid = 0
    for labels, props in nodes:
        key = labels if type(labels) is frozenset else frozenset(labels)
        labelset = pooled(key)
        if labelset is None:
            labelset = graph._pooled_labels(key)
        node = new_node(Node)
        node.id = nid
        node.labels = labelset
        node.properties = props if props is not None else {}
        _nodes[nid] = node
        _out[nid] = []
        _in[nid] = []
        _out_by_type[nid] = {}
        _in_by_type[nid] = {}
        group = label_groups.get(labelset)
        if group is None:
            label_groups[labelset] = [nid]
        else:
            group.append(nid)
        nid += 1
    graph._next_node_id = nid

    # label index: one set.update per (labelset, label) pair instead of
    # one set.add per (node, label) pair
    by_label = graph.indexes._by_label
    for labelset, ids in label_groups.items():
        for label in labelset:
            bucket = by_label.get(label)
            if bucket is None:
                by_label[label] = set(ids)
            else:
                bucket.update(ids)

    # property indexes: batch backfill over the labelled nodes only
    tables = graph.indexes._property_indexes
    for label, key in indexes:
        tables.setdefault((_intern_key(label), _intern_key(key)), {})
    for (label, key), table in tables.items():
        for node_id in by_label.get(label, ()):
            props = _nodes[node_id].properties
            if key in props:
                entry = table.setdefault(_index_key(props[key]), set())
                entry.add(node_id)

    _rels = graph._rels
    counts = graph._rel_type_counts
    new_rel = Relationship.__new__
    rid = 0
    try:
        for rel_type, start, end, props in rels:
            rel = new_rel(Relationship)
            rel.id = rid
            rel.type = rel_type
            rel.start_id = start
            rel.end_id = end
            rel.properties = props if props is not None else {}
            _rels[rid] = rel
            _out[start].append(rid)
            _in[end].append(rid)
            out_buckets = _out_by_type[start]
            bucket = out_buckets.get(rel_type)
            if bucket is None:
                out_buckets[rel_type] = [rid]
            else:
                bucket.append(rid)
            in_buckets = _in_by_type[end]
            bucket = in_buckets.get(rel_type)
            if bucket is None:
                in_buckets[rel_type] = [rid]
            else:
                bucket.append(rid)
            counts[rel_type] = counts.get(rel_type, 0) + 1
            rid += 1
    except KeyError as exc:
        raise NodeNotFoundError(
            f"relationship {rid} references unknown node {exc}"
        ) from exc
    graph._next_rel_id = rid
    return graph


def _bulk_load_columns(
    graph: PropertyGraph,
    indexes: Iterable[Tuple[str, str]],
    labelsets: List[FrozenSet[str]],
    node_labelsets: "array | List[int]",
    node_props: List[Dict[str, Any]],
    rel_types: List[str],
    rel_starts: "array | List[int]",
    rel_ends: "array | List[int]",
    rel_props: List[Dict[str, Any]],
) -> PropertyGraph:
    """Trusted bulk loader over *columns* (the v3 materialize path).

    Produces a graph :func:`~repro.graphdb.snapshot.graph_fingerprint`-
    identical to :func:`_bulk_load` over the zipped rows, but exploits
    what only columnar input can offer: whole structures built with one
    C-level call each (``dict(enumerate(...))`` entity tables, list/
    dict-display adjacency containers, a :class:`collections.Counter`
    for the relationship-type counts, ``map`` for labelset and string
    lookups) instead of per-entity dict insertions.  The v1 JSON path
    cannot use this loader — its rows interleave per-entity — which is
    why the two trusted paths coexist.

    Node ids are dense positions (``node_labelsets[i]`` describes node
    ``i``); ``rel_starts``/``rel_ends`` must already be validated to be
    ``< len(node_props)`` (the snapshot decoder checks this before
    calling), and every labelset id must be ``< len(labelsets)`` — an
    out-of-range id surfaces as ``IndexError`` for the caller to wrap.
    """
    if graph._nodes or graph._rels:
        raise GraphError("bulk load requires an empty graph")
    n = len(node_props)
    m = len(rel_props)

    pooled_sets = [graph._pooled_labels(labelset) for labelset in labelsets]
    new_node = Node.__new__
    nodes = [new_node(Node) for _ in range(n)]
    node_labels = list(map(pooled_sets.__getitem__, node_labelsets))
    nid = 0
    for node, labels, props in zip(nodes, node_labels, node_props):
        node.id = nid
        node.labels = labels
        node.properties = props
        nid += 1
    graph._nodes = dict(enumerate(nodes))
    graph._next_node_id = n

    # label index: group ids by labelset id, then one set.update per
    # (labelset, label) pair
    labelset_groups: List[List[int]] = [[] for _ in pooled_sets]
    nid = 0
    for lsid in node_labelsets:
        labelset_groups[lsid].append(nid)
        nid += 1
    by_label = graph.indexes._by_label
    for labelset, ids in zip(pooled_sets, labelset_groups):
        for label in labelset:
            bucket = by_label.get(label)
            if bucket is None:
                by_label[label] = set(ids)
            else:
                bucket.update(ids)

    # property indexes: batch backfill.  _index_key is the identity for
    # everything but lists and dicts, so the call is skipped for scalars
    # (the overwhelmingly common case).
    tables = graph.indexes._property_indexes
    for label, key in indexes:
        tables.setdefault((_intern_key(label), _intern_key(key)), {})
    miss = object()
    for (label, key), table in tables.items():
        table_get = table.get
        for node_id in by_label.get(label, ()):
            value = node_props[node_id].get(key, miss)
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

    new_rel = Relationship.__new__
    rel_objs = [new_rel(Relationship) for _ in range(m)]
    graph._rels = dict(enumerate(rel_objs))
    graph._rel_type_counts.update(Counter(rel_types))
    graph._next_rel_id = m
    out_lists: List[List[int]] = [[] for _ in range(n)]
    in_lists: List[List[int]] = [[] for _ in range(n)]
    out_buckets: List[Dict[str, List[int]]] = [{} for _ in range(n)]
    in_buckets: List[Dict[str, List[int]]] = [{} for _ in range(n)]
    rid = 0
    for rel, rel_type, start, end, props in zip(
        rel_objs, rel_types, rel_starts, rel_ends, rel_props
    ):
        rel.id = rid
        rel.type = rel_type
        rel.start_id = start
        rel.end_id = end
        rel.properties = props
        out_lists[start].append(rid)
        in_lists[end].append(rid)
        buckets = out_buckets[start]
        bucket = buckets.get(rel_type)
        if bucket is None:
            buckets[rel_type] = [rid]
        else:
            bucket.append(rid)
        buckets = in_buckets[end]
        bucket = buckets.get(rel_type)
        if bucket is None:
            buckets[rel_type] = [rid]
        else:
            bucket.append(rid)
        rid += 1
    graph._out = dict(enumerate(out_lists))
    graph._in = dict(enumerate(in_lists))
    graph._out_by_type = dict(enumerate(out_buckets))
    graph._in_by_type = dict(enumerate(in_buckets))
    return graph
