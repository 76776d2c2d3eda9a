"""Structural graph fingerprints (tests, benchmarks, serve and the WAL).

:func:`graph_fingerprint` is the complete observable state of a graph
as plain comparables; :func:`fingerprint_digest` is a SHA-256 over its
canonical form.  Tests, benchmarks, serve and the WAL import both from
this module path.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from repro.graphdb.graph import PropertyGraph

__all__ = ["graph_fingerprint", "fingerprint_digest"]


def graph_fingerprint(graph: PropertyGraph) -> Dict[str, Any]:
    """The complete observable state of a graph, as plain comparables.

    Covers everything the differential gate cares about: entities with
    labels and property maps, declared indexes *and their contents*,
    the label index, flat and type-bucketed adjacency, relationship-
    type counts, and the id counters.  Two graphs with equal
    fingerprints are interchangeable for every query, traversal and
    chain search.

    A zero-copy snapshot view (:class:`~repro.graphdb.arraygraph.ArrayGraph`)
    is fingerprinted as the graph it decodes to, so a view and the
    decoded graph of the same file have equal fingerprints.
    """
    if not isinstance(graph, PropertyGraph):
        graph = graph.materialize()
    indexes = graph.indexes
    return {
        "nodes": [
            (node.id, sorted(node.labels), node.properties)
            for node in graph._nodes.values()
        ],
        "relationships": [
            (rel.id, rel.type, rel.start_id, rel.end_id, rel.properties)
            for rel in graph._rels.values()
        ],
        "next_ids": (graph._next_node_id, graph._next_rel_id),
        "out": {nid: list(ids) for nid, ids in graph._out.items()},
        "in": {nid: list(ids) for nid, ids in graph._in.items()},
        "out_by_type": {
            nid: {t: list(b) for t, b in buckets.items()}
            for nid, buckets in graph._out_by_type.items()
        },
        "in_by_type": {
            nid: {t: list(b) for t, b in buckets.items()}
            for nid, buckets in graph._in_by_type.items()
        },
        "rel_type_counts": dict(graph._rel_type_counts),
        "label_index": {
            label: sorted(ids) for label, ids in indexes._by_label.items() if ids
        },
        "declared_indexes": indexes.indexes(),
        "property_indexes": {
            pair: sorted(
                ((repr(value), sorted(ids)) for value, ids in table.items() if ids),
            )
            for pair, table in indexes._property_indexes.items()
        },
    }


def _canonical(obj: Any) -> str:
    """A deterministic serialization that depends only on value
    equality, not on dict insertion order.

    ``repr`` of two ``==`` dicts can differ (a COW-committed graph and
    its reloaded base snapshot build their dicts in different orders),
    so the digest must sort dict items; sequences keep their order.
    """
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in items
        ) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(_canonical(x) for x in obj) + ")"
    if isinstance(obj, list):
        return "[" + ",".join(_canonical(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(x) for x in obj)) + "}"
    return repr(obj)


def fingerprint_digest(graph: PropertyGraph) -> str:
    """SHA-256 over the canonical form of :func:`graph_fingerprint`.

    Memoised on *frozen* graphs (committed MVCC versions): a frozen
    graph can never change, so the digest is computed at most once per
    version and "invalidation on commit" falls out of the design — a
    commit publishes a fresh graph object with no cached digest.
    Mutable graphs are never memoised.
    """
    cached = getattr(graph, "_fingerprint_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256(
        _canonical(graph_fingerprint(graph)).encode("utf-8")
    ).hexdigest()
    if getattr(graph, "_frozen", False):
        graph._fingerprint_digest = digest
    return digest
