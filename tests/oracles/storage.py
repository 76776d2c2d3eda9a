"""Reference loader for the v1 JSON document: one validated call per entity.

:func:`repro.graphdb.storage.graph_from_dict` installs a v1 document
through the trusted bulk loader, skipping per-property validation and
backfilling indexes and adjacency in batch.  This is the loader it
replaced: every index declared up front, then one validated
``create_node``/``create_relationship`` call per entity.  It is kept
only as the differential oracle of ``tests/graphdb/test_storage.py``:
the bulk path must produce a ``graph_fingerprint``-identical graph.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import StorageError
from repro.graphdb.graph import PropertyGraph
from repro.graphdb.storage import _FORMAT_VERSION

__all__ = ["_graph_from_dict_checked"]


def _graph_from_dict_checked(data: Dict[str, Any]) -> PropertyGraph:
    """The legacy v1 loader: one validated ``create_*`` call per entity."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise StorageError(f"unsupported graph format version: {version!r}")
    graph = PropertyGraph()
    for label, key in data.get("indexes", ()):
        graph.indexes.create_index(label, key)
    id_map: Dict[int, int] = {}
    try:
        for spec in data["nodes"]:
            node = graph.create_node(spec["labels"], spec.get("properties") or {})
            id_map[spec["id"]] = node.id
        for spec in data["relationships"]:
            graph.create_relationship(
                spec["type"],
                id_map[spec["start"]],
                id_map[spec["end"]],
                spec.get("properties") or {},
            )
    except KeyError as exc:
        raise StorageError(f"malformed graph document: missing {exc}") from exc
    return graph
