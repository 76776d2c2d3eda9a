"""Embedded property-graph database (the Neo4j replacement).

* :mod:`repro.graphdb.graph` — nodes, relationships, adjacency
* :mod:`repro.graphdb.index` — label and property indexes
* :mod:`repro.graphdb.query` — Cypher-subset query language
* :mod:`repro.graphdb.plan` — cost-based query planner + optimized
  executor (EXPLAIN/PROFILE)
* :mod:`repro.graphdb.traversal` — path, evaluation and uniqueness
  vocabulary of the gadget-chain search (the *tabby-path-finder*
  substrate)
* :mod:`repro.graphdb.storage` — persistence front end (v3 binary and
  v1 JSON, auto-detected on read)
* :mod:`repro.graphdb.snapshot_v3` — the v3 zero-copy snapshot codec
  (mmap-able columns, CSR adjacency, lazy property columns)
* :mod:`repro.graphdb.arraygraph` — the read-only graph view over a
  v3 snapshot
* :mod:`repro.graphdb.snapshot` — structural graph fingerprints
* :mod:`repro.graphdb.mvcc` — copy-on-write MVCC version chain
  (wait-free snapshot reads, single serialized writer)
* :mod:`repro.graphdb.wal` — CRC-framed write-ahead log with crash
  recovery and compaction into v3 base snapshots
"""

from repro.graphdb.graph import Node, PropertyGraph, Relationship
from repro.graphdb.mvcc import VersionedGraph, WriteTransaction, version_of
from repro.graphdb.plan import QueryPlan, build_plan
from repro.graphdb.query import QueryResult, run_query
from repro.graphdb.snapshot import fingerprint_digest, graph_fingerprint
from repro.graphdb.storage import load_graph, save_graph
from repro.graphdb.wal import WriteAheadLog
from repro.graphdb.traversal import Evaluation, Path, Uniqueness

__all__ = [
    "PropertyGraph",
    "Node",
    "Relationship",
    "run_query",
    "QueryResult",
    "QueryPlan",
    "build_plan",
    "save_graph",
    "load_graph",
    "graph_fingerprint",
    "fingerprint_digest",
    "VersionedGraph",
    "WriteTransaction",
    "WriteAheadLog",
    "version_of",
    "Path",
    "Evaluation",
    "Uniqueness",
]
