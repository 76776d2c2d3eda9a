"""Content-hash keys and the in-memory result store for ``tabby serve``.

The service's cache discipline is the one :mod:`repro.core.summary_cache`
established for per-class summaries, lifted to whole submissions: a
job's result is a pure function of

1. the submitted code — the raw jasm bundle text, or the resolved
   corpus component names (component generators are deterministic),
2. the analysis options in effect (source catalog, depth, filters), and
3. the sink/source catalog revisions, folded in via
   :func:`repro.core.summary_cache.catalog_token`,

so the store keys on a SHA-256 over exactly those inputs plus a format
version.  Two byte-identical submissions — from the same client or
different ones — share one computation and one stored result; a
semantically identical but textually different bundle merely misses
the cache and recomputes, which is always safe.

Hashing the *raw* submission (rather than a parsed canonical form)
keeps the warm path allocation-free: a cache-hit ``POST /jobs`` costs
one digest over the request body, no jasm parsing.  Parsing happens
once, in the worker, for submissions that actually compute.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.sinks import SinkCatalog
from repro.core.sources import SourceCatalog
from repro.core.summary_cache import catalog_token

__all__ = [
    "SERVE_FORMAT_VERSION",
    "JobResult",
    "ResultStore",
    "bundle_key",
    "canonical_options",
]

#: bump when the submission schema or the pipeline semantics change —
#: same contract as ``summary_cache.CACHE_FORMAT_VERSION``
SERVE_FORMAT_VERSION = 1

#: recognised analysis options and their defaults; ``canonical_options``
#: fills these in so hash keys never depend on which defaults a client
#: spelled out explicitly
OPTION_DEFAULTS: Dict[str, Any] = {
    "sources": "extended",
    "max_depth": 12,
    "source_filter": None,
    "refine": "",
}


def canonical_options(options: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate and default-fill a submission's options.

    Raises ``ValueError`` on unknown keys or ill-typed values; the HTTP
    layer maps that to a 400.
    """
    merged = dict(OPTION_DEFAULTS)
    for key, value in (options or {}).items():
        if key not in OPTION_DEFAULTS:
            raise ValueError(f"unknown option: {key}")
        merged[key] = value
    if merged["sources"] not in ("native", "extended"):
        raise ValueError("options.sources must be 'native' or 'extended'")
    if not isinstance(merged["max_depth"], int) or isinstance(merged["max_depth"], bool) \
            or not 1 <= merged["max_depth"] <= 64:
        raise ValueError("options.max_depth must be an integer in [1, 64]")
    if merged["source_filter"] is not None and not isinstance(
        merged["source_filter"], str
    ):
        raise ValueError("options.source_filter must be a string or null")
    if not isinstance(merged["refine"], str):
        raise ValueError(
            "options.refine must be a comma-separated string of modes"
        )
    if merged["refine"].strip():
        from repro.analysis.chain_refiner import parse_refine_modes

        try:
            modes = parse_refine_modes(merged["refine"])
        except ValueError as exc:
            raise ValueError(f"options.refine: {exc}")
        # canonical spelling so "taint,rta", "rta, taint" and "rta,taint"
        # all share one cache key
        merged["refine"] = ",".join(modes)
    else:
        merged["refine"] = ""
    return merged


def bundle_key(
    kind: str,
    payload: Sequence[str],
    options: Dict[str, Any],
    sinks: Optional[SinkCatalog] = None,
    sources: Optional[SourceCatalog] = None,
) -> str:
    """The content hash a submission is cached under: ``payload`` is a
    :class:`~repro.serve.jobs.Submission`'s, order preserved (jar order
    is analysis-relevant; callers sort what is order-free)."""
    h = hashlib.sha256()
    h.update(
        f"serve-v{SERVE_FORMAT_VERSION}|{catalog_token(sinks, sources)}|".encode()
    )
    h.update(kind.encode())
    for chunk in payload:
        h.update(b"\x00")
        h.update(chunk.encode("utf-8"))
    h.update(b"\x01")
    h.update(json.dumps(options, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


@dataclass
class JobResult:
    """Everything a completed job can serve, keyed by content hash.

    ``graph`` keeps the built CPG queryable (``GET .../query``) without
    re-running the pipeline, for as long as the store holds the result:
    the job manager releases it on eviction; ``fingerprint`` is a digest of
    :func:`repro.graphdb.snapshot.graph_fingerprint`, the identity the
    equivalence tests compare cache hits against recomputation with.
    """

    key: str
    chain_records: List[Dict[str, Any]] = field(default_factory=list)
    lint_records: List[Dict[str, Any]] = field(default_factory=list)
    verdict_records: List[Dict[str, Any]] = field(default_factory=list)
    refine_stats: Dict[str, Any] = field(default_factory=dict)
    #: the versioned tabby-diff/v2 document, for ``diff`` jobs only
    diff_record: Dict[str, Any] = field(default_factory=dict)
    graph: Any = None
    fingerprint: str = ""
    cpg_row: Dict[str, Any] = field(default_factory=dict)
    search_row: Dict[str, Any] = field(default_factory=dict)
    class_count: int = 0
    compute_seconds: float = 0.0


class ResultStore:
    """A thread-safe LRU map ``content hash -> JobResult``.

    Eviction only ever forgets *cached* work — a completed job keeps a
    direct reference to its own result, so polling an existing job
    keeps its chains, lint, verdicts and fingerprint; eviction means the
    next identical submission recomputes, and the job manager releases
    the evicted result's graph (the hypothesis battery in
    ``tests/serve/test_store_properties.py`` pins both halves of that
    contract).
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("store capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, JobResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evicted = 0
        #: ``on_evict(key, result)`` fires for every entry leaving the
        #: store (LRU pressure or explicit :meth:`evict`), *outside* the
        #: store lock; the job manager sets it to release the result's
        #: graph and retire the opened snapshot versions no stored
        #: result uses any more
        self.on_evict: Callable[[str, JobResult], None] = lambda key, result: None

    def get(self, key: str) -> Optional[JobResult]:
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result

    def peek(self, key: str) -> Optional[JobResult]:
        """The stored result, without counting a hit or refreshing its
        recency."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, result: JobResult) -> None:
        dropped: List[Tuple[str, JobResult]] = []
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            self.stored += 1
            while len(self._entries) > self.capacity:
                dropped.append(self._entries.popitem(last=False))
                self.evicted += 1
        for old_key, old_result in dropped:
            self.on_evict(old_key, old_result)

    def evict(self, key: str) -> bool:
        with self._lock:
            result = self._entries.pop(key, None)
            if result is None:
                return False
            self.evicted += 1
        self.on_evict(key, result)
        return True

    def keys(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "stored": self.stored,
                "evicted": self.evicted,
            }
