"""Persistent method-summary cache for CPG construction.

Algorithm 1 (the controllability analysis) is the dominant cost of a
CPG build, and its result for a class is a pure function of

1. the class's own code (its jasm text),
2. the code of every class its analysis can transitively consult —
   supertypes and statically referenced callees (the *dependency
   closure*), and
3. nothing else.

This module persists summaries per class, keyed by a content hash over
exactly those inputs plus a catalog-version token (sink/source catalog
revisions) and a format version.  Re-analysing overlapping classpaths —
the per-component workflow of ``find_chains`` and ``bench_table_ix`` —
then skips Algorithm 1 entirely for every unchanged class.

The cache is safe by construction:

* any load failure (missing file, corrupt JSON, schema drift, stale
  method references) degrades to a cache miss, never an error;
* summaries flagged :attr:`ControllabilityAnalysis.cycle_tainted` are
  never persisted: their values involve cycle breaking, and seeding
  them into a later build could perturb the deterministic re-analysis
  of their cycle partners;
* writes are atomic (temp file + rename), so a crashed build leaves at
  worst a stale temp file, not a truncated entry.

The portable record codec (:func:`encode_summary` /
:func:`decode_summary`) is shared with :mod:`repro.core.incremental`,
which re-binds kept summaries to a patched hierarchy through it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.actions import Action
from repro.core.controllability import CallSite, MethodSummary
from repro.core.sinks import SinkCatalog
from repro.core.sources import SourceCatalog
from repro.jvm import ir
from repro.jvm.hierarchy import ClassHierarchy
from repro.jvm.model import JavaClass, JavaMethod

__all__ = [
    "CACHE_FORMAT_VERSION",
    "encode_summary",
    "decode_summary",
    "catalog_token",
    "class_content_key",
    "referenced_class_names",
    "dependency_closures",
    "SummaryCache",
    "SummaryCacheStats",
]

_LOG = logging.getLogger("repro.core.summary_cache")

#: bump when the record schema or the analysis semantics change
#: (2: a static field no longer reads as a field of the local named
#: like its package root)
CACHE_FORMAT_VERSION = 2

#: strings longer than this are left as-is on read-back (interned
#: strings live for the rest of the process)
_INTERN_MAX = 512


def _intern_tree(value):
    """Intern the strings of a JSON-shaped record in place-ish.

    ``json.loads`` memoises object *keys* within one document but
    allocates a fresh string per value occurrence and shares nothing
    across cache entries.  Warm builds read one record file per class,
    so the same class names, sub-signatures and action atoms come back
    thousands of times; interning them on read-back makes the warm
    summary phase share one object per distinct string — the same
    dedup the v3 graph snapshot's string table performs.
    """
    kind = type(value)
    if kind is str:
        return sys.intern(value) if len(value) <= _INTERN_MAX else value
    if kind is list:
        return [_intern_tree(item) for item in value]
    if kind is dict:
        return {_intern_tree(k): _intern_tree(v) for k, v in value.items()}
    return value


# ---------------------------------------------------------------------------
# Portable summary records
# ---------------------------------------------------------------------------


def encode_summary(summary: MethodSummary) -> Dict[str, object]:
    """A JSON-serialisable record reproducing ``summary`` exactly."""
    sites = []
    for site in summary.call_sites:
        resolved = None
        if site.resolved is not None:
            resolved = [
                site.resolved.class_name,
                site.resolved.signature.sub_signature,
            ]
        sites.append(
            {
                "kind": site.kind,
                "callee_class": site.callee_class,
                "callee_name": site.callee_name,
                "arity": site.arity,
                "pp": list(site.polluted_position),
                "pruned": site.pruned,
                "site_index": site.site_index,
                "resolved": resolved,
            }
        )
    method = summary.method
    return {
        "class": method.class_name,
        "subsig": method.signature.sub_signature,
        "action": summary.action.to_property(),
        "sites": sites,
    }


def _lookup_method(
    hierarchy: ClassHierarchy, class_name: str, sub_signature: str
) -> JavaMethod:
    cls = hierarchy.get(class_name)
    if cls is None:
        raise KeyError(f"class not in hierarchy: {class_name}")
    method = cls.method(sub_signature)
    if method is None:
        raise KeyError(f"method not in hierarchy: <{class_name}: {sub_signature}>")
    return method


def decode_summary(
    record: Dict[str, object], hierarchy: ClassHierarchy
) -> MethodSummary:
    """Rehydrate a record against ``hierarchy``.

    Raises ``KeyError``/``TypeError``/``ValueError`` when the record
    does not match the hierarchy or the schema — callers treat any of
    those as a cache miss.
    """
    method = _lookup_method(hierarchy, record["class"], record["subsig"])
    summary = MethodSummary(method, Action(dict(record["action"])))
    for raw in record["sites"]:
        resolved = None
        if raw["resolved"] is not None:
            res_class, res_subsig = raw["resolved"]
            resolved = _lookup_method(hierarchy, res_class, res_subsig)
        summary.call_sites.append(
            CallSite(
                caller=method,
                kind=str(raw["kind"]),
                callee_class=str(raw["callee_class"]),
                callee_name=str(raw["callee_name"]),
                arity=int(raw["arity"]),
                polluted_position=[int(w) for w in raw["pp"]],
                resolved=resolved,
                pruned=bool(raw["pruned"]),
                site_index=int(raw["site_index"]),
            )
        )
    return summary


# ---------------------------------------------------------------------------
# Cache keying
# ---------------------------------------------------------------------------


def catalog_token(
    sinks: Optional[SinkCatalog] = None, sources: Optional[SourceCatalog] = None
) -> str:
    """A stable digest of the sink/source catalogs in effect.

    Summaries do not read the catalogs today, but keying on them keeps
    the cache conservative across catalog revisions (per the paper,
    sink knowledge evolves independently of the analysed code)."""
    payload: List[object] = []
    if sinks is not None:
        payload.append(
            sorted(
                (s.class_name, s.method_name, s.category, list(s.trigger_condition))
                for s in sinks
            )
        )
    if sources is not None:
        payload.append([sorted(sources.names), sources.require_serializable])
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def _names_in_value(value: ir.Value, out: Set[str]) -> None:
    if isinstance(value, ir.StaticFieldRef):
        out.add(value.class_name)
    elif isinstance(value, ir.ClassConst):
        out.add(value.class_name)
    elif isinstance(value, ir.NewExpr):
        out.add(value.class_name)
    elif isinstance(value, ir.NewArrayExpr):
        out.add(value.element_type.name.rstrip("[]"))
        _names_in_value(value.size, out)
    elif isinstance(value, ir.CastExpr):
        out.add(value.target_type.name.rstrip("[]"))
        _names_in_value(value.op, out)
    elif isinstance(value, ir.InstanceOfExpr):
        out.add(value.check_type.name.rstrip("[]"))
        _names_in_value(value.op, out)
    elif isinstance(value, ir.BinOpExpr):
        _names_in_value(value.left, out)
        _names_in_value(value.right, out)
    elif isinstance(value, ir.InvokeExpr):
        out.add(value.class_name)
        if value.base is not None:
            _names_in_value(value.base, out)
        for arg in value.args:
            _names_in_value(arg, out)
    elif isinstance(value, ir.ArrayRef):
        _names_in_value(value.index, out)


def referenced_class_names(cls: JavaClass) -> Set[str]:
    """Every class name the analysis of ``cls`` may consult: supertypes,
    member types, and all names appearing in method bodies."""
    out: Set[str] = set()
    if cls.super_name:
        out.add(cls.super_name)
    out.update(cls.interface_names)
    for field in cls.fields.values():
        out.add(field.type.name.rstrip("[]"))
    for method in cls.methods.values():
        for ptype in method.param_types:
            out.add(ptype.name.rstrip("[]"))
        out.add(method.return_type.name.rstrip("[]"))
        for stmt in method.body:
            if isinstance(stmt, ir.AssignStmt):
                _names_in_value(stmt.target, out)
                _names_in_value(stmt.rhs, out)
            elif isinstance(stmt, ir.InvokeStmt):
                _names_in_value(stmt.expr, out)
            elif isinstance(stmt, ir.ReturnStmt):
                if stmt.value is not None:
                    _names_in_value(stmt.value, out)
            elif isinstance(stmt, ir.IfStmt):
                _names_in_value(stmt.cond, out)
            elif isinstance(stmt, ir.SwitchStmt):
                _names_in_value(stmt.key, out)
            elif isinstance(stmt, ir.ThrowStmt):
                _names_in_value(stmt.value, out)
    out.discard(cls.name)
    return out


def class_content_key(
    class_name: str,
    class_texts: Dict[str, str],
    closure: Sequence[str],
    catalog_token: str = "",
) -> str:
    """Content hash over a class's jasm text plus the jasm of its whole
    dependency closure, namespaced by the catalog token and the cache
    format version.

    This is the summary identity used by :class:`SummaryCache` *and* by
    the incremental analyzer's dirty-set computation
    (:mod:`repro.core.incremental`): two versions of a class with equal
    keys are guaranteed to produce identical summaries, and therefore
    identical ORG/PCG/MAG graph slices.
    """
    h = hashlib.sha256()
    h.update(f"v{CACHE_FORMAT_VERSION}|{catalog_token}|".encode("utf-8"))
    h.update(class_name.encode("utf-8"))
    for dep in sorted(closure):
        h.update(b"\x00")
        h.update(dep.encode("utf-8"))
        h.update(b"\x01")
        h.update(class_texts[dep].encode("utf-8"))
    return h.hexdigest()


def dependency_closures(hierarchy: ClassHierarchy) -> Dict[str, List[str]]:
    """For each defined class, the sorted set of defined classes its
    analysis can transitively consult (including itself)."""
    refs: Dict[str, List[str]] = {}
    for cls in hierarchy.classes:
        refs[cls.name] = sorted(
            name for name in referenced_class_names(cls) if name in hierarchy
        )
    closures: Dict[str, List[str]] = {}
    for name in refs:
        seen = {name}
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for dep in refs.get(current, ()):
                if dep not in seen:
                    seen.add(dep)
                    frontier.append(dep)
        closures[name] = sorted(seen)
    return closures


# ---------------------------------------------------------------------------
# The on-disk store
# ---------------------------------------------------------------------------


class SummaryCacheStats:
    """Hit/miss/corruption counters for one build."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stored = 0
        self.skipped_tainted = 0
        self.invalidated = 0
        self.evicted = 0

    def as_row(self) -> Dict[str, int]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_corrupt": self.corrupt,
            "cache_stored": self.stored,
            "cache_skipped_tainted": self.skipped_tainted,
            "cache_invalidated": self.invalidated,
            "cache_evicted": self.evicted,
        }

    def __repr__(self) -> str:
        return (
            f"<SummaryCacheStats hits={self.hits} misses={self.misses} "
            f"corrupt={self.corrupt} stored={self.stored}>"
        )


class SummaryCache:
    """Per-class summary records on disk, under ``cache_dir``.

    ``max_mb`` caps the total size of the entry files: after every
    store, the least-recently-used entries (by file mtime — loads touch
    the file) are evicted until the directory fits.  ``None`` (the
    default) keeps the cache unbounded, matching the historical
    behaviour.
    """

    def __init__(
        self,
        cache_dir: str,
        catalog_token: str = "",
        max_mb: Optional[float] = None,
    ):
        if max_mb is not None and max_mb <= 0:
            raise ValueError("max_mb must be positive (or None for unbounded)")
        self.cache_dir = cache_dir
        self.catalog_token = catalog_token
        self.max_mb = max_mb
        self.stats = SummaryCacheStats()
        os.makedirs(cache_dir, exist_ok=True)

    # -- keys -------------------------------------------------------------

    def class_key(
        self,
        class_name: str,
        class_texts: Dict[str, str],
        closure: Sequence[str],
    ) -> str:
        """Content hash over the class's jasm text and the jasm of its
        whole dependency closure (so a change anywhere the analysis can
        look invalidates the entry)."""
        return class_content_key(
            class_name, class_texts, closure, self.catalog_token
        )

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    # -- load/store -------------------------------------------------------

    def load(self, key: str, class_name: str) -> Optional[List[Dict[str, object]]]:
        """The stored records for ``key``, or None on any failure."""
        path = self._path(key)
        if not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not an object")
            if payload.get("version") != CACHE_FORMAT_VERSION:
                raise ValueError("cache format version mismatch")
            if payload.get("class") != class_name:
                raise ValueError("cache entry names a different class")
            records = payload["records"]
            if not isinstance(records, list):
                raise ValueError("cache records must be a list")
            for record in records:
                if not isinstance(record, dict) or "subsig" not in record:
                    raise ValueError("malformed summary record")
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            _LOG.warning(
                "unreadable summary cache entry treated as miss: "
                "class=%s key=%s path=%s error=%s: %s",
                class_name,
                key,
                path,
                type(exc).__name__,
                exc,
            )
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        try:
            # LRU touch: eviction orders entries by mtime
            os.utime(path)
        except OSError:
            pass
        return _intern_tree(records)

    def store(
        self, key: str, class_name: str, records: List[Dict[str, object]]
    ) -> None:
        """Atomically persist ``records`` under ``key``."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "class": class_name,
            "records": records,
        }
        fd, tmp_path = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stored += 1
        if self.max_mb is not None:
            self._enforce_size_cap(keep=key)

    # -- invalidation / eviction ------------------------------------------

    def invalidate(self, class_hashes: Iterable[str]) -> int:
        """Drop the entries stored under the given content keys.

        Used by the incremental analyzer when a class's dependency
        closure changes: the superseded keys can never be looked up
        again (lookups always use current-content keys), so dropping
        them reclaims space immediately instead of waiting for LRU
        eviction.  Returns the number of entries actually removed.
        """
        removed = 0
        for key in class_hashes:
            try:
                os.unlink(self._path(key))
            except OSError:
                continue
            removed += 1
        self.stats.invalidated += removed
        return removed

    def _entry_files(self) -> List[Tuple[float, int, str]]:
        """(mtime, size, path) for every entry file, oldest first."""
        entries: List[Tuple[float, int, str]] = []
        try:
            with os.scandir(self.cache_dir) as it:
                for item in it:
                    if not item.name.endswith(".json") or item.name.startswith(
                        ".tmp-"
                    ):
                        continue
                    try:
                        info = item.stat()
                    except OSError:
                        continue
                    entries.append((info.st_mtime, info.st_size, item.path))
        except OSError:
            return []
        entries.sort()
        return entries

    def _enforce_size_cap(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used entries until the cache fits
        ``max_mb``; the just-written ``keep`` key is never evicted."""
        budget = self.max_mb * 1024 * 1024
        entries = self._entry_files()
        total = sum(size for _mtime, size, _path in entries)
        keep_path = self._path(keep) if keep is not None else None
        for _mtime, size, path in entries:
            if total <= budget:
                break
            if path == keep_path:
                continue
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            self.stats.evicted += 1
