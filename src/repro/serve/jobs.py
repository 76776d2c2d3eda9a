"""The async job queue behind ``tabby serve``.

A submission travels: ``normalize_submission`` (shape validation +
content hash, in the HTTP thread) -> :meth:`JobManager.submit` (dedup
decision under one lock) -> a bounded pool of worker threads running
one pipeline for every job kind -> the content-hash-keyed
:class:`repro.serve.store.ResultStore`.

Every job kind runs one pipeline (:meth:`JobManager._compute`): a
per-kind step acquires the CPG the submission names, and one tail
searches it, lints and refines when classes were submitted,
fingerprints it and builds the :class:`~repro.serve.store.JobResult`.

Deduplication is two-layered and atomic with respect to the manager
lock:

* **in-flight** — while a job for hash H is queued or running, every
  further submission of H *attaches* to it (same job id, zero extra
  compute);
* **warm** — once H's result is stored, a submission of H creates a
  job that is born ``done``, serving the stored result.

Between the two there is no window in which a second computation for H
can start: a worker commits ``store.put`` and retires the in-flight
entry under the same lock a submitter consults both in.  The
concurrency battery (``tests/serve/test_concurrency.py``) asserts the
exactly-one-computation-per-hash consequence directly.

Workers are *threads*, not processes: one job's pipeline is the same
single-process code path the CLI runs, so N service workers bound
memory at N live CPGs while the summary cache (``cache_dir``) is
shared across all of them, processes included.
"""

from __future__ import annotations

import hashlib
import os
import queue
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.api import Tabby
from repro.core.chains import chain_record
from repro.core.cpg import CPGStatistics
from repro.core.pathfinder import SearchStatistics
from repro.core.sinks import SinkCatalog
from repro.core.sources import SourceCatalog
from repro.errors import ReproError
from repro.graphdb import fingerprint_digest
from repro.graphdb.mvcc import VersionedGraph, version_of
from repro.graphdb.storage import load_graph, open_graph
from repro.serve.store import JobResult, ResultStore, bundle_key, canonical_options

__all__ = [
    "Job",
    "JobManager",
    "JobState",
    "LiveGraph",
    "Submission",
    "normalize_submission",
]

_SENTINEL = object()

_KINDS = ("classes", "components", "snapshot", "diff", "live")

#: kinds that search a graph as it is: no class hierarchy, so no refining
_GRAPH_ONLY = {"snapshot": "a persisted CPG", "live": "the shared CPG"}


class JobState:
    """Terminal states are DONE/FAILED/CANCELLED; the rest progress."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset((DONE, FAILED, CANCELLED))


@dataclass(frozen=True)
class Submission:
    """A validated, content-addressed unit of work.  ``payload`` is
    what ``key`` hashes besides the options: jasm chunks (a diff's are
    led by the old side's count), sorted component names, a snapshot
    name and its file's stat token, or the live path and version."""

    kind: str  # one of _KINDS
    payload: Tuple[str, ...]
    options: Dict[str, Any]
    key: str
    #: ``live`` jobs only: the immutable MVCC snapshot pinned at
    #: submission time.  Not part of the content identity — the pinned
    #: *version number* already is, via ``payload``/``key``.
    pinned: Any = field(default=None, compare=False)


def _stat_token(path: str) -> str:
    """A file version's stat identity, size and mtime_ns: it stands in
    for the content, which is too costly to hash per submission."""
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def _resolve_snapshot(name: Any, snapshot_dir: Optional[str]) -> str:
    """Validate a snapshot job's file reference and return its path.

    The name is a plain file name (or relative path) inside the
    server's ``--snapshot-dir``; absolute paths and any path that
    escapes the directory are rejected so clients can never address
    arbitrary files on the host.
    """
    if snapshot_dir is None:
        raise ValueError(
            "snapshot jobs are disabled (start the server with --snapshot-dir)"
        )
    if not isinstance(name, str) or not name.strip():
        raise ValueError("'snapshot' must be a non-empty file name")
    if os.path.isabs(name) or ".." in name.replace("\\", "/").split("/"):
        raise ValueError("'snapshot' must be a relative path inside the "
                         "snapshot directory")
    base = os.path.realpath(snapshot_dir)
    path = os.path.realpath(os.path.join(base, name))
    if path != base and not path.startswith(base + os.sep):
        raise ValueError("'snapshot' must be a relative path inside the "
                         "snapshot directory")
    if not os.path.isfile(path):
        raise ValueError(f"snapshot not found: {name}")
    return path


def _jasm_chunks(value: Any, name: str) -> Tuple[str, ...]:
    """A ``classes`` value or a diff side as a tuple of jasm chunks."""
    chunks = [value] if isinstance(value, str) else value
    if (
        not isinstance(chunks, list)
        or not chunks
        or not all(isinstance(c, str) and c.strip() for c in chunks)
    ):
        raise ValueError(
            f"'{name}' must be a non-empty jasm string or list of jasm strings"
        )
    return tuple(chunks)


def normalize_submission(
    body: Any,
    sinks: Optional[SinkCatalog] = None,
    snapshot_dir: Optional[str] = None,
    live: Optional["LiveGraph"] = None,
) -> Submission:
    """Validate a ``POST /jobs`` body and compute its content hash.

    Raises ``ValueError`` with a client-presentable message on any
    shape problem (the HTTP layer answers 400).  Deliberately cheap:
    no jasm parsing happens here, so the warm path of an identical
    resubmission costs one SHA-256 over the raw bundle text (or, for
    ``snapshot`` jobs, over the file's stat identity — the file itself
    is only opened, zero-copy, inside the worker).
    """
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(body) - {*_KINDS, "options"}
    if unknown:
        raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
    kinds_present = [k for k in _KINDS if k in body]
    if len(kinds_present) != 1:
        raise ValueError(
            "provide exactly one of 'classes', 'components', 'snapshot', "
            "'diff' or 'live'"
        )
    kind = kinds_present[0]
    value = body[kind]
    options = body.get("options")
    if options is not None and not isinstance(options, dict):
        raise ValueError("'options' must be a JSON object")
    options = canonical_options(options)

    pinned, catalogs = None, {}
    if kind == "live":
        if live is None:
            raise ValueError(
                "live jobs are disabled (start the server with --live)"
            )
        if value is not True:
            raise ValueError("'live' must be the JSON literal true")
        # pin the current committed version NOW (one atomic attribute
        # read — wait-free w.r.t. any in-flight writer); the version
        # number is the content identity, so a commit between two
        # submissions gives the second one a fresh key while the first
        # keeps serving its pinned version
        pinned, version = live.pin()
        payload = (live.path, str(version))
    elif kind == "snapshot":
        path = _resolve_snapshot(value, snapshot_dir)
        # the key must change when the file does; the worker checks the
        # file still has this token before it files a result under it
        payload = (value, _stat_token(path))
    else:
        catalogs = {
            "sinks": sinks, "sources": SourceCatalog.named(options["sources"]),
        }
        if kind == "diff":
            if not isinstance(value, dict) or set(value) != {"old", "new"}:
                raise ValueError(
                    "'diff' must be an object with exactly 'old' and 'new' "
                    "jasm bundles"
                )
            old = _jasm_chunks(value["old"], "diff.old")
            new = _jasm_chunks(value["new"], "diff.new")
            # both versions' content feeds the key; the leading count
            # keeps ("ab","c") vs ("a","bc") splits from colliding
            payload = (str(len(old)),) + old + new
        elif kind == "classes":
            payload = _jasm_chunks(value, "classes")
        else:
            if (
                not isinstance(value, list)
                or not value
                or not all(isinstance(n, str) for n in value)
            ):
                raise ValueError("'components' must be a non-empty list of "
                                 "component names")
            from repro.corpus import COMPONENT_NAMES

            bad = sorted(set(value) - set(COMPONENT_NAMES))
            if bad:
                raise ValueError(f"unknown component(s): {', '.join(bad)}")
            # order-independent: the resolved classpath is lang base + the
            # sorted component set either way
            payload = tuple(sorted(set(value)))
    if kind in _GRAPH_ONLY and options["refine"]:
        raise ValueError(
            f"{kind} jobs cannot refine: {_GRAPH_ONLY[kind]} carries no class "
            "hierarchy (rebuild from classes/components instead)"
        )
    key = bundle_key(kind, payload, options, **catalogs)
    return Submission(
        kind=kind, payload=payload, options=options, key=key, pinned=pinned
    )


def _parse(chunks: Sequence[str]) -> List[Any]:
    """The classes of jasm chunks, in order.  Runs in the worker, so a
    syntax error (``ReproError``) fails the job, not the request."""
    from repro.jvm import jasm

    return [cls for chunk in chunks for cls in jasm.loads(chunk)]


class LiveGraph:
    """The shared, MVCC-versioned CPG behind ``tabby serve --live``.

    One :class:`~repro.graphdb.graph.PropertyGraph` is decoded from the
    snapshot file at startup and published as version 0 of a
    :class:`~repro.graphdb.mvcc.VersionedGraph`.  Every ``live`` job
    pins an immutable committed version with one atomic read at
    submission time — N concurrent jobs walk the same physical
    structure with no lock and no per-job reopen — while
    :meth:`refresh` (the snapshot file changed on disk, e.g. an
    incremental-analysis writer saved a new version) commits the new
    graph as the next MVCC version without disturbing any in-flight
    reader: their pinned versions stay frozen and fingerprint-stable.
    """

    def __init__(self, path: str):
        if not os.path.isfile(path):
            raise ValueError(f"live CPG not found: {path}")
        self.path = path
        self._refresh_lock = threading.Lock()
        self._stat_token = _stat_token(path)
        self.versioned = VersionedGraph(load_graph(path))
        self.refreshes = 0

    def pin(self) -> Tuple[Any, int]:
        """The current committed version plus its number (wait-free)."""
        graph = self.versioned.begin_snapshot()
        return graph, version_of(graph)

    def refresh(self, force: bool = False) -> Dict[str, Any]:
        """Commit the on-disk snapshot as the next version if it changed.

        Stat identity (size + mtime_ns, the same token snapshot-job
        cache keys use) decides "changed"; ``force=True`` reloads
        unconditionally.  Concurrent refreshes serialize here, readers
        never wait.
        """
        with self._refresh_lock:
            token = _stat_token(self.path)
            changed = force or token != self._stat_token
            if changed:
                graph = load_graph(self.path)
                with self.versioned.write_txn() as txn:
                    txn.replace(graph)
                self._stat_token = token
                self.refreshes += 1
            return {"refreshed": changed, "version": self.versioned.version}

    def stats(self) -> Dict[str, Any]:
        graph, version = self.pin()
        return {
            "path": self.path,
            "version": version,
            "nodes": graph.node_count,
            "relationships": graph.relationship_count,
            # memoised on the frozen version: repeat /stats polls between
            # commits don't re-walk the graph
            "fingerprint": fingerprint_digest(graph),
            "refreshes": self.refreshes,
        }


def _refine_modes(options: Dict[str, Any]) -> Optional[Tuple[str, ...]]:
    """The canonical ``options.refine`` string as ``refine=`` modes."""
    return tuple(options["refine"].split(",")) if options["refine"] else None


def _cpg_row(stats: CPGStatistics) -> Dict[str, Any]:
    row = stats.as_row()
    row["phase_seconds"] = dict(stats.phase_seconds)
    row["analyzed_methods"] = stats.analyzed_method_count
    row["cached_methods"] = stats.cached_method_count
    row["cache_hits"] = stats.cache_hits
    row["cache_misses"] = stats.cache_misses
    return row


def _search_row(stats: SearchStatistics) -> Dict[str, Any]:
    row = asdict(stats)
    row["phase_seconds"] = dict(stats.phase_seconds)
    return row


class Job:
    """One submission's lifecycle record (shared by attached submits)."""

    def __init__(self, job_id: str, submission: Submission):
        self.id = job_id
        self.submission = submission
        self.key = submission.key
        self.state = JobState.QUEUED
        self.phase = "queued"
        self.cached = False
        self.attached = 0
        self.error: Optional[str] = None
        self.result: Optional[JobResult] = None
        self.progress: Dict[str, Any] = {}
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.event = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self.event.wait(timeout)

    def end(self, state: str) -> None:
        """Enter a terminal state and drop the inputs only a computation
        reads: the bundle text and a ``live`` job's pinned version."""
        self.state = state
        self.phase = state
        self.finished = time.time()
        self.submission = replace(self.submission, payload=(), pinned=None)

    def as_dict(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` document (also the list-entry shape)."""
        doc: Dict[str, Any] = {
            "id": self.id,
            "key": self.key,
            "state": self.state,
            "phase": self.phase,
            "cached": self.cached,
            "attached": self.attached,
            "kind": self.submission.kind,
            "options": dict(self.submission.options),
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": dict(self.progress),
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.result is not None:
            doc["chain_count"] = len(self.result.chain_records)
            doc["fingerprint"] = self.result.fingerprint
        return doc


class JobManager:
    """Bounded worker pool + dedup + result store, one lock for all
    lifecycle transitions."""

    def __init__(
        self,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        cache_dir: Optional[str] = None,
        sinks: Optional[SinkCatalog] = None,
        max_queue: int = 0,
        inline: bool = False,
        snapshot_dir: Optional[str] = None,
        live: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if snapshot_dir is not None and not os.path.isdir(snapshot_dir):
            raise ValueError(f"snapshot_dir is not a directory: {snapshot_dir}")
        self.workers = workers
        self.store = store if store is not None else ResultStore()
        self.cache_dir = cache_dir
        self.sinks = sinks
        #: directory of persisted CPG snapshots servable via the
        #: ``snapshot`` job kind; None disables the kind entirely
        self.snapshot_dir = snapshot_dir
        #: the shared MVCC-versioned CPG behind ``live`` jobs; None
        #: disables the kind entirely
        self.live: Optional[LiveGraph] = LiveGraph(live) if live else None
        self.max_queue = max_queue
        self.inline = inline
        # opened-graph cache for snapshot jobs: per file version (path +
        # stat token), the opened graph, the SHA-256 of its bytes and the
        # keys of the results using it, shared by every job over that
        # version and retired with the last of those results
        self._snap_lock = threading.Lock()
        self._snapshots: Dict[str, Tuple[Any, str, Set[str]]] = {}
        self.snapshot_cache_hits = 0
        self.snapshot_cache_opens = 0
        self.store.on_evict = self._result_evicted
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._jobs: Dict[str, Job] = {}
        self._active: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._next_id = 0
        self._threads: List[threading.Thread] = []
        # counters (guarded by _lock)
        self.submitted = 0
        self.computed = 0
        self.attached_total = 0
        self.cache_hits = 0
        self.failed = 0
        self.cancelled = 0
        if not inline:
            for n in range(workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"tabby-serve-worker-{n}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        body: Any = None,
        *,
        submission: Optional[Submission] = None,
    ) -> Tuple[Optional[Job], str]:
        """Admit one submission.

        Returns ``(job, status)`` with status one of ``"new"`` (will
        compute), ``"attached"`` (rides an in-flight identical job),
        ``"cached"`` (born done from the store), ``"overloaded"``
        (bounded queue full) or ``"closed"`` (shutting down); job is
        None for the last two.
        """
        sub = submission if submission is not None else normalize_submission(
            body, sinks=self.sinks, snapshot_dir=self.snapshot_dir,
            live=self.live,
        )
        run_now: Optional[Job] = None
        with self._lock:
            if self._closed:
                return None, "closed"
            self.submitted += 1
            active = self._active.get(sub.key)
            if active is not None:
                active.attached += 1
                self.attached_total += 1
                return active, "attached"
            stored = self.store.get(sub.key)
            if stored is not None:
                job = self._new_job(sub)
                job.end(JobState.DONE)
                job.cached = True
                job.result = stored
                job.progress = {"cpg": stored.cpg_row, "search": stored.search_row}
                job.finished = job.created
                job.event.set()
                self.cache_hits += 1
                return job, "cached"
            if self.max_queue and self._queue.qsize() >= self.max_queue:
                return None, "overloaded"
            job = self._new_job(sub)
            self._active[sub.key] = job
            if self.inline:
                run_now = job
            else:
                self._queue.put(job)
        if run_now is not None:
            self._run_job(run_now)
            return run_now, "new"
        return job, "new"

    def _new_job(self, sub: Submission) -> Job:
        self._next_id += 1
        job = Job(f"j{self._next_id:05d}", sub)
        self._jobs[job.id] = job
        return job

    # -- lookup / deletion -------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def delete(self, job_id: str, purge: bool = False) -> str:
        """Remove a job record.

        ``"deleted"`` on success (queued jobs are cancelled first),
        ``"running"`` when refused (the computation is in flight — its
        attached waiters still poll it), ``"missing"`` otherwise.
        ``purge=True`` additionally evicts the job's stored result, so
        the next identical submission recomputes.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return "missing"
            if job.state == JobState.RUNNING:
                return "running"
            if job.state == JobState.QUEUED:
                job.end(JobState.CANCELLED)
                self._active.pop(job.key, None)
                self.cancelled += 1
                job.event.set()
            del self._jobs[job_id]
            if purge:
                self.store.evict(job.key)
            return "deleted"

    # -- the worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            self._run_job(item)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state != JobState.QUEUED:  # cancelled while queued
                return
            job.state = JobState.RUNNING
            job.started = time.time()
            job.phase = "parse"
        try:
            result = self._compute(job)
        except (ReproError, ValueError, OSError) as exc:
            with self._lock:
                job.end(JobState.FAILED)
                job.error = str(exc)
                self._active.pop(job.key, None)
                self.failed += 1
            job.event.set()
            return
        with self._lock:
            job.result = result
            job.end(JobState.DONE)
            # commit + retire atomically w.r.t. submit(): no window in
            # which an identical submission could start a second compute
            self.store.put(job.key, result)
            self._active.pop(job.key, None)
            self.computed += 1
        job.event.set()

    def _compute(self, job: Job) -> JobResult:
        """The one pipeline: :meth:`_acquire` yields the job's CPG, then
        one tail searches it (a diff job keeps its diff's chains), lints
        and refines when classes were submitted, and fingerprints it.
        Phase markers and statistics rows feed the progress endpoint."""
        from repro.lint import lint_classes

        started = time.perf_counter()
        sub = job.submission
        tabby, classes, diff, fingerprint = self._acquire(job)
        cpg = tabby.build_cpg()
        job.progress["cpg"] = _cpg_row(cpg.statistics)
        if sub.kind == "live":
            job.progress["version"] = int(sub.payload[1])
        if diff is None:
            job.phase = "search"
            chains = tabby.find_gadget_chains(
                max_depth=sub.options["max_depth"],
                source_filter=sub.options["source_filter"],
                refine=_refine_modes(sub.options),
            )
            records = [chain_record(chain) for chain in chains]
        else:
            records = diff["survived"] + diff["appeared"]
        job.progress["search"] = _search_row(tabby.last_search_stats)
        refined = tabby.last_refine
        lint_records: List[Dict[str, Any]] = []
        if classes is not None:
            job.phase = "lint"
            lint_records = [issue.to_dict() for issue in lint_classes(classes)]
        job.phase = "fingerprint"
        return JobResult(
            key=job.key,
            chain_records=records,
            lint_records=lint_records,
            verdict_records=refined.records() if refined is not None else [],
            refine_stats=refined.statistics if refined is not None else {},
            diff_record=diff or {},
            graph=cpg.graph,
            fingerprint=fingerprint or fingerprint_digest(cpg.graph),
            cpg_row=job.progress["cpg"],
            search_row=job.progress["search"],
            class_count=tabby.class_count,
            compute_seconds=time.perf_counter() - started,
        )

    def _acquire(self, job: Job) -> Tuple[
        Tabby, Optional[List[Any]], Optional[Dict[str, Any]], Optional[str]
    ]:
        """The per-kind step of :meth:`_compute`: a :class:`Tabby`
        holding the job's CPG, the submitted classes the tail lints
        (None for a diff and the graph-only kinds), a diff job's
        document (its survived and appeared chains are the result's)
        and a snapshot's file digest (its fingerprint)."""
        sub = job.submission
        if sub.kind == "live":
            # a frozen committed MVCC version: a pure read over structure
            # shared with every other live job, unchanged by a refresh
            return Tabby.from_graph(sub.pinned), None, None, None
        if sub.kind == "snapshot":
            job.phase = "open"
            graph, digest = self._open_snapshot(job)
            return Tabby.from_graph(graph), None, None, digest
        tabby = Tabby(
            sinks=self.sinks,
            sources=SourceCatalog.named(sub.options["sources"]),
            cache_dir=self.cache_dir,
        )
        if sub.kind == "diff":
            from repro.core.incremental import diff_to_dict

            split = 1 + int(sub.payload[0])
            old, new = _parse(sub.payload[1:split]), _parse(sub.payload[split:])
            job.phase = "diff"
            # the old version builds cold and patches into the new one;
            # the Tabby then holds the NEW version's CPG
            diff = diff_to_dict(tabby.diff_versions(
                old,
                new,
                max_depth=sub.options["max_depth"],
                source_filter=sub.options["source_filter"],
                refine=_refine_modes(sub.options),
            ))
            job.progress["diff"] = diff["summary"]
            return tabby, None, diff, None
        if sub.kind == "classes":
            classes = _parse(sub.payload)
        else:
            from repro.corpus import build_component, build_lang_base

            classes = build_lang_base()
            for name in sub.payload:
                classes += build_component(name).classes
        job.phase = "build_cpg"
        tabby.add_classes(classes).build_cpg()
        return tabby, classes, None, None

    def _open_snapshot(self, job: Job) -> Tuple[Any, str]:
        """The graph and SHA-256 of the snapshot version a job's key
        names, from the opened-graph cache.

        A v3 file is mmap'd in place — concurrent jobs over one file walk
        one physical copy — and a v1 JSON file decodes; a retired format
        fails the job with the storage error that names the remedy.  A
        miss opens and hashes the file once, then checks it still has
        the key's stat token: a file replaced since submission fails the
        job, so key, graph and fingerprint name one version."""
        name, token = job.submission.payload
        path = _resolve_snapshot(name, self.snapshot_dir)
        version = f"{path}|{token}"
        with self._snap_lock:
            entry = self._snapshots.get(version)
        opened = entry is None
        if opened:
            graph = open_graph(path)
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            if _stat_token(path) != token:
                raise ValueError(
                    f"snapshot {name} changed after submission; resubmit "
                    "the job to analyse the current file"
                )
            entry = (graph, digest.hexdigest(), set())
        with self._snap_lock:
            # a worker that raced another's open keeps the first graph
            kept = self._snapshots.setdefault(version, entry)
            if opened and kept is entry:
                self.snapshot_cache_opens += 1
            else:
                self.snapshot_cache_hits += 1
            kept[2].add(job.key)
        return kept[0], kept[1]

    def _result_evicted(self, key: str, result: JobResult) -> None:
        """Result-store eviction hook: release the result's graph, and
        retire every opened snapshot version no stored result uses any
        more.

        Jobs that still hold the result keep serving its chains, lint,
        verdicts, diff and fingerprint; ``GET /jobs/<id>/query`` on a
        released graph answers 410, and resubmitting recomputes it."""
        result.graph = None
        with self._snap_lock:
            for version, (_graph, _digest, keys) in list(self._snapshots.items()):
                keys.discard(key)
                if not keys:
                    del self._snapshots[version]

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting work and retire the pool.

        ``drain=True`` lets every already-queued job run to completion
        before the workers exit; ``drain=False`` cancels queued jobs
        immediately (running ones always finish — the pipeline has no
        safe preemption point).  Idempotent.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            if not drain:
                for queued in self._jobs.values():
                    if queued.state == JobState.QUEUED:
                        queued.end(JobState.CANCELLED)
                        self._active.pop(queued.key, None)
                        self.cancelled += 1
                        queued.event.set()
        if already:
            return
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        for thread in self._threads:
            thread.join(timeout=timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._snap_lock:
            snapshot_graphs = {
                "entries": len(self._snapshots),
                "hits": self.snapshot_cache_hits,
                "opens": self.snapshot_cache_opens,
            }
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "workers": self.workers,
                "queue_depth": self._queue.qsize(),
                "jobs": len(self._jobs),
                "states": states,
                "submitted": self.submitted,
                "computed": self.computed,
                "attached": self.attached_total,
                "cache_hits": self.cache_hits,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "closed": self._closed,
                "snapshot_graphs": snapshot_graphs,
            }
