"""Spans recorded by the benchmark around calls into each layer.

A span has a name (the layer), start and end on the shared
``CLOCK_MONOTONIC`` clock (so spans from a child process nest inside
the span its parent recorded around it), a parent span id and an op id
(the measured operation it belongs to; ``None`` for work outside any
operation, such as a worker's own imports).

Spans stay in memory; :func:`chrome_trace` turns them into Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``) and
:func:`self_seconds` attributes time to layers: a span's self time is
its duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional


class Tracer:
    """Collects spans; safe to use from several threads at once."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, name, parent, op, start_ns, end_ns, args) -> Dict[str, Any]:
        """Store a span; a child belongs to its parent's op unless given one."""
        with self._lock:
            if op is None and parent is not None:
                op = self.spans[parent - 1]["op"]
            record = {
                "id": next(self._ids),
                "parent": parent,
                "name": name,
                "op": op,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "tid": threading.get_ident(),
                "args": args,
            }
            self.spans.append(record)
        return record

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: Optional[int] = None,
        op: Optional[str] = None,
        **args: Any,
    ) -> int:
        """Record a finished span; a child is clipped to its parent."""
        if parent is not None:
            bounds = self.get(parent)
            start_ns = min(max(start_ns, bounds["start_ns"]), bounds["end_ns"])
            end_ns = min(max(end_ns, start_ns), bounds["end_ns"])
        return self._append(name, parent, op, start_ns, end_ns, args)["id"]

    def get(self, span_id: int) -> Dict[str, Any]:
        with self._lock:
            # spans are appended in id order, so ids index the list
            return self.spans[span_id - 1]

    @contextmanager
    def span(self, name: str, op: Optional[str] = None, **args: Any):
        """Time the body as a child of the innermost open span of this
        thread.  Yields the span's ``args`` dict, so counters read from
        a layer's result objects can be attached before it closes."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = self._append(name, parent, op, time.monotonic_ns(), None, dict(args))
        span_id = record["id"]
        stack.append(span_id)
        try:
            yield record["args"]
        finally:
            stack.pop()
            record["end_ns"] = time.monotonic_ns()

    def phases(self, parent: int, phases: Iterable[tuple]) -> None:
        """Lay ``(name, seconds)`` phases end to end inside ``parent``.

        For layers that report per-phase durations but not when each
        phase started (``CPGStatistics.phase_seconds`` and friends): the
        durations are measured by the program; the positions assume the
        phases ran back to back from the parent's start, in the order
        given.  Such spans carry ``synthetic: true``.
        """
        cursor = self.get(parent)["start_ns"]
        for name, seconds in phases:
            end = cursor + int(seconds * 1e9)
            self.add(name, cursor, end, parent=parent, synthetic=True)
            cursor = end

    def adopt(self, spans: Iterable[Dict[str, Any]], parent: int) -> None:
        """Import spans recorded by another process under ``parent``."""
        mapping: Dict[int, int] = {}
        for span in sorted(spans, key=lambda s: s["id"]):
            mapping[span["id"]] = self.add(
                span["name"], span["start_ns"], span["end_ns"],
                parent=mapping.get(span["parent"], parent), op=span["op"], **span["args"],
            )


def self_seconds(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span, by span id."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start - covered) / 1e9
    return result


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per-layer self time over the spans of measured operations.

    Only trees whose root belongs to an op count; ``share`` is each
    layer's self time over the summed duration of those roots, so the
    shares of one workload add up to 1.
    """
    in_op = [s for s in spans if s["op"] is not None]
    ids = {s["id"] for s in in_op}
    roots = [s for s in in_op if s["parent"] not in ids]
    total = sum(s["end_ns"] - s["start_ns"] for s in roots) / 1e9
    own = self_seconds(in_op)
    table: Dict[str, Dict[str, float]] = {}
    for span in in_op:
        row = table.setdefault(span["name"], {"self_s": 0.0, "spans": 0})
        row["self_s"] += own[span["id"]]
        row["spans"] += 1
    for row in table.values():
        row["share"] = row["self_s"] / total if total else 0.0
    return table


def chrome_trace(traces: Dict[str, List[Dict[str, Any]]]) -> Dict[str, Any]:
    """Chrome trace-event JSON for ``{process label: spans}``.

    Each label becomes one trace process; each recording thread one
    track, numbered from 1 in order of first appearance.
    """
    events: List[Dict[str, Any]] = []
    for pid, (label, spans) in enumerate(sorted(traces.items()), start=1):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tids: Dict[int, int] = {}
        for span in sorted(spans, key=lambda s: (s["start_ns"], s["id"])):
            tid = tids.setdefault(span["tid"], len(tids) + 1)
            args = {"span": span["id"], "parent": span["parent"], "op": span["op"]}
            args.update(span["args"])
            events.append({
                "name": span["name"],
                "cat": span["name"].split(".")[0],
                "ph": "X",
                "ts": span["start_ns"] / 1000.0,
                "dur": (span["end_ns"] - span["start_ns"]) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
