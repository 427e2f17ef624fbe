"""Spans: where one run's wall time went, by stage and by thread.

A span is a named stretch of one thread's wall time, opened and closed by
``with span(name, M=..., L=..., G=...)``. While :func:`recording` is active,
each span keeps one record:

    id       int          its place in the record, from 0, in opening order
    parent   int | None   the id of the span it ran inside, if any
    name     str          the stage, e.g. "statevector.build"
    thread   str          the name of the thread it ran on
    M        int | None   qubits (vertices) of the states it handled
    L        int | None   edges, summed over the G graphs
    G        int | None   states handled at once (the batch size)
    start_s  float        seconds from the start of the recording
    end_s    float        as start_s, at its close

A size a stage does not know is None. A span opened on a thread that
:func:`carry` started has for parent the span open where it was started,
so a child lies within its parent's time on whatever thread it ran. With
no recording active, :func:`span` costs one global check and returns a
shared context that does nothing.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

_records: list | None = None  # the records while recording, else None
_t0 = 0.0
_lock = threading.Lock()
_OFF = contextlib.nullcontext()


class _Local(threading.local):
    def __init__(self) -> None:
        # the parent of this thread's outermost spans, then the ids of its open spans
        self.stack = [None]


_local = _Local()


@contextlib.contextmanager
def _recorded(fields: dict):
    stack = _local.stack
    with _lock:
        record = {"id": len(_records), "parent": stack[-1], **fields}
        _records.append(record)
    stack.append(record["id"])
    record["start_s"] = time.perf_counter() - _t0
    try:
        yield
    finally:
        record["end_s"] = time.perf_counter() - _t0
        stack.pop()


def span(name: str, M: int | None = None, L: int | None = None, G: int | None = None):
    """A context manager that records ``name`` and its sizes as one span, when recording."""
    if _records is None:
        return _OFF
    thread = threading.current_thread().name
    return _recorded({"name": name, "thread": thread, "M": M, "L": L, "G": G})


def carry(fn):
    """``fn`` to be run on another thread, its spans children of the span open here."""
    if _records is None:
        return fn
    parent = _local.stack[-1]

    def run():
        saved, _local.stack = _local.stack, [parent]
        try:
            return fn()
        finally:
            _local.stack = saved

    return run


@contextlib.contextmanager
def recording(path):
    """Record every span inside, then write them to ``path`` as JSON lines.

    One object per span, in opening order, then ``{"summary": {name:
    {"count": n, "total_s": seconds}}}``, names in order of first opening.
    With ``path`` None nothing is recorded. ``path`` is opened before the
    body runs, so a path that cannot be written fails before any work; the
    file stays empty when the body raises.
    """
    global _records, _t0
    if path is None:
        yield
        return
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        _records, _t0 = [], time.perf_counter()
        try:
            yield
        finally:
            records, _records = _records, None
        totals: dict = {}
        for r in records:
            entry = totals.setdefault(r["name"], {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += r["end_s"] - r["start_s"]
        lines = [json.dumps(r) for r in records] + [json.dumps({"summary": totals})]
        f.write("\n".join(lines) + "\n")
