"""In-memory span recorder with thread-aware attribution.

A span is one timed call into a layer: its name, start, end, parent
span (the span open on the same thread when it began), thread id, the
workload's request id, and one work count (balls, events, points...).
Each thread appends to its own columnar buffer, so recording needs no
lock and a span costs a few ``array`` appends; nothing is written until
:meth:`SpanRecorder.dump` at the end of the run.

Attribution follows one rule per thread kind:

* main thread: a span's *self* time is its duration minus its direct
  children's, so the self times of every main-thread span under one
  root add up to the root's duration exactly;
* other threads (the fused RNG producers, the dynamic pre-draw
  pipeline): busy time is reported on its own (``offthread``), as the
  union of the spans' intervals, never folded into the main-thread
  partition, because it overlaps it;
* ``wait``: the part of a main-thread span's self intervals during which
  some off-thread span of a given name was open (the main thread idle on
  a producer).
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

__all__ = ["SpanRecorder", "SpanTable", "merge_intervals", "overlap_seconds"]


class _Buffer:
    """Columnar span storage owned by one thread."""

    __slots__ = ("tid", "name", "start", "end", "parent", "req", "work", "stack")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.work = array("d")
        self.stack: list[int] = []


class SpanRecorder:
    """Collects spans from every thread; see the module docstring."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.request_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.main_tid = threading.main_thread().ident

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        """Stable integer id of a span name (registered on first use)."""
        nid = self._name_ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._name_ids.setdefault(name, len(self.names))
                if nid == len(self.names):
                    self.names.append(name)
        return nid

    def begin(self, nid: int) -> tuple[_Buffer, int]:
        """Open a span on the calling thread; returns its handle."""
        buf = self._buffer()
        idx = len(buf.start)
        buf.name.append(nid)
        buf.start.append(self.clock())
        buf.end.append(float("nan"))
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.req.append(self.request_id)
        buf.work.append(0.0)
        buf.stack.append(idx)
        return buf, idx

    def end(self, handle: tuple[_Buffer, int], work: float = 0.0) -> None:
        """Close the span ``handle`` (which must be the innermost open one)."""
        buf, idx = handle
        buf.end[idx] = self.clock()
        buf.work[idx] = work
        popped = buf.stack.pop()
        if popped != idx:
            raise RuntimeError(
                f"span {self.names[buf.name[idx]]!r} closed out of order"
            )

    def span(self, name: str):
        """Context manager form, for spans opened by the benchmark itself."""
        return _SpanContext(self, self.name_id(name))

    def table(self) -> "SpanTable":
        """Freeze everything recorded so far into numpy columns."""
        with self._lock:
            buffers = list(self._buffers)
        open_spans = [b for b in buffers if b.stack]
        if open_spans:
            raise RuntimeError("spans still open when the table was taken")
        cols = {k: [] for k in ("name", "start", "end", "parent", "req", "work", "tid")}
        offset = 0
        for b in buffers:
            n = len(b.start)
            if n == 0:
                continue
            # np.concatenate below copies; only parent is edited in place
            parent = np.frombuffer(b.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            cols["name"].append(np.frombuffer(b.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(b.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(b.end, dtype=np.float64))
            cols["parent"].append(parent)
            cols["req"].append(np.frombuffer(b.req, dtype=np.int64))
            cols["work"].append(np.frombuffer(b.work, dtype=np.float64))
            cols["tid"].append(np.full(n, b.tid, dtype=np.int64))
            offset += n
        arrays = {
            k: (np.concatenate(v) if v else np.empty(0))
            for k, v in cols.items()
        }
        return SpanTable(list(self.names), self.main_tid, **arrays)


class _SpanContext:
    __slots__ = ("rec", "nid", "handle")

    def __init__(self, rec: SpanRecorder, nid: int) -> None:
        self.rec = rec
        self.nid = nid

    def __enter__(self):
        self.handle = self.rec.begin(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.end(self.handle)


def merge_intervals(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Union of intervals as a sorted ``(k, 2)`` array of disjoint pieces."""
    if len(starts) == 0:
        return np.empty((0, 2))
    order = np.argsort(starts, kind="stable")
    s, e = np.asarray(starts)[order], np.asarray(ends)[order]
    run_end = np.maximum.accumulate(e)
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] > run_end[:-1]
    first = np.flatnonzero(new)
    last = np.append(first[1:], len(s)) - 1
    return np.column_stack([s[first], run_end[last]])


def overlap_seconds(a: np.ndarray, b: np.ndarray) -> float:
    """Total length of the intersection of two disjoint sorted interval sets."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i, 0], b[j, 0])
        hi = min(a[i, 1], b[j, 1])
        if hi > lo:
            total += hi - lo
        if a[i, 1] < b[j, 1]:
            i += 1
        else:
            j += 1
    return total


class SpanTable:
    """Frozen spans plus the attribution queries the ledger needs."""

    def __init__(self, names, main_tid, *, name, start, end, parent, req, work, tid):
        self.names = names
        self.main_tid = main_tid
        self.name = name.astype(np.int64)
        self.start = start
        self.end = end
        self.parent = parent.astype(np.int64)
        self.req = req
        self.work = work
        self.tid = tid
        self.dur = end - start
        self.main = tid == main_tid
        child_time = np.zeros(len(start))
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child_time

    def __len__(self) -> int:
        return len(self.start)

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def _outermost(self, mask: np.ndarray) -> np.ndarray:
        """Drop spans whose direct parent has the same name (recursion)."""
        parent_same = np.zeros(len(self), dtype=bool)
        has_parent = self.parent >= 0
        parent_same[has_parent] = (
            self.name[self.parent[has_parent]] == self.name[has_parent]
        )
        return mask & ~parent_same

    def calls(self, name: str) -> int:
        """Spans of ``name`` on every thread."""
        return int(self._mask(name).sum())

    def work_sum(self, name: str) -> float:
        """Summed work count of ``name`` spans on every thread."""
        return float(self.work[self._mask(name)].sum())

    def inclusive(self, name: str, *, thread: str = "main") -> float:
        """Seconds inside ``name`` spans on ``thread`` ("main", "off", "all").

        On the main thread spans nest, so this is the summed duration of
        the outermost ones.  Across other threads it is the union of the
        spans' intervals: wall seconds during which at least one was
        open, so a pool of producers blocked on each other counts once
        instead of once per thread.
        """
        mask = self._outermost(self._mask(name))
        if thread == "main":
            return float(self.dur[mask & self.main].sum())
        if thread == "off":
            mask &= ~self.main
        merged = merge_intervals(self.start[mask], self.end[mask])
        return float((merged[:, 1] - merged[:, 0]).sum())

    def _main(self, name: str, requests_only: bool) -> np.ndarray:
        mask = self._mask(name) & self.main
        return mask & (self.req >= 0) if requests_only else mask

    def self_seconds(self, name: str, *, requests_only: bool = False) -> float:
        """Main-thread self time of ``name`` (duration minus direct children).

        ``requests_only`` keeps spans opened while a workload request id
        was set, leaving out preparation such as a server warm-up.
        """
        return float(self.self_time[self._main(name, requests_only)].sum())

    def durations(self, name: str, *, requests_only: bool = False) -> np.ndarray:
        """Per-span durations of ``name`` on the main thread."""
        return self.dur[self._main(name, requests_only)]

    def work_fraction_within(self, name: str, outer: str) -> float:
        """Mean work count of ``name`` spans lying inside a main-thread ``outer`` span.

        With a 0/1 work count (a cache hit) this is the hit ratio of the
        calls made during ``outer``.
        """
        inner = self._mask(name)
        inside = np.zeros(len(self), dtype=bool)
        for o in np.flatnonzero(self._mask(outer) & self.main):
            inside |= inner & (self.start >= self.start[o]) & (self.end <= self.end[o])
        count = int(inside.sum())
        return float(self.work[inside].sum()) / count if count else 0.0

    def main_self_total(self) -> float:
        """Sum of self time over every main-thread span."""
        return float(self.self_time[self.main].sum())

    def root_wall(self) -> float:
        """Duration of the main-thread root spans (no parent)."""
        roots = self.main & (self.parent < 0)
        return float(self.dur[roots].sum())

    def wait_seconds(self, waiter: str, producers: tuple[str, ...]) -> float:
        """Main-thread self time of ``waiter`` overlapping off-thread producers.

        The self intervals of each ``waiter`` span are its extent minus
        its direct children; they are intersected with the union of
        every off-thread span named in ``producers``.
        """
        prod = np.zeros(len(self), dtype=bool)
        for p in producers:
            prod |= self._mask(p)
        prod &= ~self.main
        busy = merge_intervals(self.start[prod], self.end[prod])
        if len(busy) == 0:
            return 0.0
        total = 0.0
        for w in np.flatnonzero(self._mask(waiter) & self.main):
            kids = np.flatnonzero(self.parent == w)
            covered = merge_intervals(self.start[kids], self.end[kids])
            gaps = _complement(self.start[w], self.end[w], covered)
            total += overlap_seconds(gaps, busy)
        return total

    def dump(self, path) -> None:
        """Write the spans as an uncompressed ``.npz`` (names as a list)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            tid=self.tid,
            req=self.req,
            work=self.work,
        )


def _complement(lo: float, hi: float, covered: np.ndarray) -> np.ndarray:
    """``[lo, hi)`` minus the disjoint sorted intervals ``covered``."""
    pieces = []
    cur = lo
    for s, e in covered:
        if s > cur:
            pieces.append((cur, min(s, hi)))
        cur = max(cur, e)
    if cur < hi:
        pieces.append((cur, hi))
    return np.array(pieces, dtype=np.float64).reshape(-1, 2)
