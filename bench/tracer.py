"""Span recorder that wraps the package's public functions at run time.

A span records name, layer, start, end, parent span and thread.  Spans
stay in memory and are written out when the traced run ends.  Nothing in
the package is edited: ``patch`` rebinds a name in the module that looks
it up, and ``restore`` puts every original back.

Spans named in ``memory_spans`` also record their peak resident size
above the size at entry, while ``sample_memory()`` is active: a sampler
thread reads this process's own ``/proc/self/statm`` about once a
millisecond.  Freed heap pages are handed back to the system (glibc
``malloc_trim``) when such a span opens, so that reused pages do not hide
its growth.  Resident size rather than ``tracemalloc``: tracemalloc hooks
every allocation, and on a 2 MP noisy scene it slowed the superpixel
table from 7.4 s to 172 s, which would leave the layer times meaningless.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

_PAGE = os.sysconf("SC_PAGE_SIZE")
_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


@dataclass(slots=True, eq=False)
class Span:
    name: str
    layer: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    rss_start: int = 0
    rss_peak: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_mb(self) -> float:
        return (self.rss_peak - self.rss_start) / 1e6


class Recorder:
    def __init__(self, memory_spans: frozenset[str] = frozenset()):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.memory_spans = memory_spans
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._open_memory: list[Span] = []
        self._hot: list[tuple[str, list]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._statm: int | None = None

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        thread = threading.get_ident()
        if thread == self._main:
            stack = self._main_stack
            parent = stack[-1] if stack else None
        else:
            stack = self._stack()
            parent = stack[-1] if stack else getattr(self._local, "submitter", None)
        span = Span(name, name[:name.index(".")], parent=parent, thread=thread)
        if self._statm is not None and name in self.memory_spans:
            if _trim is not None:
                _trim(0)
            span.rss_start = span.rss_peak = self._rss()
            self._open_memory.append(span)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span in self._open_memory:
            span.rss_peak = max(span.rss_peak, self._rss())
            self._open_memory.remove(span)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def wrap(self, func, name: str):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_hot(self, func, name: str):
        """Like ``wrap`` at a fraction of the cost, for main-thread functions
        called tens of thousands of times; spans are built by ``restore``."""
        calls: list[tuple[float, float, int | None]] = []
        self._hot.append((name, calls))
        stack, clock = self._main_stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                calls.append((start, clock(), parent))

        return traced

    # -- memory ------------------------------------------------------------

    def _rss(self) -> int:
        return int(os.pread(self._statm, 128, 0).split()[1]) * _PAGE

    @contextlib.contextmanager
    def sample_memory(self, interval: float = 0.001):
        """Sample resident size into the open memory spans."""
        stop = threading.Event()

        def sampler():
            while not stop.wait(interval):
                rss = self._rss()
                for span in list(self._open_memory):
                    span.rss_peak = max(span.rss_peak, rss)

        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            os.close(self._statm)
            self._statm = None

    # -- patching ----------------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, hot: bool = False) -> None:
        wrap = self.wrap_hot if hot else self.wrap
        self.replace(owner, attr, wrap(getattr(owner, attr), name))

    def follow_threads(self) -> None:
        """Parent spans opened in pool threads to the span that submitted them."""
        submit = ThreadPoolExecutor.submit
        recorder = self

        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None

            def run(*a, **k):
                recorder._local.submitter = parent
                try:
                    return fn(*a, **k)
                finally:
                    recorder._local.submitter = None

            return submit(pool, run, *args, **kwargs)

        self.replace(ThreadPoolExecutor, "submit", traced_submit)

    def restore(self) -> None:
        """Undo every patch and add the spans of hot functions."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for name, calls in self._hot:
            layer = name[:name.index(".")]
            self.spans += [Span(name, layer, start, end, parent, self._main)
                           for start, end, parent in calls]
            calls.clear()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- analysis ----------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                out.setdefault(span.parent, []).append(i)
        return out

    def covered(self, index: int, kids: list[int]) -> float:
        """Seconds of span ``index`` that the union of its children covers."""
        span = self.spans[index]
        intervals = sorted(
            (max(self.spans[k].start, span.start), min(self.spans[k].end, span.end))
            for k in kids
        )
        total, reach = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                total += hi - lo
                reach = hi
        return total

    def self_times(self) -> list[float]:
        kids = self.children()
        return [s.duration - self.covered(i, kids.get(i, []))
                for i, s in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        rows = []
        for i, s in enumerate(self.spans):
            row = asdict(s)
            row.update(id=i, start=s.start - origin, end=s.end - origin)
            rows.append(row)
        path.write_text(json.dumps({"spans": rows, "counters": self.counters}) + "\n")
