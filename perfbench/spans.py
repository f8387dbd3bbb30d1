"""Layer spans recorded from outside the library.

The tracer replaces module attributes that the library looks up at call
time (``odelim.interp.minimal_element`` and the like) with wrappers that
record a span per call: name, model, parent span, thread, start and end.
The current span lives in a context variable.  The thread pool of
odelim.interp is swapped for one that runs each task in the submitter's
context, so a span opened in a worker thread keeps its model and parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    model: str
    parent: "Span | None"
    thread: int
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, within=None) -> dict:
    """Span -> its duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a worker task that
    outlives the call which submitted it is not subtracted twice.  With
    ``within`` (lo, hi) every span is first clipped to that window, which
    is how the spans of one model solve are held to its root interval.
    """
    lo_all, hi_all = within if within is not None else (float("-inf"), float("inf"))

    def window(s):
        lo, hi = max(s.start, lo_all), min(s.end, hi_all)
        return lo, max(lo, hi)

    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        lo, hi = window(s)
        kids = []
        for c in children.get(s, ()):
            clo, chi = window(c)
            clo, chi = max(clo, lo), min(chi, hi)
            if chi > clo:
                kids.append((clo, chi))
        out[s] = (hi - lo) - _union_length(kids)
    return out


class _ContextPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        ctx = contextvars.copy_context()
        return super().submit(ctx.run, fn, *args, **kwargs)


@dataclass
class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)

    def __post_init__(self):
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()
        self._saved = []

    # -- recording ----------------------------------------------------------

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def call(self, name: str, fn, args, kwargs, model: str | None = None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        parent = self._current.get()
        if model is None:
            model = parent.model if parent is not None else "?"
        span = Span(name, model, parent, threading.get_ident(), time.perf_counter())
        token = self._current.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(span)

    # -- installing ---------------------------------------------------------

    def install(self, table) -> None:
        """Replace every (module, attribute, make) of ``table`` by make(tracer, original).

        A missing attribute is an error: a renamed library function must
        fail the traced run, not read as a layer that costs nothing.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        resolved = []
        for modname, attr, make in table:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if not callable(original):
                raise LookupError(f"{modname}.{attr} no longer exists; the benchmark must follow it")
            resolved.append((module, attr, original, make))
        for module, attr, original, make in resolved:
            setattr(module, attr, make(self, original))
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def span(name: str | None, observe=None):
    """A ``make`` for Tracer.install: time each call as span ``name``.

    With ``name`` None the call is only observed, not timed.  ``observe``
    receives (tracer, args, kwargs, result, exc) after every call.
    """

    def make(tracer: Tracer, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = exc = None
            try:
                if name is None:
                    result = original(*args, **kwargs)
                else:
                    result = tracer.call(name, original, args, kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc)

        return wrapper

    return make


def context_pool(tracer: Tracer, original):
    """A ``make`` for the ThreadPoolExecutor of odelim.interp: keep spans' context."""
    if original is not ThreadPoolExecutor:
        raise LookupError("odelim.interp no longer uses concurrent.futures.ThreadPoolExecutor")
    return _ContextPool
