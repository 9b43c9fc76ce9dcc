"""Span recording and transform counting for the traced benchmark run.

Spans are opened by the benchmark around its own calls into the library's
public functions; nothing inside the library is instrumented. The transform
counter replaces the public n-d and 1-d entry points of ``numpy.fft`` and
``scipy.fft`` while it is installed, so every transform the library makes
(through either package) is charged to the innermost open span.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np
import numpy.fft
import scipy.fft

#: Entry points wrapped in both numpy.fft and scipy.fft.
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")


class Span:
    """One timed interval with the transforms made inside it.

    ``self_*`` counts transforms made while this span was the innermost
    open one; ``fft_*`` adds those of every descendant span.
    """

    __slots__ = ("name", "parent", "start", "end", "units", "self_calls", "self_points", "self_bytes",
                 "fft_calls", "fft_points", "fft_bytes")

    def __init__(self, name: str, parent: "Span | None", start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        #: work units done inside the span, set by the caller (e.g. iterations)
        self.units = 0
        self.self_calls = self.self_points = self.self_bytes = 0
        self.fft_calls = self.fft_points = self.fft_bytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; spans are kept until the run reports."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, parent, time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            s.fft_calls += s.self_calls
            s.fft_points += s.self_points
            s.fft_bytes += s.self_bytes
            if parent is not None:
                parent.fft_calls += s.fft_calls
                parent.fft_points += s.fft_points
                parent.fft_bytes += s.fft_bytes
            self.spans.append(s)

    def innermost(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def top_level_within(self, start: float, end: float) -> list[Span]:
        """Parentless spans that lie inside [start, end]."""
        return [s for s in self.spans if s.parent is None and s.start >= start and s.end <= end]


class FftCounter:
    """Counts transforms at the numpy.fft / scipy.fft boundary while installed.

    Calls, transformed points and computed bytes (input plus output array
    sizes, not a measurement) go to the tracer's innermost open span and to
    the counter's own totals. A transform that an entry point makes through
    another wrapped entry point is counted once.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls = 0
        self.points = 0
        self.bytes = 0
        self.seconds = 0.0
        self._depth = 0
        self._saved: list = []

    def __enter__(self):
        for module in (numpy.fft, scipy.fft):
            for name in FFT_ENTRY_POINTS:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    def _wrap(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self._depth:
                return fn(a, *args, **kwargs)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._depth -= 1
            self.seconds += time.perf_counter() - t0
            a = np.asarray(a)
            self._charge(a.size, a.nbytes + out.nbytes)
            return out

        return counted

    def _charge(self, points: int, nbytes: int) -> None:
        self.calls += 1
        self.points += points
        self.bytes += nbytes
        s = self.tracer.innermost()
        if s is not None:
            s.self_calls += 1
            s.self_points += points
            s.self_bytes += nbytes
