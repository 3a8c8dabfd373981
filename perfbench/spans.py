"""In-memory span tracing of the public qdlab functions, from outside the package.

A :class:`Tracer` replaces each traced function at every ``qdlab`` module
attribute that holds it, so a call is seen whichever name the caller looks
up (``diffusion`` imports ``resolvent_column`` by name, the harness calls
``propagation.run_trajectory`` through the module).  ``uninstall`` puts
every original back.  Spans are kept in memory as (name, start, end,
parent) and summarised per layer by :func:`layer_totals`.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

# Span name of the tracer's own per-call bookkeeping (residuals, orders).
# It is subtracted from the enclosing span's self time and reported as no
# layer, so it shows only in the tracing overhead.
BOOKKEEPING = "_bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a top-level span
    failed: bool = False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end) for i, s in enumerate(spans)]


def top_level_covered(spans: list[Span], lo: float, hi: float) -> float:
    """Time in [lo, hi] spent inside some top-level span."""
    return _covered([(s.start, s.end) for s in spans if s.parent < 0], lo, hi)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, failed, self_s and inclusive total_s."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        if s.name == BOOKKEEPING:
            continue
        row = out.setdefault(s.name, {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["failed"] += int(s.failed)
        row["self_s"] += own
        row["total_s"] += s.end - s.start
    return out


# Hook run after a traced call returns: (tracer, args, kwargs, result).
Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans around wrapped functions and named counters from hooks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.originals: dict[str, Callable] = {}
        self._patched: list[tuple[object, str, Callable]] = []
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        idx = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].failed = failed
        self._stack().pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def reset(self) -> None:
        self.spans = []
        self.counters = {}

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if hook is not None:
                book = self._open(BOOKKEEPING)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self._close(book, False)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    def install(self, targets: list[tuple[str, str, str, Hook | None]]) -> None:
        """Wrap each (name, module, attribute, hook) at every qdlab alias of it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qdlab" or k.startswith("qdlab.")]
        for name, module, attr, hook in targets:
            original = getattr(sys.modules[module], attr)
            self.originals[name] = original
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []
