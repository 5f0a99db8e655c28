"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``: it wraps the public entry points of
each layer at run time.  Two wrapper kinds exist:

* a *timed* wrapper records one span per call (name, start, end, parent
  span, operation id) — spans are kept in memory and summarized at the
  end of the run;
* a *counted* wrapper only bumps a counter (used for the hot value and
  protocol-step methods, where a span per call would swamp the run).

Case studies bind checkers by name (``from ..core.stability import
check_stability``), so a function wrapper replaces *every* module-level
binding of the original in loaded ``repro`` modules, not only the
defining module's attribute (:func:`rebind`).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

#: (span id, name, start, end, parent span id or None, operation id)
Span = tuple


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        #: operation id stamped on every span (one sweep or one cycle)
        self.op: str | None = None
        #: parent for spans opened on a thread with no open span — the
        #: daemon runs a cycle's verify on its worker thread while the
        #: cycle's span stays open on the caller's thread
        self.handoff: int | None = None
        self._next = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int | None, float]:
        with self._lock:
            sid = self._next
            self._next += 1
        stack = self._stack()
        parent = stack[-1] if stack else self.handoff
        stack.append(sid)
        return sid, parent, self.clock()

    def close(self, name: str, sid: int, parent: int | None, start: float) -> None:
        end = self.clock()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, self.op))

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        sid, parent, start = self.open()
        try:
            yield sid
        finally:
            self.close(name, sid, parent, start)


def timed(
    rec: Recorder,
    name: str,
    fn: Callable,
    on_result: Callable[[Any], None] | None = None,
) -> Callable:
    """Wrap ``fn`` so each call records a span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid, parent, start = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(name, sid, parent, start)
        if on_result is not None:
            on_result(result)
        return result

    return _finish(fn, wrapper)


def counted(rec: Recorder, key: str, fn: Callable) -> Callable:
    """Wrap ``fn`` so each call bumps ``rec.counts[key]``.  Unlocked:
    the benchmark runs the program on one thread at a time (a watch
    cycle's caller waits while the daemon thread verifies)."""
    counts = rec.counts

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counts[key] += 1
        return fn(*args, **kwargs)

    return _finish(fn, wrapper)


def _finish(fn: Callable, wrapper: Callable) -> Callable:
    """Mark ``wrapper`` and keep the ``functools.lru_cache`` controls of
    ``fn`` reachable (the serve reload calls ``cache_clear``)."""
    wrapper.__perfbench_original__ = fn  # type: ignore[attr-defined]
    for attr in ("cache_clear", "cache_info", "cache_parameters"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def rebind(original: Callable, wrapper: Callable, prefix: str = "repro") -> int:
    """Replace every module-level binding of ``original`` in loaded
    modules under ``prefix`` by ``wrapper``; returns how many were
    replaced."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    return replaced


def wrap_function(module: Any, attr: str, make: Callable[[Callable], Callable]) -> Callable:
    """Wrap ``module.attr`` (a function) everywhere it is bound."""
    original = getattr(module, attr)
    if hasattr(original, "__perfbench_original__"):
        return original
    wrapper = make(original)
    setattr(module, attr, wrapper)
    rebind(original, wrapper)
    return wrapper


def wrap_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> bool:
    """Wrap ``cls.attr`` if ``cls`` defines it itself; idempotent."""
    original = cls.__dict__.get(attr)
    if original is None or hasattr(original, "__perfbench_original__"):
        return False
    setattr(cls, attr, make(original))
    return True


def subclasses(root: type) -> Iterable[type]:
    """``root`` and every (transitive) subclass currently defined."""
    seen: set[type] = set()
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


# -- summaries ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name, the summed self time: each span's duration minus
    the part of it that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _parent, _op in spans:
        out[name] += (end - start) - _covered(children.get(sid, []), start, end)
    return dict(out)


def call_counts(spans: Iterable[Span]) -> Counter[str]:
    return Counter(span[1] for span in spans)

