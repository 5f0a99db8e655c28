"""Which entry point of each ``repro`` layer the traced run wraps.

:func:`install` must run after ``repro`` and the registry are imported,
so that every module-level binding of a wrapped checker already exists
(see :func:`perfbench.spans.rebind`).  :func:`rewrap_classes` is
idempotent and is called again after each hot reload, because a
reloaded case-study module defines fresh ``Concurroid`` subclasses.
"""

from __future__ import annotations

import importlib
from typing import Any

from spans import Recorder, counted, subclasses, timed, wrap_function, wrap_method

#: span name -> (module, function) pairs wrapped with a timed wrapper
FUNCTIONS = {
    "analysis.deps": [("repro.engine.depgraph", "build_depgraph")],
    "core.stab": [("repro.core.stability", "check_stability")],
    "core.acts": [("repro.core.action", "check_action")],
    "core.conc": [("repro.core.concurroid", "check_concurroid")],
    "core.main": [("repro.core.verify", "check_triple")],
    "core.closure": [
        ("repro.core.concurroid", "protocol_closure"),
        ("repro.core.stability", "env_closure"),
    ],
    "engine.fingerprint": [
        ("repro.engine.fingerprint", "program_fingerprint"),
        ("repro.engine.fingerprint", "framework_digest"),
    ],
}

#: span name -> (module, class, method names) wrapped with a timed wrapper
METHODS = {
    "analysis.prepass": [("repro.analysis.prepass", "StaticPrepass", ("discharges",))],
    "engine.cache_load": [
        ("repro.engine.cache", "ObligationCache", ("load", "load_verified", "load_incremental"))
    ],
    "engine.cache_store": [("repro.engine.cache", "ObligationCache", ("store",))],
    "engine.journal": [
        ("repro.engine.journal", "SweepJournal", ("begin", "unit_leased", "unit_done", "finish"))
    ],
    "serve.reload": [("repro.serve.reload", "ModuleTracker", ("refresh",))],
    "serve.fingerprint_diff": [("repro.serve.session", "Session", ("refresh_fingerprints",))],
}

#: counter name -> (module, class, method) wrapped with a counting wrapper
VALUE_COUNTERS = {
    "values.state_new": ("repro.core.state", "State", "__init__"),
    "values.state_hash": ("repro.core.state", "State", "__hash__"),
    "values.subj_hash": ("repro.core.state", "SubjState", "__hash__"),
    "values.heap_new": ("repro.heap.heap", "Heap", "__init__"),
    "values.heap_hash": ("repro.heap.heap", "Heap", "__hash__"),
    "values.history_new": ("repro.pcm.histories", "History", "__init__"),
}

#: exploration statistics summed from every returned ExplorationResult
EXPLORE_FIELDS = {
    "semantics.configs": "explored",
    "semantics.deduped": "deduped",
    "semantics.truncated": "truncated",
}


#: the engine's parent-side spans (fingerprint, cache, journal)
ENGINE_SPANS = ("engine.fingerprint", "engine.cache_load", "engine.cache_store", "engine.journal")


def _wrap_spans(rec: Recorder, names: tuple[str, ...]) -> None:
    for name in names:
        for module, attr in FUNCTIONS.get(name, ()):
            mod = importlib.import_module(module)
            wrap_function(mod, attr, lambda fn, name=name: timed(rec, name, fn))
        for module, cls_name, methods in METHODS.get(name, ()):
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                wrap_method(cls, method, lambda fn, name=name: timed(rec, name, fn))


def install_engine(rec: Recorder) -> None:
    """Wrap only the engine's parent-side entry points: used on the
    parallel sweep, whose fork-started workers would run the checkers
    traced but never ship counts home."""
    _wrap_spans(rec, ENGINE_SPANS)


def install(rec: Recorder) -> None:
    """Wrap every layer entry point for ``rec``."""
    _wrap_spans(rec, tuple(FUNCTIONS) + tuple(METHODS))

    def on_explored(result: Any) -> None:
        for key, field in EXPLORE_FIELDS.items():
            rec.counts[key] += int(getattr(result, field, 0) or 0)

    explore_mod = importlib.import_module("repro.semantics.explore")
    wrap_function(
        explore_mod, "explore", lambda fn: timed(rec, "semantics.explore", fn, on_explored)
    )
    for key, (module, cls_name, method) in VALUE_COUNTERS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        wrap_method(cls, method, lambda fn, key=key: counted(rec, key, fn))
    rewrap_classes(rec)


def rewrap_classes(rec: Recorder) -> None:
    """Count ``env_moves``/``coherent`` on every ``Concurroid`` subclass
    and ``successors`` on every ``Transition`` subclass defined now."""
    concurroid = importlib.import_module("repro.core.concurroid")
    for cls in subclasses(concurroid.Concurroid):
        wrap_method(cls, "env_moves", lambda fn: counted(rec, "core.env_moves_calls", fn))
        wrap_method(cls, "coherent", lambda fn: counted(rec, "core.coherent_calls", fn))
    for cls in subclasses(concurroid.Transition):
        wrap_method(cls, "successors", lambda fn: counted(rec, "core.successors_calls", fn))


def install_watch(rec: Recorder, watcher: Any) -> None:
    """Span each watch cycle (``serve.cycle``) and its verify request
    (``serve.verify``).  The daemon runs the verify on its own thread
    while this thread waits, so spans opened there hang off it."""
    handle_change = watcher.handle_change
    verify = watcher._verify

    def traced_handle_change(changed: list[str]) -> int:
        with rec.span("serve.cycle"):
            return handle_change(changed)

    def traced_verify(stale: list[str]) -> dict:
        rewrap_classes(rec)  # the reload just defined fresh subclasses
        with rec.span("serve.verify") as sid:
            rec.handoff = sid
            try:
                return verify(stale)
            finally:
                rec.handoff = None

    watcher.handle_change = traced_handle_change
    watcher._verify = traced_verify
