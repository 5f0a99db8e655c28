"""The daemon's resident verification session.

One :class:`Session` owns everything ``repro serve`` keeps warm between
requests — the four costs a cold ``repro verify`` pays every time:

* the **registry**: case-study modules stay imported (the daemon's
  process *is* the warm interpreter);
* the **static pre-pass**: one resident
  :class:`~repro.analysis.prepass.StaticPrepass` is installed for every
  in-process sweep, so its env-closure sweeps amortize across
  requests (sound: its memos are keyed by — and pin —
  the very objects they describe, so a hot-reloaded module's fresh
  objects recompute while unchanged modules stay warm);
* the **dependency-cone fingerprints**: per-program fingerprints are
  kept resident and diffed on demand (the watcher's delta detector);
* the **obligation cache**: a resident handle plus the OS page cache
  over its entries; daemon verifies run ``incremental`` by default, so
  an edit re-executes only the stale cone (PR 9 machinery).

Requests are dispatched strictly one at a time — the server feeds a
single dispatcher thread through a queue — so resident state needs no
locking.  Every request runs under an optional per-request trace
session (``serve:<op>`` span + Chrome-trace export), and every response
carries the shared 0/1/2/3 exit contract.

Soundness gate: after a *framework* edit (anything outside
``repro.structures``) the resident process would execute old semantics
while fingerprints charge the new digest, so every analysis op is
refused with ``framework-changed`` until the daemon restarts — see
:mod:`repro.serve.reload`.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

from .protocol import (
    PROTOCOL_VERSION,
    Request,
    error_frame,
    progress_frame,
    result_frame,
)
from .reload import ModuleTracker

Emit = Callable[[dict[str, Any]], None]

#: Ops that execute analysis code and are therefore refused once the
#: resident framework is stale (``status``/``reload``/``shutdown`` stay
#: available — you can always ask the daemon what is wrong).
ANALYSIS_OPS = ("verify", "lint", "race", "live", "deps")


class Session:
    """Resident state + the serialized request dispatcher."""

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        jobs: int | None = 1,
        trace_dir: str | None = None,
    ) -> None:
        from ..analysis.prepass import StaticPrepass
        from ..engine.cache import ObligationCache

        self.cache_dir = cache_dir
        self.jobs = jobs
        self.trace_dir = trace_dir
        self.prepass = StaticPrepass()
        self.cache = ObligationCache(cache_dir)
        self.tracker = ModuleTracker()
        self.fingerprints: dict[str, str] = {}
        self.started = time.monotonic()
        self.requests: dict[str, int] = {}

    # -- resident fingerprints ----------------------------------------------

    def refresh_fingerprints(self) -> list[str]:
        """Recompute every registry program's fingerprint; return the
        names whose fingerprint changed since last computed (first call
        baselines silently)."""
        from ..engine.fingerprint import program_fingerprint
        from ..structures.registry import registry_programs

        fresh = {
            info.name: program_fingerprint(info) for info in registry_programs()
        }
        baseline = bool(self.fingerprints)
        changed = [
            name
            for name, fp in fresh.items()
            if baseline and self.fingerprints.get(name) != fp
        ]
        self.fingerprints = fresh
        # registry_programs() just imported every case-study module;
        # baseline them while memory and disk agree.
        self.tracker.observe_new()
        return changed

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, request: Request, emit: Emit) -> dict[str, Any]:
        """Run one request; stream progress through ``emit``; return the
        terminal frame.  Never raises: every failure becomes an
        ``error`` frame (the daemon must survive any request)."""
        self.requests[request.op] = self.requests.get(request.op, 0) + 1
        if request.op in ANALYSIS_OPS and self.tracker.stale_framework:
            return error_frame(
                request.id,
                "framework-changed",
                "a framework module changed on disk; the resident daemon "
                "cannot soundly hot-reload it — restart `repro serve`",
            )
        try:
            return self._traced_dispatch(request, emit)
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            return error_frame(
                request.id,
                "internal",
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            # Baseline anything this request imported while memory and
            # disk still agree (see ModuleTracker.observe_new).
            self.tracker.observe_new()

    def _traced_dispatch(self, request: Request, emit: Emit) -> dict[str, Any]:
        from contextlib import nullcontext

        from ..obs import tracer

        session = (
            tracer.tracing() if self.trace_dir is not None else nullcontext(None)
        )
        with session as tr:
            with tracer.span(f"serve:{request.op}", cat="serve", id=request.id):
                frame = self._run_op(request, emit)
        if tr is not None:
            from ..obs.export import write_chrome_trace

            out = Path(self.trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            seq = sum(self.requests.values())
            path = write_chrome_trace(
                tr.records, out / f"req-{seq:04d}-{request.op}.json"
            )
            frame.setdefault("payload", {})
            if isinstance(frame.get("payload"), dict):
                frame["payload"]["trace"] = str(path)
        return frame

    def _run_op(self, request: Request, emit: Emit) -> dict[str, Any]:
        handler = getattr(self, f"_op_{request.op}")
        return handler(request, emit)

    # -- ops -----------------------------------------------------------------

    def _op_status(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..structures.registry import registry_programs

        payload = {
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "python": sys.version.split()[0],
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "cache_dir": str(self.cache.root),
            "jobs": self.jobs,
            "programs": len(registry_programs()),
            "requests": dict(self.requests),
            "stale_framework": self.tracker.stale_framework,
            "fingerprints_resident": len(self.fingerprints),
            "prepass": {
                "consulted": self.prepass.consulted,
                "skipped": len(self.prepass.skipped),
            },
        }
        return result_frame(request.id, "status", 0, payload)

    def _op_reload(self, request: Request, emit: Emit) -> dict[str, Any]:
        report = self.tracker.refresh()
        stale = self.refresh_fingerprints()
        payload = report.to_dict()
        payload["stale_programs"] = stale
        payload["stale_framework"] = self.tracker.stale_framework
        code = 3 if self.tracker.stale_framework else 0
        return result_frame(request.id, "reload", code, payload)

    def _op_shutdown(self, request: Request, emit: Emit) -> dict[str, Any]:
        # The server watches for this frame and stops its loops; the
        # session only records the intent.
        return result_frame(request.id, "shutdown", 0, {"pid": os.getpid()})

    def _op_verify(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..engine import run_sweep

        p = request.params
        names = p.get("programs") or None
        if names is not None and (
            not isinstance(names, list)
            or not all(isinstance(n, str) for n in names)
        ):
            return error_frame(
                request.id, "bad-request", "'programs' must be a list of names"
            )
        jobs = p.get("jobs", self.jobs)
        cache = bool(p.get("cache", True))
        # Incremental replay needs the cache; degrade rather than refuse.
        incremental = bool(p.get("incremental", True)) and cache

        def on_lease(unit: str, attempt: int, lease: float | None) -> None:
            emit(
                progress_frame(
                    request.id, "lease", unit=unit, attempt=attempt, lease=lease
                )
            )

        def on_result(tr: Any) -> None:
            emit(
                progress_frame(
                    request.id,
                    "unit",
                    unit=tr.name,
                    status=tr.status,
                    seconds=round(tr.seconds, 4),
                    retries=tr.retries,
                )
            )

        try:
            result = run_sweep(
                names=names,
                jobs=jobs,
                cache=cache,
                cache_dir=self.cache_dir,
                liveness=bool(p.get("liveness", False)),
                timeout=p.get("timeout"),
                retries=int(p.get("retries", 1)),
                journal=False,  # daemon sweeps are short; the cache persists
                incremental=incremental,
                on_lease=on_lease,
                on_result=on_result,
                resident_prepass=self.prepass if jobs in (None, 1) else None,
            )
        except KeyError as exc:
            return error_frame(request.id, "bad-request", str(exc.args[0]))
        except ValueError as exc:
            return error_frame(request.id, "bad-request", str(exc))
        self.refresh_fingerprints()
        return result_frame(
            request.id, "verify", result.exit_code(), result.to_dict()
        )

    # -- the diagnostic sweeps (lint / race / live / deps) -------------------

    def _diagnostic_sweep(
        self, request: Request, sweep: Any, tool: str
    ) -> dict[str, Any]:
        from ..analysis import (
            SelectorError,
            Severity,
            select,
            worst_severity,
        )

        p = request.params
        try:
            diagnostics = sweep(names=p.get("programs") or None)
        except KeyError as exc:
            return error_frame(request.id, "bad-request", str(exc.args[0]))
        try:
            selected = select(diagnostics, codes=p.get("select") or None)
        except SelectorError as exc:
            return error_frame(request.id, "bad-request", str(exc))
        worst = worst_severity(selected)
        threshold = Severity.WARNING if p.get("strict") else Severity.ERROR
        code = 1 if worst is not None and worst >= threshold else 0
        payload = {
            "tool": tool,
            "count": len(selected),
            "worst": str(worst) if worst is not None else None,
            "diagnostics": [d.to_json() for d in selected],
        }
        return result_frame(request.id, request.op, code, payload)

    def _op_lint(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..analysis import lint_registry

        return self._diagnostic_sweep(request, lint_registry, "fcsl-lint")

    def _op_race(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..analysis import race_registry

        return self._diagnostic_sweep(request, race_registry, "fcsl-race")

    def _op_live(self, request: Request, emit: Emit) -> dict[str, Any]:
        from ..analysis import live_registry

        return self._diagnostic_sweep(request, live_registry, "fcsl-live")

    def _op_deps(self, request: Request, emit: Emit) -> dict[str, Any]:
        name = request.params.get("program")
        if not name:
            from ..analysis import deps_registry

            return self._diagnostic_sweep(request, deps_registry, "fcsl-deps")
        from ..analysis.deps import analyze_obligations
        from ..engine.depgraph import depgraph_from_analysis
        from ..structures.registry import program

        try:
            info = program(name)
        except KeyError as exc:
            return error_frame(request.id, "bad-request", str(exc.args[0]))
        analysis = analyze_obligations(info)
        graph = depgraph_from_analysis(info, analysis)
        if graph is None:
            return result_frame(
                request.id,
                "deps",
                3,
                {
                    "program": info.name,
                    "graph": None,
                    "diagnostics": [d.to_json() for d in analysis.diagnostics()],
                },
            )
        return result_frame(
            request.id,
            "deps",
            0,
            {
                "program": info.name,
                "graph": graph.to_dict(),
                "diagnostics": [d.to_json() for d in analysis.diagnostics()],
            },
        )
