"""One fresh interpreter of the benchmark: set-up, a cold sweep, or a
watch session.

Run as ``python perfbench/child.py CONFIG.json``.  The config names the
mode, the ``repro`` source root to import from, the monotonic time at
which the parent launched this interpreter, and where to write the
result (a JSON file).  The parent (``run.py``) owns seeds, reference
checks and metrics; this file only drives the program and measures it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


def _usage() -> tuple[float, float]:
    """(user+sys CPU seconds, peak RSS MiB) of this process and its
    reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _import_repro(cfg: dict[str, Any]) -> float:
    """Import ``repro`` and build the registry; returns seconds since
    the parent launched this interpreter."""
    sys.path.insert(0, cfg["src"])
    import repro  # noqa: F401
    from repro.structures.registry import registry_programs

    registry_programs()
    return time.monotonic() - cfg["launched"]


def _trace_summary(rec: Any) -> dict[str, Any]:
    from spans import call_counts, self_times

    return {
        "self_s": self_times(rec.spans),
        "calls": dict(call_counts(rec.spans)),
        "counts": dict(rec.counts),
    }


def _report_seconds(payload: dict[str, Any] | None) -> float:
    report = (payload or {}).get("report") or {}
    return sum(float(o.get("seconds", 0.0)) for o in report.get("obligations", []))


def run_sweep(cfg: dict[str, Any]) -> dict[str, Any]:
    setup_s = _import_repro(cfg)
    from repro.engine import resolve_programs, sweep

    rec = None
    if cfg["trace"] != "none":
        from spans import Recorder

        import layers

        rec = Recorder()
        rec.op = "sweep"
        if cfg["trace"] == "all":
            layers.install(rec)
        else:
            layers.install_engine(rec)
    taps = {"units": 0, "retries": 0, "unit_overhead_s": 0.0, "busy_s": 0.0}

    def on_result(tr: Any) -> None:
        report_s = _report_seconds(tr.payload)
        taps["units"] += 1
        taps["retries"] += tr.retries
        taps["busy_s"] += report_s
        if tr.payload is not None:
            taps["unit_overhead_s"] += tr.seconds - report_s

    programs = resolve_programs(cfg["programs"])
    order = {name: i for i, name in enumerate(cfg["programs"])}
    programs = tuple(sorted(programs, key=lambda info: order[info.name]))
    started = time.monotonic()
    result = sweep(
        programs,
        jobs=cfg["jobs"],
        cache_dir=cfg["cache_dir"],
        on_result=on_result,
    )
    ended = time.monotonic()
    cpu_s, rss_mb = _usage()
    rows = []
    for outcome in result.outcomes:
        row = outcome.to_dict()
        for f in row.get("failures") or []:
            f.pop("witnesses", None)
            f.pop("traceback", None)
        rows.append(row)
    out = {
        "setup_s": setup_s,
        "verify_s": ended - cfg["launched"],
        "sweep_s": ended - started,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb,
        "jobs": result.jobs,
        "exit_code": result.exit_code(),
        "degraded": result.degraded,
        "interrupted": result.interrupted,
        "programs": rows,
        "taps": taps,
        "cache_bytes": _dir_bytes(Path(cfg["cache_dir"])),
    }
    if rec is not None:
        out["trace"] = _trace_summary(rec)
        _write_spans(cfg, rec)
    return out


def _write_spans(cfg: dict[str, Any], rec: Any) -> None:
    path = cfg.get("spans_path")
    if path:
        Path(path).write_text(json.dumps(rec.spans), encoding="utf-8")


def run_watch(cfg: dict[str, Any]) -> dict[str, Any]:
    sys.dont_write_bytecode = True  # edited sources must never meet a stale .pyc
    import_s = _import_repro(cfg)
    from repro.serve import DaemonServer, Session, call
    from repro.serve.watcher import Watcher

    class RecordingWatcher(Watcher):
        """Keeps the terminal frame of each cycle's verify request."""

        frame: dict[str, Any] | None = None

        def _verify(self, stale: list[str]) -> dict[str, Any]:
            self.frame = super()._verify(stale)
            return self.frame

    session = Session(cache_dir=cfg["cache_dir"])
    server = DaemonServer(session, socket_path=cfg["socket"])
    server.start()
    try:
        frame = call(
            "verify", {"programs": cfg["prime"]}, socket_path=server.socket_path, timeout=600
        )
        session.refresh_fingerprints()
        setup_s = time.monotonic() - cfg["launched"]
        prime_ok = frame.get("exit_code") == 0
        import oracle
        from repro.structures.registry import registry_programs

        scopes = {
            module: oracle.affected(Path(cfg["src"]), registry_programs(), module)
            for module in sorted({edit["module"] for edit in cfg["edits"]})
        }
        watcher = RecordingWatcher(server, out=None, report_path=cfg["cycle_log"])
        sessions = []
        for spec in cfg["sessions"]:
            sessions.append(_watch_session(cfg, spec, session, watcher))
    finally:
        server.stop()
    return {
        "setup_s": setup_s,
        "import_s": import_s,
        "prime_ok": prime_ok,
        "cache_bytes": _dir_bytes(Path(cfg["cache_dir"])),
        "scopes": scopes,
        "sessions": sessions,
    }


def _watch_session(
    cfg: dict[str, Any], spec: dict[str, Any], session: Any, watcher: Any
) -> dict[str, Any]:
    rec = None
    if spec["trace"]:
        from spans import Recorder

        import layers

        rec = Recorder()
        layers.install(rec)
        layers.install_watch(rec, watcher)
    src = Path(cfg["src"])
    cycles = []
    cpu0, _ = _usage()
    t0 = time.monotonic()
    for i, edit in enumerate(cfg["edits"]):
        path = src / edit["path"]
        original = path.read_text(encoding="utf-8")
        lines = original.splitlines(keepends=True)
        lines.insert(edit["line"], f"{edit['indent']}# perfbench edit {spec['nonce']}-{i}\n")
        for kind, text in (("edit", "".join(lines)), ("revert", original)):
            if rec is not None:
                rec.op = f"{kind}-{i}"
            watcher.frame = None
            started = time.monotonic()
            path.write_text(text, encoding="utf-8")
            code = watcher.handle_change([str(path)])
            latency = time.monotonic() - started
            frame = watcher.frame or {}
            payload = frame.get("payload") if frame.get("type") == "result" else None
            rows = [
                {
                    k: row.get(k)
                    for k in ("program", "ok", "status", "obligations", "failures", "prepass_skips")
                }
                for row in (payload or {}).get("programs", [])
            ]
            record = _last_record(cfg["cycle_log"])
            cycles.append(
                {
                    "kind": kind,
                    "module": edit["module"],
                    "function": edit["function"],
                    "exit_code": code,
                    "seconds": latency,
                    "stale": record.get("stale", []),
                    "reverified": record.get("reverified", 0),
                    "obligations": record.get("total", 0),
                    "programs": rows,
                }
            )
    t1 = time.monotonic()
    cpu1, rss_mb = _usage()
    out = {"cycles": cycles, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss_mb, "t0": t0, "t1": t1}
    if rec is not None:
        out["trace"] = _trace_summary(rec)
        _write_spans(cfg, rec)
    return out


def _last_record(path: str) -> dict[str, Any]:
    """The watcher's record of the cycle that just ended."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_setup(cfg: dict[str, Any]) -> dict[str, Any]:
    return {"setup_s": _import_repro(cfg)}


MODES = {"setup": run_setup, "sweep": run_sweep, "watch": run_watch}


def main(argv: list[str]) -> int:
    cfg = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    result = MODES[cfg["mode"]](cfg)
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
