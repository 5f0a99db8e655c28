"""The repository benchmark: cold and watch-mode verification of the
paper programs, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-serial --seed 1 --seconds 40 --trace 0

Workloads (Treiber and Flat combiner are in neither; see PROGRAMS):

* ``cold-serial``: ``sweep(programs, jobs=1)`` in a fresh interpreter with
  an empty cache dir over the paper programs in PROGRAMS, plus the
  ``Unfair lock demo`` negative control, in seeded order.  Its traced
  run adds a pool sweep for the supervisor and IPC layer.
* ``watch-edit``: a resident daemon over a private copy of ``src/repro``;
  each cycle writes (or reverts) a behaviour-neutral comment edit and
  runs ``Watcher.handle_change`` on it.

Untraced runs keep the calibrator (``calib.py``) on the spare core and
scale every end-to-end time to the reference host speed over the
interval it was measured in.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run (plus
``trace.overhead_frac`` against an untraced pass).
Lines before it print every metric by name and unit, the provenance,
and any verdict that differs from ``reference.py``.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402

#: Paper programs in registry order.  Flat combiner (45-60 s alone) and
#: Treiber (about 22 s) are left out: with either, a run would hold one
#: sweep or two, where it holds three or four without them.
PROGRAMS = (
    "CAS-lock",
    "Ticketed lock",
    "CG increment",
    "CG allocator",
    "Pair snapshot",
    "Spanning tree",
    "Seq. stack",
    "FC-stack",
    "Prod/Cons",
)

#: The watch-edit programs (the paper programs other than Treiber and
#: Flat combiner, whose dependency cones take 10-50 s per edit) and
#: their source modules (``info.modules``).  One session edits one
#: seeded function in one seeded module of each.
WATCH_SOURCES = {
    "CAS-lock": (
        "repro.structures.locks.caslock",
        "repro.structures.locks.interface",
        "repro.structures.locks.verify",
    ),
    "Ticketed lock": ("repro.structures.locks.ticketed",),
    "CG increment": ("repro.structures.cg_increment",),
    "CG allocator": ("repro.structures.allocator",),
    "Pair snapshot": ("repro.structures.pair_snapshot",),
    "Spanning tree": (
        "repro.structures.spanning_tree",
        "repro.structures.spanning_tree_verify",
    ),
    "Seq. stack": ("repro.structures.seq_stack",),
    "FC-stack": ("repro.structures.fc_stack",),
    "Prod/Cons": ("repro.structures.prodcons",),
}

#: Seed of the edited-function draw.  Fixed, because a cycle's cost
#: depends on the edited function's dependency cone: a per-run draw
#: moved the session total by 13% (IQR/median over five seeds), so the
#: run's seed only orders the cycles.
EDIT_SET_SEED = 1

#: Edited in every session besides the seeded draw: a confirmed miss of
#: the stale-set oracle (the edit moves only CAS-lock's fingerprint,
#: though Ticketed lock's verifier lives here).
PINNED_EDIT = ("repro.structures.locks.verify", "verify_ticketed_lock")

#: Fresh-interpreter set-ups per cold run besides the sweep's own.
SETUP_PROBES = 8

#: Untraced sessions of the edit set per watch-edit run, in one daemon.
#: A session (20 cycles) takes 17-28 s.  Over ten runs the scaled
#: session total spread 0.073 (IQR/median) with one session and
#: 0.014-0.019 with the median of two.
WATCH_SESSIONS = 2

CHILD_TIMEOUT = 170.0

END_TO_END = {
    "verify_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "structures.import_s": "s",
    "analysis.prepass_s": "s",
    "analysis.prepass_calls": "count",
    "analysis.prepass_skips": "count",
    "analysis.deps_s": "s",
    "analysis.deps_calls": "count",
    "core.stab_s": "s",
    "core.stab_calls": "count",
    "core.acts_s": "s",
    "core.acts_calls": "count",
    "core.conc_s": "s",
    "core.conc_calls": "count",
    "core.main_s": "s",
    "core.main_calls": "count",
    "core.closure_s": "s",
    "core.env_moves_calls": "count",
    "core.coherent_calls": "count",
    "core.successors_calls": "count",
    "semantics.explore_s": "s",
    "semantics.explore_calls": "count",
    "semantics.configs": "count",
    "semantics.deduped": "count",
    "semantics.truncated": "count",
    "values.state_new": "count",
    "values.state_hash": "count",
    "values.subj_hash": "count",
    "values.heap_new": "count",
    "values.heap_hash": "count",
    "values.history_new": "count",
    "engine.fingerprint_s": "s",
    "engine.cache_load_s": "s",
    "engine.cache_store_s": "s",
    "engine.cache_bytes": "B",
    "engine.journal_s": "s",
    "engine.units": "count",
    "engine.retries": "count",
    "engine.unit_overhead_s": "s",
    "engine.busy_frac": "ratio",
    "serve.reload_s": "s",
    "serve.fingerprint_diff_s": "s",
    "serve.verify_s": "s",
    "serve.stale_programs": "count",
    "serve.reverified": "count",
    "serve.obligations": "count",
    "serve.reverified_frac": "ratio",
    "serve.missed_stale": "count",
    "serve.cycle_p50_s": "s",
    "serve.cycle_tail_s": "s",
    "serve.cycle_total_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_s": "s",
}

#: spans reported as ``<span>_s`` (self time) and ``<span>_calls``
SPANS = (
    "analysis.prepass",
    "analysis.deps",
    "core.stab",
    "core.acts",
    "core.conc",
    "core.main",
    "core.closure",
    "semantics.explore",
    "engine.fingerprint",
    "engine.cache_load",
    "engine.cache_store",
    "engine.journal",
    "serve.reload",
    "serve.fingerprint_diff",
    "serve.verify",
)


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, crashed child)."""


# -- running children ---------------------------------------------------------


class Run:
    """One invocation's checkout, scratch space and child launcher."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {self.src}")
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.children = 0
        #: the running child, for the calibrator's core swaps
        self.child_pid: int | None = None
        # Byte-compile once, outside any timing, so every set-up reads .pyc.
        compileall.compile_dir(str(self.src / "repro"), quiet=1)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, stem: str) -> Path:
        self.children += 1
        path = self.work / f"{stem}-{self.children}"
        path.mkdir()
        return path

    def child(self, mode: str, **cfg: Any) -> dict[str, Any]:
        """Run ``child.py`` in a fresh interpreter; return its result."""
        box = self.fresh_dir(mode)
        cfg = {"mode": mode, "src": str(self.src), **cfg, "result": str(box / "result.json")}
        cfg_path = box / "config.json"
        env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "REPRO_"))}
        cfg["launched"] = time.monotonic()
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        # A session of its own, so a timeout also stops the pool workers.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(cfg_path)],
            cwd=self.root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.child_pid = proc.pid
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        finally:
            self.child_pid = None
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: {stderr[-2000:]}")
        result = json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))
        result["launched"] = cfg["launched"]
        return result

    def sweep(self, programs: list[str], jobs: int | None, trace: str = "none") -> dict:
        box = self.fresh_dir("cache")
        return self.child(
            "sweep",
            programs=programs,
            jobs=jobs,
            cache_dir=str(box),
            trace=trace,
            spans_path=str(self.root / ".perfbench" / "spans.json"),
        )


def _pin(pid: int, cpus: set[int]) -> None:
    """Set the CPU affinity of every thread of process ``pid``; a
    process or thread that has ended is skipped."""
    try:
        tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(tid, cpus)
        except OSError:
            pass


class Calibrator:
    """The calibrator (``calib.py``) running on a core of its own for
    the length of a ``with`` block, beside the children ``run`` starts
    in it; afterwards ``scale(t0, t1)`` gives the factor that brings a
    wall time measured in ``[t0, t1]`` to the reference host speed, and
    ``scale(t0, t1, cpu=True)`` the factor for a CPU time.

    A thread swaps the cores of the calibrator and of the running child
    every ``calib.ROTATE_S``, so that both spend about as long on each
    core (see ``calib``)."""

    def __init__(self, run: Run) -> None:
        self.run = run

    def __enter__(self) -> "Calibrator":
        self.laps: list[list[float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calib.py")],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self._kill()
            raise BenchError("calibrator did not start")
        self.stopping = threading.Event()
        self.rotator = threading.Thread(target=self._rotate, daemon=True)
        self.rotator.start()
        return self

    def _rotate(self) -> None:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        if len(cpus) < 2:
            return
        turn = 0
        while not self.stopping.wait(calib.ROTATE_S if turn else 0.0):
            mine = cpus[turn % len(cpus)]
            if self.run.child_pid is not None:
                _pin(self.run.child_pid, set(cpus) - {mine})
            _pin(self.proc.pid, {mine})
            turn += 1

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.communicate()

    def __exit__(self, *exc: Any) -> None:
        self.stopping.set()
        self.rotator.join()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except BaseException:
            self._kill()
            raise
        if self.proc.returncode == 0 and out.strip():
            self.laps = json.loads(out.strip().splitlines()[-1])
        elif exc[0] is None:
            raise BenchError(f"calibrator exited {self.proc.returncode}")

    def scale(self, t0: float, t1: float, cpu: bool = False) -> float:
        return calib.REFERENCE_LAP_S / calib.mean_lap(self.laps, t0, t1, cpu)


# -- workloads ----------------------------------------------------------------


class Outcome:
    """Operations attempted/failed plus printed findings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: extra per-run detail kept in the result record only
        self.details: dict[str, Any] = {}

    def check_sweep(self, names: list[str], result: dict[str, Any]) -> None:
        """Check one cold sweep of ``names``.  A sweep that exits 3, fell
        back to serial (degraded) or was interrupted fails every program:
        its verdicts are not a complete answer and its time is not that
        of the requested pool.  A program without a row fails too."""
        self.attempted += len(names)
        if result["exit_code"] == 3 or result["degraded"] or result["interrupted"]:
            self.failed += len(names)
            self.notes.append(
                f"sweep exit {result['exit_code']} (degraded={result['degraded']}, "
                f"interrupted={result['interrupted']}): all {len(names)} programs failed"
            )
            return
        rows = {row.get("program"): row for row in result["programs"]}
        for name in names:
            row = rows.get(name)
            problem = f"{name}: no outcome" if row is None else reference.check_outcome(row)
            if problem is not None:
                self.failed += 1
                self.notes.append(f"verdict mismatch: {problem}")


def cold_programs(seed: int) -> list[str]:
    """The programs of one cold sweep, in seeded order."""
    names = list(PROGRAMS) + [reference.CONTROL]
    random.Random(seed).shuffle(names)
    return names


def cold_untraced(run: Run, seed: int, seconds: float, out: Outcome) -> dict:
    """Set-up probes, then sweeps while another one still fits in
    ``seconds`` (at least one), with the calibrator beside them; medians
    over the scaled samples.  A probe is too short to calibrate on its
    own (and the parent, launching one after another, is busy beside
    the calibrator), so probes take the median scale of the sweeps."""
    with Calibrator(run) as cal:
        probes = [run.child("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        started = time.monotonic()
        sweeps: list[dict[str, Any]] = []
        while not sweeps or (time.monotonic() - started) * (len(sweeps) + 1) / len(sweeps) <= seconds:
            names = cold_programs(seed + len(sweeps))
            result = run.sweep(names, 1)
            out.check_sweep(names, result)
            sweeps.append(result)
    verify, cpu, setups, scales = [], [], [], []
    for r in sweeps:
        window = (r["launched"], r["launched"] + r["verify_s"])
        k, k_cpu = cal.scale(*window), cal.scale(*window, cpu=True)
        scales.append((k, k_cpu))
        verify.append(r["verify_s"] * k)
        cpu.append(r["cpu_s"] * k_cpu)
        setups.append(r["setup_s"] * k)
    probe_scale = stats.median([k for k, _ in scales])
    setups += [s * probe_scale for s in probes]
    out.details["raw"] = {
        "setup_probes_s": probes,
        "probe_scale": probe_scale,
        "sweeps": [
            [r["setup_s"], r["verify_s"], r["cpu_s"], k, k_cpu]
            for r, (k, k_cpu) in zip(sweeps, scales)
        ],
    }
    out.notes.append(
        f"cold sweeps measured: {len(sweeps)}; raw verify_s "
        + " ".join(f"{r['verify_s']:.3f}" for r in sweeps)
        + " s; raw cpu_s "
        + " ".join(f"{r['cpu_s']:.3f}" for r in sweeps)
        + " s; host scale wall/cpu "
        + " ".join(f"{k:.3f}/{k_cpu:.3f}" for k, k_cpu in scales)
        + f" (set-up probes {probe_scale:.3f})"
    )
    return {
        "verify_s": stats.median(verify),
        "cpu_s": stats.median(cpu),
        "setup_s": stats.median(setups),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in sweeps]),
    }


def layer_metrics(trace: dict[str, Any]) -> dict[str, float]:
    """Span self times and call counts, plus the counted wrappers."""
    self_s = trace["self_s"]
    calls = trace["calls"]
    counts = trace["counts"]
    # Layers a workload never enters read 0.
    out: dict[str, float] = {name: counts.get(name, 0) for name in PER_LAYER}
    for span in SPANS:
        out[f"{span}_s"] = self_s.get(span, 0.0)
        out[f"{span}_calls"] = calls.get(span, 0)
    return out


def engine_taps(result: dict[str, Any]) -> dict[str, float]:
    taps = result["taps"]
    wall = result["sweep_s"] * max(1, result["jobs"])
    return {
        "engine.units": taps["units"],
        "engine.retries": taps["retries"],
        "engine.unit_overhead_s": taps["unit_overhead_s"],
        "engine.busy_frac": taps["busy_s"] / wall if wall else 0.0,
        "engine.cache_bytes": result["cache_bytes"],
    }


def cold_traced(run: Run, seed: int, out: Outcome) -> dict[str, float]:
    """An untraced and a traced serial sweep, plus a pool sweep (the
    default ``jobs``, one worker per core) for the supervisor and IPC
    layer.  Engine numbers come from the pool (parent-side spans and
    taps); checker and value counts from the traced serial sweep,
    because fork-started workers do not ship wrapper counts home."""
    names = cold_programs(seed)
    engine_src = run.sweep(names, None, trace="engine")
    plain = run.sweep(names, 1)
    traced = run.sweep(names, 1, trace="all")
    out.check_sweep(names, engine_src)
    out.check_sweep(names, plain)
    out.check_sweep(names, traced)
    overhead = traced["verify_s"] / plain["verify_s"] - 1.0
    metrics = layer_metrics(traced["trace"])
    engine = layer_metrics(engine_src["trace"])
    for key in ("engine.fingerprint_s", "engine.cache_load_s", "engine.cache_store_s", "engine.journal_s"):
        metrics[key] = engine[key]
    metrics.update(engine_taps(engine_src))
    metrics["analysis.prepass_skips"] = sum(
        int(row.get("prepass_skips") or 0) for row in traced["programs"]
    )
    metrics["structures.import_s"] = traced["setup_s"]
    metrics["trace.overhead_frac"] = overhead
    layers_s = sum(traced["trace"]["self_s"].values())
    metrics["trace.unaccounted_s"] = traced["sweep_s"] - layers_s
    out.notes.append(
        f"traced sweep {traced['sweep_s']:.3f} s: layer self times {layers_s:.3f} s, "
        f"unaccounted {metrics['trace.unaccounted_s']:.3f} s"
    )
    return metrics


def edit_sites(root: Path, module: str) -> list[dict[str, Any]]:
    """Every function of ``module`` whose body starts on its own line,
    with where a comment becomes its first body line."""
    rel = Path(*module.split(".")).with_suffix(".py")
    tree = ast.parse((root / "src" / rel).read_text(encoding="utf-8"))
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if first.lineno > node.lineno:
                sites.append(
                    {
                        "module": module,
                        "path": str(rel),
                        "function": node.name,
                        "line": first.lineno - 1,
                        "indent": " " * first.col_offset,
                    }
                )
    return sorted(sites, key=lambda site: site["line"])


def draw_edits(root: Path, seed: int) -> list[dict[str, Any]]:
    """One function per watch program, drawn with EDIT_SET_SEED, plus
    the pinned edit; ``seed`` orders them."""
    pick = random.Random(EDIT_SET_SEED)
    edits = [pick.choice(edit_sites(root, pick.choice(mods))) for mods in WATCH_SOURCES.values()]
    module, function = PINNED_EDIT
    pinned = [site for site in edit_sites(root, module) if site["function"] == function]
    if not pinned:
        raise BenchError(f"pinned edit target {module}:{function} not found")
    edits += pinned
    random.Random(seed).shuffle(edits)
    return edits


def watch_child(run: Run, seed: int, sessions: list[dict[str, Any]]) -> dict[str, Any]:
    private = run.fresh_dir("tree")
    shutil.copytree(run.src / "repro", private / "repro")
    box = run.fresh_dir("watch")
    result = run.child(
        "watch",
        src=str(private),
        cache_dir=str(box / "cache"),
        socket=str((box / "d.sock").relative_to(run.root)),
        cycle_log=str(box / "cycles.jsonl"),
        prime=list(WATCH_SOURCES),
        edits=draw_edits(run.root, seed),
        sessions=sessions,
        spans_path=str(run.root / ".perfbench" / "spans.json"),
    )
    if not result["prime_ok"]:
        raise BenchError("priming verify of the watch programs failed")
    return result


def check_cycles(result: dict[str, Any], session: dict[str, Any], out: Outcome) -> dict:
    """Verdicts and the stale-set oracle for one watch session.  A cycle
    fails on an infra exit, a verdict that differs from the reference,
    or a missed stale program beyond ``oracle.KNOWN_MISSES``."""
    missed = defect_cycles = 0
    for cycle in session["cycles"]:
        out.attempted += 1
        where = f"{cycle['kind']} of {cycle['module']}:{cycle['function']}"
        problems = [p for row in cycle["programs"] if (p := reference.check_outcome(row))]
        if cycle["exit_code"] not in (0, 1):
            problems.append(f"exit {cycle['exit_code']}")
        expected = set(result["scopes"][cycle["module"]])
        lost = expected - set(cycle["stale"])
        if lost:
            missed += len(lost)
            defect_cycles += 1
            out.notes.append(f"missed stale: {where} left {sorted(lost)} unverified")
            new = sorted(lost - oracle.KNOWN_MISSES.get(cycle["module"], frozenset()))
            if new:
                problems.append(f"missed stale beyond the baseline: {new}")
        if problems:
            out.failed += 1
            out.notes.append(f"cycle failed: {where}: {problems}")
    return {"missed": missed, "defect_cycles": defect_cycles}


def cycle_summary(cycles: list[dict[str, Any]]) -> dict[str, float]:
    latencies = [c["seconds"] for c in cycles]
    # Fewer than 20 cycles leave no percentile with ten beyond it: the
    # maximum is reported instead, labelled p100.
    pct = stats.tail_percentile(len(latencies)) or 100.0
    return {
        "p50": stats.median(latencies),
        "tail": stats.nearest_rank(latencies, pct),
        "tail_pct": pct,
        "total": sum(latencies),
        "n": len(latencies),
    }


def watch_untraced(run: Run, seed: int, out: Outcome) -> dict:
    """One daemon set-up, then WATCH_SESSIONS sessions of the edit set,
    with the calibrator beside them; the set-up and each session are
    scaled by the host speed over their own interval."""
    specs = [{"nonce": f"u{i}", "trace": False} for i in range(WATCH_SESSIONS)]
    with Calibrator(run) as cal:
        result = watch_child(run, seed, specs)
    sessions = result["sessions"]
    setup_scale = cal.scale(result["launched"], result["launched"] + result["setup_s"])
    scales = [cal.scale(x["t0"], x["t1"]) for x in sessions]
    cpu_scales = [cal.scale(x["t0"], x["t1"], cpu=True) for x in sessions]
    totals = [sum(c["seconds"] for c in x["cycles"]) for x in sessions]
    cycles = [c for x in sessions for c in x["cycles"]]
    out.details["raw"] = {
        "setup_s": result["setup_s"],
        "setup_scale": setup_scale,
        "session_totals_s": totals,
        "session_scales": scales,
        "session_cpu_s": [x["cpu_s"] for x in sessions],
        "session_cpu_scales": cpu_scales,
    }
    out.details["cycles"] = [
        [c["kind"], c["module"], c["function"], c["seconds"], c["stale"]] for c in cycles
    ]
    missed = [check_cycles(result, x, out) for x in sessions]
    summary = cycle_summary(cycles)
    out.notes.append(
        f"cycle_p50_s={summary['p50']:.4f} s  cycle_tail_s=p{summary['tail_pct']} "
        f"{summary['tail']:.4f} s  (n={summary['n']} cycles, unscaled)  cycle_total_s per "
        "session " + " ".join(f"{t:.4f}" for t in totals)
        + " s  serve.missed_stale per session " + " ".join(str(m["missed"]) for m in missed)
    )
    out.notes.append(
        f"stale-set defect: {missed[0]['defect_cycles']}/{len(sessions[0]['cycles'])} cycles "
        "of a session miss programs the oracle names; within the pinned baseline they are "
        "not counted in failed"
    )
    out.notes.append(
        f"host scale: set-up {setup_scale:.3f}, sessions wall/cpu "
        + " ".join(f"{k:.3f}/{k_cpu:.3f}" for k, k_cpu in zip(scales, cpu_scales))
        + f"; raw setup_s {result['setup_s']:.4f} s"
    )
    return {
        "verify_s": stats.median([t * k for t, k in zip(totals, scales)]),
        "cpu_s": stats.median([x["cpu_s"] * k for x, k in zip(sessions, cpu_scales)]),
        "setup_s": result["setup_s"] * setup_scale,
        "peak_rss_mb": sessions[-1]["peak_rss_mb"],
    }


def watch_traced(run: Run, seed: int, out: Outcome) -> dict[str, float]:
    result = watch_child(
        run, seed, [{"nonce": "u", "trace": False}, {"nonce": "t", "trace": True}]
    )
    plain, traced = result["sessions"]
    check_cycles(result, plain, out)
    missed = check_cycles(result, traced, out)
    summary = cycle_summary(plain["cycles"])
    metrics = layer_metrics(traced["trace"])
    cycles = traced["cycles"]
    reverified = sum(int(c["reverified"] or 0) for c in cycles)
    obligations = sum(int(c["obligations"] or 0) for c in cycles)
    traced_total = sum(c["seconds"] for c in cycles)
    metrics.update(
        {
            "structures.import_s": result["import_s"],
            "analysis.prepass_skips": sum(
                int(row.get("prepass_skips") or 0) for c in cycles for row in c["programs"]
            ),
            "engine.units": 0,
            "engine.retries": 0,
            "engine.unit_overhead_s": 0.0,
            "engine.busy_frac": 0.0,
            "engine.cache_bytes": result["cache_bytes"],
            "serve.stale_programs": sum(len(c["stale"]) for c in cycles),
            "serve.reverified": reverified,
            "serve.obligations": obligations,
            "serve.reverified_frac": reverified / obligations if obligations else 0.0,
            "serve.missed_stale": missed["missed"],
            "serve.cycle_p50_s": summary["p50"],
            "serve.cycle_tail_s": summary["tail"],
            "serve.cycle_total_s": summary["total"],
            "trace.overhead_frac": traced_total / summary["total"] - 1.0,
            # serve.cycle's own self time is what a cycle spends outside
            # every layer, so it stays in the remainder.
            "trace.unaccounted_s": traced_total
            - sum(s for name, s in traced["trace"]["self_s"].items() if name != "serve.cycle"),
        }
    )
    return metrics


# -- output -------------------------------------------------------------------


def provenance(root: Path, workload: str, args: argparse.Namespace) -> dict[str, Any]:
    def git(*cmd: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *cmd], cwd=root, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


WORKLOADS = ("cold-serial", "watch-edit")


def measure(run: Run, workload: str, args: argparse.Namespace, out: Outcome) -> dict[str, float]:
    if args.trace:
        if workload == "watch-edit":
            return watch_traced(run, args.seed, out)
        return cold_traced(run, args.seed, out)
    if workload == "watch-edit":
        return watch_untraced(run, args.seed, out)
    return cold_untraced(run, args.seed, args.seconds, out)


def report(root: Path, workload: str, args: argparse.Namespace, out: Outcome, metrics: dict) -> dict:
    """Record one workload's result under ``.perfbench/results`` and
    print its metrics by name and unit; returns the metrics object."""
    units = PER_LAYER if args.trace else END_TO_END
    record = {
        "provenance": provenance(root, workload, args),
        "attempted": out.attempted,
        "failed": out.failed,
        "notes": out.notes,
        **out.details,
        "metrics": metrics,
    }
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = f"{workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    print(f"provenance: {json.dumps(record['provenance'])}")
    for note in out.notes:
        print(note)
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"failed_frac = {frac:.4f} ratio ({out.failed}/{out.attempted})")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # On SIGTERM unwind normally, so that every child and the calibrator
    # are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    try:
        run = Run(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    measured = []
    try:
        for workload in workloads:
            out = Outcome()
            measured.append((workload, out, measure(run, workload, args, out)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    metrics = {}
    for workload, out, values in measured:
        if len(workloads) > 1:
            print(f"== {workload}")
        for name, value in report(root, workload, args, out, values).items():
            metrics[name if len(workloads) == 1 else f"{workload}/{name}"] = value
    attempted = sum(out.attempted for _, out, _ in measured)
    failed = sum(out.failed for _, out, _ in measured)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
