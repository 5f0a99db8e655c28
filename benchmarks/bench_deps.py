"""fcsl-deps benchmark — incremental re-verification must pay for itself.

Gates the two headline numbers of ISSUE 9 on the ticketed-lock case
study:

* **One-action edit**: inserting a behaviour-neutral line into
  ``TicketWriteResAction.step`` must re-verify at most 25% of the
  program's obligations (the action's own obligation plus the triples
  that execute it), with verdicts identical to the cold run.
* **Cold analysis overhead**: a cold ``--incremental`` sweep — which
  collects the obligation plan while verifying and walks every
  dependency cone — must cost at most 5% wall clock over a plain cold
  sweep (best-of runs, plus an absolute sub-second grace for scheduler
  noise on shared boxes).

Artifact: ``benchmarks/out/deps.json`` (committed, uploaded by CI).
"""

from __future__ import annotations

import ast
import importlib.util
import shutil
import time
from pathlib import Path

from repro.analysis.deps import analyze_obligations
from repro.engine import run_sweep
from repro.structures.registry import program

from conftest import emit, emit_json

PROGRAM = "Ticketed lock"

#: The one-action edit of the ISSUE: one write-action ``step``.
TARGET = "TicketWriteResAction.step"

#: A one-action edit may re-verify at most this fraction of obligations.
MAX_REVERIFIED_FRACTION = 0.25

#: Cold dependency analysis may cost at most this fraction of a plain
#: cold sweep.
MAX_ANALYSIS_OVERHEAD = 0.05

#: Absolute grace: a sub-second delta on a noisy box is scheduler
#: jitter, not analysis cost (same policy as bench_durability).
OVERHEAD_SLACK_SECONDS = 0.5

REPEATS = 5


def _verdicts(result):
    return {
        o.name: (
            o.report.ok,
            {
                ob.name: (ob.ok, tuple(ob.issues))
                for ob in o.report.obligations
            },
        )
        for o in result.outcomes
    }


def _module_path(module: str) -> Path:
    spec = importlib.util.find_spec(module)
    assert spec is not None and spec.origin is not None
    return Path(spec.origin)


def _insert_comment(path: Path, qualname: str) -> None:
    """Insert a no-op comment as the first body line of ``qualname``:
    the definition's segment digest changes, its behaviour does not."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    cls_name, method_name = qualname.split(".")
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            for child in node.body:
                if (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child.name == method_name
                ):
                    lines = text.splitlines(keepends=True)
                    first = child.body[0]
                    indent = " " * first.col_offset
                    lines.insert(
                        first.lineno - 1, f"{indent}# bench probe\n"
                    )
                    path.write_text("".join(lines), encoding="utf-8")
                    return
    raise AssertionError(f"{qualname} not found in {path}")


def _timed_cold(cache_dir: Path, *, incremental: bool) -> float:
    shutil.rmtree(cache_dir, ignore_errors=True)
    started = time.perf_counter()
    result = run_sweep(
        names=[PROGRAM], jobs=1, cache_dir=cache_dir, incremental=incremental
    )
    elapsed = time.perf_counter() - started
    assert result.ok
    return elapsed


def test_deps_benchmark(out_dir):
    info = program(PROGRAM)
    module = info.modules[0]
    path = _module_path(module)
    original = path.read_text(encoding="utf-8")
    cache_dir = out_dir / "deps-cache"

    # -- gate 1: one-action edit re-verifies a sliver --------------------------
    analysis = analyze_obligations(info)
    assert analysis.usable
    expected = analysis.affected_by(module, TARGET)
    assert expected, f"{TARGET} affects no obligations"
    total = len(analysis.obligations)

    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        cold = run_sweep(
            names=[PROGRAM], jobs=1, cache_dir=cache_dir, incremental=True
        )
        _insert_comment(path, TARGET)
        edited = run_sweep(
            names=[PROGRAM], jobs=1, cache_dir=cache_dir, incremental=True
        )
    finally:
        path.write_text(original, encoding="utf-8")
    outcome = edited.outcome(PROGRAM)
    assert not outcome.cached
    reverified = outcome.reverified
    fraction = reverified / total
    assert _verdicts(cold) == _verdicts(edited)

    # -- gate 2: cold analysis overhead ----------------------------------------
    # Alternate the configurations, flipping which goes first each
    # repeat (cancels slow drift in either direction), and keep the
    # best of each: the minimum is the least-disturbed run.
    plain_runs, inc_runs = [], []
    for i in range(REPEATS):
        first, second = (False, True) if i % 2 == 0 else (True, False)
        for incremental in (first, second):
            (inc_runs if incremental else plain_runs).append(
                _timed_cold(cache_dir, incremental=incremental)
            )
    shutil.rmtree(cache_dir, ignore_errors=True)
    plain_secs, inc_secs = min(plain_runs), min(inc_runs)
    overhead = (inc_secs - plain_secs) / plain_secs
    overhead_ok = (
        inc_secs <= plain_secs * (1.0 + MAX_ANALYSIS_OVERHEAD)
        or inc_secs - plain_secs <= OVERHEAD_SLACK_SECONDS
    )

    lines = [
        f"{PROGRAM}: one-action edit ({TARGET})",
        f"  re-verified: {reverified}/{total} obligations "
        f"({fraction:.0%}, budget {MAX_REVERIFIED_FRACTION:.0%})",
        f"  cone: {', '.join(sorted(expected))}",
        "",
        f"{'cold sweep':<24} {'best':>8}  runs",
        "-" * 60,
        f"{'plain':<24} {plain_secs:>7.2f}s  "
        + " ".join(f"{s:.2f}" for s in plain_runs),
        f"{'incremental':<24} {inc_secs:>7.2f}s  "
        + " ".join(f"{s:.2f}" for s in inc_runs),
        "",
        f"analysis overhead: {overhead:+.1%} "
        f"(budget {MAX_ANALYSIS_OVERHEAD:.0%}, "
        f"slack {OVERHEAD_SLACK_SECONDS:.1f}s)",
    ]
    emit(out_dir, "deps.txt", "\n".join(lines))
    emit_json(
        out_dir,
        "deps.json",
        {
            "program": PROGRAM,
            "target": TARGET,
            "obligations": total,
            "reverified": reverified,
            "reverified_fraction": fraction,
            "cone": sorted(expected),
            "repeats": REPEATS,
            "cold_plain_seconds": plain_secs,
            "cold_incremental_seconds": inc_secs,
            "cold_plain_runs": plain_runs,
            "cold_incremental_runs": inc_runs,
            "analysis_overhead": overhead,
            "within_budget": fraction <= MAX_REVERIFIED_FRACTION
            and overhead_ok,
        },
    )

    assert reverified == len(expected), (
        f"edit to {TARGET} re-verified {reverified} obligations, "
        f"cone says {sorted(expected)}"
    )
    assert fraction <= MAX_REVERIFIED_FRACTION, (
        f"one-action edit re-verified {fraction:.0%} of {PROGRAM}"
    )
    assert overhead_ok, (
        f"cold analysis cost {overhead:.1%} "
        f"({inc_secs:.2f}s vs {plain_secs:.2f}s)"
    )
