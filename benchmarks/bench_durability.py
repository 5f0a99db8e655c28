"""Durability benchmark — the sweep journal must be nearly free.

Runs a fast registry subset twice per configuration (best-of damps
scheduler noise) with journaling on and off, and asserts the fsync'd
per-unit journal costs at most 5% wall-clock overhead (ISSUE 8).  The
journal fires one ``fsync`` per work unit plus two sweep records, so
its cost is bounded by unit count, not verification time — against
second-scale real verifiers it must disappear into the noise.

Also records (and asserts) the journal's on-disk footprint staying in
the tens-of-KB range for the subset: durability must not become a
disk-usage regression either.

Artifact: ``benchmarks/out/durability.json`` (uploaded by CI).
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

from repro.engine import run_sweep

from conftest import emit, emit_json

#: Fast rows: enough real verification work to dwarf per-unit fsyncs.
PROGRAMS = ("CAS-lock", "Ticketed lock", "CG increment")

#: Journaling must cost at most this fraction of the no-journal sweep.
MAX_JOURNAL_OVERHEAD = 0.05

#: Absolute grace: two sub-second syscall bursts on a noisy CI box are
#: scheduler jitter, not journal cost.
OVERHEAD_SLACK_SECONDS = 0.5

#: The journal for this subset must stay small (KB, not MB).
MAX_JOURNAL_BYTES = 256 * 1024

REPEATS = 2


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


def _best_of(**kwargs):
    best, result = None, None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = run_sweep(names=list(PROGRAMS), **kwargs)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_journal_overhead(out_dir):
    cache_dir = out_dir / "durability-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)

    plain, plain_secs = _best_of(
        jobs=1, cache=False, cache_dir=cache_dir, journal=False
    )
    journaled, journaled_secs = _best_of(
        jobs=1, cache=False, cache_dir=cache_dir, journal=True
    )

    # Durability changes nothing about the verdicts.
    assert _verdicts(plain) == _verdicts(journaled)
    assert plain.ok and journaled.ok

    overhead = (journaled_secs - plain_secs) / plain_secs
    within_budget = (
        journaled_secs <= plain_secs * (1.0 + MAX_JOURNAL_OVERHEAD)
        or journaled_secs - plain_secs <= OVERHEAD_SLACK_SECONDS
    )

    journal_bytes = 0
    jpath = Path(journaled.journal_path)
    if jpath.is_file():
        journal_bytes = jpath.stat().st_size
    assert journal_bytes > 0, "journaled sweep left no journal behind"
    assert journal_bytes <= MAX_JOURNAL_BYTES

    lines = [
        f"{'configuration':<24} {'wall':>8}",
        "-" * 33,
        f"{'journal off':<24} {plain_secs:>7.2f}s",
        f"{'journal on':<24} {journaled_secs:>7.2f}s",
        "",
        f"journal overhead: {overhead:+.1%} "
        f"(budget {MAX_JOURNAL_OVERHEAD:.0%}, "
        f"slack {OVERHEAD_SLACK_SECONDS:.1f}s)",
        f"journal size: {journal_bytes / 1024:.1f} KiB "
        f"(budget {MAX_JOURNAL_BYTES / 1024:.0f} KiB)",
    ]
    emit(out_dir, "durability.txt", "\n".join(lines))
    emit_json(
        out_dir,
        "durability.json",
        {
            "programs": list(PROGRAMS),
            "repeats": REPEATS,
            "journal_off_seconds": plain_secs,
            "journal_on_seconds": journaled_secs,
            "overhead": overhead,
            "journal_bytes": journal_bytes,
            "within_budget": within_budget,
        },
    )

    assert within_budget, (
        f"journaling cost {overhead:.1%} "
        f"({journaled_secs:.2f}s vs {plain_secs:.2f}s)"
    )

    shutil.rmtree(cache_dir, ignore_errors=True)
