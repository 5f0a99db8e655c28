"""Self-tests of the benchmark's own machinery.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import oracle
import stats
from spans import Recorder, self_times, timed, wrap_function

SRC = Path(__file__).resolve().parents[2] / "src"


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "pct"),
    [(10, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_nearest_rank():
    samples = [float(i) for i in range(1, 41)]
    assert stats.nearest_rank(samples, 75.0) == 30.0
    assert stats.nearest_rank(samples, 100.0) == 40.0
    assert stats.nearest_rank([3.0], 50.0) == 3.0


# -- host-speed calibration ----------------------------------------------------


def test_mean_lap_weights_laps_by_their_overlap():
    import calib

    laps = [(0.0, 1.0, 0.5), (1.0, 3.0, 1.5), (3.0, 4.0, 1.0)]
    assert calib.mean_lap(laps, 1.0, 3.0) == 2.0
    assert calib.mean_lap(laps, 1.0, 3.0, cpu=True) == 1.5
    # half of the first lap (1 s long) and all of the second (2 s long)
    assert calib.mean_lap(laps, 0.5, 3.0) == pytest.approx((0.5 * 1.0 + 2.0 * 2.0) / 2.5)


def test_mean_lap_falls_back_to_the_nearest_lap():
    import calib

    assert calib.mean_lap([(0.0, 1.0, 1.0), (5.0, 7.0, 1.5)], 7.5, 8.0) == 2.0
    with pytest.raises(ValueError):
        calib.mean_lap([], 0.0, 1.0)


def test_calibration_explores_every_state():
    import calib

    assert calib.explore(4) == 4**4


# -- self time ----------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    with rec.span("core.main"):  # 0 .. 10
        clock.now = 1.0
        with rec.span("semantics.explore"):  # 1 .. 4
            clock.now = 2.0
            with rec.span("core.closure"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with rec.span("semantics.explore"):  # 6 .. 8
            clock.now = 8.0
        clock.now = 10.0
    got = self_times(rec.spans)
    assert got == {"core.main": 5.0, "semantics.explore": 4.0, "core.closure": 1.0}


def test_self_time_clips_children_and_merges_overlaps():
    spans = [
        (0, "parent", 0.0, 10.0, None, "op"),
        (1, "a", 2.0, 6.0, 0, "op"),
        (2, "b", 4.0, 12.0, 0, "op"),  # overlaps a, runs past the parent
    ]
    assert self_times(spans)["parent"] == pytest.approx(2.0)


def test_handoff_parents_spans_on_another_thread():
    import threading

    rec = Recorder()

    def work() -> None:
        with rec.span("core.stab"):
            pass

    with rec.span("serve.verify") as sid:
        rec.handoff = sid
        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        rec.handoff = None
    parents = {span[1]: span[4] for span in rec.spans}
    assert parents == {"core.stab": sid, "serve.verify": None}


# -- the binding-replacing wrapper ---------------------------------------------


def test_wrapped_check_stability_seen_through_case_study_binding():
    import repro.core.stability as stability
    import repro.structures.treiber_verify as treiber_verify

    original = stability.check_stability
    assert treiber_verify.check_stability is original
    rec = Recorder()
    wrapper = wrap_function(stability, "check_stability", lambda fn: timed(rec, "core.stab", fn))
    try:
        assert treiber_verify.check_stability is wrapper
        with pytest.raises(TypeError):
            treiber_verify.check_stability()
        assert [span[1] for span in rec.spans] == ["core.stab"]
    finally:
        from spans import rebind

        stability.check_stability = original
        rebind(wrapper, original)
    assert treiber_verify.check_stability is original


# -- the stale-set oracle --------------------------------------------------------


def _programs():
    from repro.structures.registry import registry_programs

    return {info.name: info for info in registry_programs()}


def test_oracle_flags_ticketed_lock_for_its_verifier_file():
    # Editing verify_ticketed_lock (locks/verify.py) moves only CAS-lock's
    # fingerprint: the file is not among Ticketed lock's info.modules.
    programs = _programs()
    module = "repro.structures.locks.verify"
    hit = oracle.affected(SRC, programs.values(), module)
    assert "CAS-lock" in hit and "Ticketed lock" in hit
    assert module in programs["CAS-lock"].modules
    assert module not in programs["Ticketed lock"].modules


def test_oracle_flags_cg_increment_for_lock_edits():
    # cg_increment.py imports both lock modules, but CG increment's
    # fingerprint covers cg_increment.py alone.
    programs = _programs()
    for module in ("repro.structures.locks.caslock", "repro.structures.locks.ticketed"):
        assert "CG increment" in oracle.affected(SRC, programs.values(), module)
        assert module not in programs["CG increment"].modules


def test_oracle_closure_stays_inside_structures():
    closure = oracle.import_closure(SRC, "repro.structures.cg_increment")
    assert closure >= {
        "repro.structures.cg_increment",
        "repro.structures.locks.caslock",
        "repro.structures.locks.ticketed",
    }
    assert all(name.startswith("repro.structures") for name in closure)


# -- counting failed operations ---------------------------------------------------


def _ok_row(name):
    import reference

    counts = dict(zip(reference.CATEGORIES, reference.TABLE1[name]))
    return {"program": name, "ok": True, "status": "ok", "obligations": counts, "failures": []}


def _sweep(rows, exit_code=0, degraded=False):
    return {"exit_code": exit_code, "degraded": degraded, "interrupted": False, "programs": rows}


def test_degraded_sweep_fails_every_program():
    import run

    names = ["CAS-lock", "CG increment"]
    out = run.Outcome()
    out.check_sweep(names, _sweep([_ok_row(n) for n in names], exit_code=3, degraded=True))
    assert (out.attempted, out.failed) == (2, 2)


def test_sweep_checks_each_requested_program():
    import run

    out = run.Outcome()
    out.check_sweep(["CAS-lock", "CG increment"], _sweep([_ok_row("CAS-lock")]))
    assert (out.attempted, out.failed) == (2, 1)


def test_cycle_fails_only_on_misses_beyond_the_baseline():
    import run

    module = "repro.structures.locks.verify"
    known = sorted(oracle.KNOWN_MISSES[module])
    result = {"scopes": {module: ["CAS-lock", *known, "Spanning tree"]}}

    def cycle(stale):
        return {"kind": "edit", "module": module, "function": "f", "exit_code": 0,
                "stale": stale, "programs": [_ok_row("CAS-lock")]}

    out = run.Outcome()
    got = run.check_cycles(result, {"cycles": [cycle(["CAS-lock", "Spanning tree"])]}, out)
    assert got == {"missed": len(known), "defect_cycles": 1}
    assert (out.attempted, out.failed) == (1, 0)
    run.check_cycles(result, {"cycles": [cycle(["CAS-lock"])]}, out)
    assert (out.attempted, out.failed) == (2, 1)
