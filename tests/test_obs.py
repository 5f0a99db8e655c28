"""The observability subsystem end-to-end: tracer, witnesses, replay,
minimization, engine/cache round-trips, Chrome trace export.

Covers the ISSUE 5 acceptance surface: a seeded failing spec produces a
structured counterexample witness whose minimized schedule is strictly
shorter than the original and replays deterministically to the same
violation; witnesses survive the engine's worker IPC and the persistent
obligation cache; a traced sweep emits valid Chrome-trace JSON carrying
the explorer's frontier/prune counters and the cache's hit/miss
events; and the traceback/issue-truncation satellites behave.
"""

from __future__ import annotations

import json

import pytest

from repro.core.prog import act, par
from repro.core.spec import Scenario, Spec
from repro.core.verify import (
    WITNESS_CAP,
    ReportBuilder,
    check_triple,
    triple_issues,
)
from repro.core.world import World
from repro.core.errors import SpecViolation
from repro.obs import tracer
from repro.obs.export import (
    chrome_trace,
    counter_totals,
    hotspots,
    render_profile,
    write_chrome_trace,
)
from repro.obs.minimize import ddmin, minimize_witness
from repro.obs.render import render_witness
from repro.obs.replay import replay_schedule
from repro.obs.witness import Witness, WitnessStep
from repro.structures.registry import ProgramInfo

from .helpers import CELL, BumpAction, CounterConcurroid, counter_state


# -- the seeded failing spec ---------------------------------------------------
#
# par(bump, bump) under env interference: the post claims the cell ends
# at exactly 2, but up to two environment bumps may also land, so some
# schedules end at 3 or 4 — a schedule-dependent postcondition violation,
# exactly what a witness must capture and replay.


def _failing_outcomes(env_budget: int = 2):
    conc = CounterConcurroid(cap=10)
    world = World((conc,))
    spec = Spec(
        "bad-exact-total",
        pre=lambda s: True,
        post=lambda r, s2, s1: s2.joint_of(conc.label)[CELL] == 2,
    )
    prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
    scenarios = [Scenario(counter_state(conc), prog, label="seeded")]
    return check_triple(
        world, spec, scenarios, max_steps=40, env_budget=env_budget
    )


# -- tracer --------------------------------------------------------------------


class TestTracer:
    def test_off_by_default(self):
        assert tracer.current() is None
        # free functions are no-ops, not errors, when tracing is off
        tracer.instant("x")
        tracer.counter("y", 1.0)
        with tracer.span("z"):
            pass

    def test_session_collects_records(self):
        with tracer.tracing() as tr:
            assert tracer.current() is tr
            with tracer.span("work", "cat", answer=42):
                pass
            tracer.instant("tick", hits=1)
            tracer.counter("depth", 3.0)
        assert tracer.current() is None
        phases = [r[0] for r in tr.records]
        assert phases == ["X", "i", "C"]
        span = tr.records[0]
        assert span[1] == "work" and span[2] == "cat"
        assert span[7] == {"answer": 42}
        assert span[4] >= 0.0  # duration

    def test_sessions_nest_and_restore(self):
        with tracer.tracing() as outer:
            with tracer.tracing() as inner:
                tracer.instant("inner-only")
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert [r[1] for r in outer.records] == []
        assert [r[1] for r in inner.records] == ["inner-only"]

    def test_env_mirror(self, monkeypatch):
        monkeypatch.delenv(tracer.ENV_TRACE, raising=False)
        assert not tracer.env_enabled()
        with tracer.tracing():
            assert tracer.env_enabled()
        assert not tracer.env_enabled()

    def test_local_session_needed(self, monkeypatch):
        monkeypatch.delenv(tracer.ENV_TRACE, raising=False)
        assert not tracer.local_session_needed()  # no run active
        with tracer.tracing() as tr:
            # same-process tracer: record directly, no local session
            assert not tracer.local_session_needed()
            # a fork-started worker inherits the context var but has a
            # different pid — it must open its own session
            monkeypatch.setattr(tr, "pid", tr.pid + 1)
            assert tracer.local_session_needed()
        monkeypatch.setenv(tracer.ENV_TRACE, "1")
        # spawn-started worker: env flag set, no in-context tracer
        assert tracer.local_session_needed()

    def test_ingest_filters_malformed_records(self):
        tr = tracer.Tracer()
        good = ("i", "n", "c", 0.0, 0.0, 1, 1, {})
        assert tr.ingest([good, ("short",), "junk", None, list(good)]) == 2
        assert len(tr.records) == 2
        assert all(isinstance(r, tuple) for r in tr.records)


# -- witness structure ---------------------------------------------------------


class TestWitness:
    def _witness(self):
        steps = [
            WitnessStep("act", 1, "ct.bump", ("1",), "True", "ct: [1 | 2 | 1]"),
            WitnessStep("env", -1, "ct.bump(None)", (), None, None),
        ]
        return Witness(
            scenario="seeded",
            kind="postcondition",
            message="cell ended at 3",
            steps=steps,
            meta={"max_steps": 40},
        )

    def test_dict_round_trip(self):
        w = self._witness()
        image = w.to_dict()
        json.dumps(image)  # JSON-safe by construction
        back = Witness.from_dict(json.loads(json.dumps(image)))
        assert back == w
        assert back.to_dict() == image

    def test_live_handles_never_serialized(self):
        w = self._witness()
        w.world = object()
        w.prog = object()
        assert "world" not in w.to_dict()
        assert "prog" not in w.to_dict()

    def test_replayable_requires_handles(self):
        w = self._witness()
        assert not w.replayable
        w.world, w.init, w.prog = object(), object(), object()
        assert w.replayable
        w.meta["unreplayable"] = True
        assert not w.replayable


# -- end-to-end: seeded failure -> witness -> replay -> minimize ---------------


class TestSeededCounterexample:
    def test_failing_triple_attaches_witnesses(self):
        outcomes = _failing_outcomes()
        assert triple_issues(outcomes)
        images = outcomes[0].witnesses
        assert images, "a schedule-dependent violation must yield a witness"
        assert len(images) <= WITNESS_CAP
        for image in images:
            json.dumps(image)  # plain dicts: free IPC / cache transport
            w = Witness.from_dict(image)
            assert w.kind == "postcondition"
            assert w.scenario == "seeded"
            assert any(s.kind in ("act", "env") for s in w.steps)

    def test_live_witness_replays_to_same_violation(self):
        from repro.obs import witness as obs_witness

        with obs_witness.capturing() as sink:
            _failing_outcomes()
        assert sink
        live = [w for w in sink if w.replayable]
        assert live, "captured witnesses must carry live replay handles"
        for w in live:
            outcome = replay_schedule(w)
            assert outcome.reproduced
            assert outcome.kind == w.kind

    def test_minimized_schedule_is_strictly_shorter_and_confirmed(self):
        from repro.obs import witness as obs_witness

        with obs_witness.capturing() as sink:
            _failing_outcomes()
        w = next(w for w in sink if w.replayable)
        small = minimize_witness(w, budget=300)
        assert small.minimized
        assert small.meta["replay"] == "confirmed"
        # the minimizer's oracle is replay alone; the shrunken forced
        # prefix must be strictly shorter than the captured schedule
        assert small.meta["forced_steps"] < small.meta["original_steps"]
        # and deterministic: replaying the minimized witness reproduces
        # the same violation kind again
        assert replay_schedule(small).reproduced

    def test_minimize_is_deterministic(self):
        from repro.obs import witness as obs_witness

        with obs_witness.capturing() as sink:
            _failing_outcomes()
        w = next(w for w in sink if w.replayable)
        a = minimize_witness(w, budget=300)
        b = minimize_witness(w, budget=300)
        assert a.to_dict() == b.to_dict()

    def test_render_witness_is_an_annotated_table(self):
        from repro.obs import witness as obs_witness

        with obs_witness.capturing() as sink:
            _failing_outcomes()
        text = render_witness(sink[0])
        assert "counterexample witness [postcondition]" in text
        assert "[" in text and "|" in text  # subjective [self | joint | other]

    def test_clean_outcome_has_no_witnesses(self):
        # without interference both bumps always land: the post holds on
        # every schedule, so there is nothing to witness
        outcomes = _failing_outcomes(env_budget=0)
        assert not triple_issues(outcomes)
        assert not outcomes[0].witnesses


class TestDdmin:
    def test_shrinks_to_relevant_subset(self):
        calls = []

        def test_fn(items):
            calls.append(tuple(items))
            return {3, 7} <= set(items)

        result = ddmin(list(range(10)), test_fn, budget=200)
        assert sorted(result) == [3, 7]

    def test_respects_budget(self):
        count = [0]

        def test_fn(items):
            count[0] += 1
            return True

        ddmin(list(range(32)), test_fn, budget=5)
        assert count[0] <= 5

    def test_single_failing_item(self):
        assert ddmin([1, 2, 3], lambda items: 2 in items, budget=100) == [2]


# -- engine IPC and cache round-trips ------------------------------------------
#
# Module-level verifiers: pool workers unpickle ProgramInfo rows by
# reference, so everything they close over must be importable.


def _witnessing_verifier(**kwargs):
    builder = ReportBuilder(kwargs.get("label", "witnessy"))
    builder.obligation(
        "seeded-failure", "Main", lambda: triple_issues(_failing_outcomes())
    )
    return builder.build()


def _clean_verifier(**kwargs):
    builder = ReportBuilder(kwargs.get("label", "clean"))
    builder.obligation("trivial", "Libs", lambda: [])
    return builder.build()


def _mk(name: str, verifier) -> ProgramInfo:
    return ProgramInfo(
        name=name,
        concurroids={},
        modules=(),
        verifier=verifier,
        verifier_kwargs={"label": name},
    )


WITNESSY = _mk("Witnessy", _witnessing_verifier)
CLEAN = _mk("Clean", _clean_verifier)


def _sweep_witnesses(result, name="Witnessy"):
    report = result.reports()[name]
    return [w for o in report.failures() for w in o.witnesses]


class TestEngineRoundTrips:
    def test_witnesses_survive_worker_ipc(self):
        from repro.engine import sweep

        result = sweep((WITNESSY, CLEAN), jobs=2, cache=False, prepass=False)
        assert result.exit_code() == 1
        assert not result.degraded
        images = _sweep_witnesses(result)
        assert images
        w = Witness.from_dict(images[0])
        assert w.kind == "postcondition" and w.steps

    def test_witnesses_survive_the_cache(self, tmp_path):
        from repro.engine import sweep

        cold = sweep(
            (WITNESSY,), jobs=1, cache=True, cache_dir=tmp_path, prepass=False
        )
        warm = sweep(
            (WITNESSY,), jobs=1, cache=True, cache_dir=tmp_path, prepass=False
        )
        assert cold.hits == 0 and warm.hits == 1
        assert _sweep_witnesses(warm) == _sweep_witnesses(cold)
        assert _sweep_witnesses(warm)

    def test_traced_parallel_sweep_ships_worker_records(self):
        from repro.engine import sweep

        with tracer.tracing() as tr:
            result = sweep(
                (WITNESSY, CLEAN), jobs=2, cache=False, prepass=False
            )
        assert result.exit_code() == 1
        names = {r[1] for r in tr.records}
        # parent-side events (cache=False: no cache events, by design)
        assert "sweep" in names
        # worker-side events shipped home through the result payload
        assert any(n.startswith("verify:") for n in names)
        assert "explore" in names
        explore_args = next(
            r[7] for r in tr.records if r[1] == "explore"
        )
        for key in (
            "explored",
            "deduped",
            "frontier_peak",
            "env_budget",
            "violations",
        ):
            assert key in explore_args
        if not result.degraded:
            # at least one record originated in another process
            import os

            assert any(r[5] != os.getpid() for r in tr.records)

    def test_cache_misses_and_hits_are_traced(self, tmp_path):
        from repro.engine import sweep

        with tracer.tracing() as cold_tr:
            sweep((CLEAN,), jobs=1, cache=True, cache_dir=tmp_path, prepass=False)
        cold_names = {r[1] for r in cold_tr.records}
        assert "cache:miss" in cold_names and "cache:store" in cold_names
        with tracer.tracing() as warm_tr:
            warm = sweep(
                (CLEAN,), jobs=1, cache=True, cache_dir=tmp_path, prepass=False
            )
        assert warm.hits == 1
        assert "cache:hit" in {r[1] for r in warm_tr.records}


# -- export --------------------------------------------------------------------


class TestExport:
    def _records(self):
        with tracer.tracing() as tr:
            with tracer.span("outer", "cat", n=1):
                tracer.instant("hit", count=2)
            tracer.counter("depth", 5.0)
        return tr.records

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._records())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        by_phase = {e["ph"]: e for e in events}
        assert by_phase["X"]["name"] == "outer"
        assert "dur" in by_phase["X"]
        assert by_phase["i"]["s"] == "t"
        assert by_phase["M"]["name"] == "process_name"
        json.dumps(doc)

    def test_write_chrome_trace(self, tmp_path):
        path = write_chrome_trace(self._records(), tmp_path / "out.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_hotspots_and_counters(self):
        records = self._records()
        rows = hotspots(records)
        assert rows[0]["name"] == "outer" and rows[0]["calls"] == 1
        totals = counter_totals(records)
        assert totals["hit.count"] == 2
        assert totals["depth.depth"] == 5.0

    def test_render_profile(self):
        text = render_profile(self._records())
        assert "hotspots" in text and "outer" in text
        assert "counters" in text
        assert "(no spans recorded)" in render_profile([])


# -- satellites: traceback capture and issue truncation ------------------------


class TestFailureReporting:
    def test_obligation_exception_records_traceback(self):
        def boom():
            raise ValueError("synthetic obligation bug")

        builder = ReportBuilder("tb")
        result = builder.obligation("explodes", "Main", boom)
        assert not result.ok
        assert "synthetic obligation bug" in result.issues[0]
        assert result.traceback is not None
        assert "ValueError" in result.traceback
        assert "boom" in result.traceback  # the raising frame survives
        # and it round-trips through the IPC/cache dict form
        back = type(result).from_dict(result.to_dict())
        assert back.traceback == result.traceback

    def test_raise_on_failure_marks_truncated_issues(self):
        builder = ReportBuilder("many")
        builder.obligation(
            "five-issues", "Main", lambda: [f"issue {i}" for i in range(5)]
        )
        with pytest.raises(SpecViolation) as exc:
            builder.build().raise_on_failure()
        assert "(+2 more)" in str(exc.value)

    def test_raise_on_failure_no_marker_at_three(self):
        builder = ReportBuilder("three")
        builder.obligation(
            "three-issues", "Main", lambda: [f"issue {i}" for i in range(3)]
        )
        with pytest.raises(SpecViolation) as exc:
            builder.build().raise_on_failure()
        assert "more)" not in str(exc.value)
