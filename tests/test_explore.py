"""Tests of schedule exploration: exhaustiveness, interference, stutters."""

import random
import sys

import pytest

from repro.core.prog import act, bind, par, ret, ffix
from repro.core.spec import Scenario, Spec
from repro.core.verify import check_triple, triple_issues
from repro.core.world import World
from repro.semantics.explore import explore, run_random
from repro.semantics.interp import initial_config

from .helpers import BumpAction, CELL, CounterConcurroid, ReadCounterAction, counter_state


@pytest.fixture()
def conc():
    return CounterConcurroid(cap=10)


@pytest.fixture()
def world(conc):
    return World((conc,))


class TestExhaustive:
    def test_all_interleavings_reach_same_total(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert result.ok
        assert result.terminals
        for terminal in result.terminals:
            assert terminal.joints[conc.label][CELL] == 2

    def test_interleavings_produce_different_reads(self, world, conc):
        prog = par(act(BumpAction(conc)), act(ReadCounterAction(conc)))
        result = explore(initial_config(world, counter_state(conc), prog))
        reads = {terminal.result[1] for terminal in result.terminals}
        assert reads == {0, 1}  # read before and after the sibling bump

    def test_env_interference_explored(self, world, conc):
        prog = act(ReadCounterAction(conc))
        result = explore(
            initial_config(world, counter_state(conc), prog), env_budget=2
        )
        reads = {t.result for t in result.terminals}
        assert reads == {0, 1, 2}  # env may bump 0, 1 or 2 times first

    def test_env_budget_zero_means_no_interference(self, world, conc):
        prog = act(ReadCounterAction(conc))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert {t.result for t in result.terminals} == {0}

    def test_max_configs_guard(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(
            initial_config(world, counter_state(conc), prog), max_configs=2
        )
        assert any(v.kind == "resource" for v in result.violations)

    def test_truncation_counts_unfinished_paths(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(
            initial_config(world, counter_state(conc), prog), max_steps=1
        )
        assert result.truncated > 0
        assert not result.terminals

    def test_spin_loops_converge(self, conc):
        # A thread spinning on an always-failing CAS-like action must not
        # blow up the exploration: the retry reproduces its own position
        # key and the memoization closes the loop.
        class FailingTry(ReadCounterAction):
            def step(self, state, *args):
                return False, state

        failing = FailingTry(conc)
        spin = ffix(
            lambda loop: lambda: bind(act(failing), lambda got: ret(1) if got else loop())
        )
        world = World((conc,))
        result = explore(
            initial_config(world, counter_state(conc), spin()), max_steps=50
        )
        assert result.explored < 5  # the loop has one repeating position
        assert not result.terminals  # it genuinely never finishes
        assert not result.violations

    def test_max_configs_counts_exactly(self, world, conc):
        # Regression (off-by-one): the guard used to fire only *after*
        # expanding a (max_configs+1)-th configuration.
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        full = explore(initial_config(world, counter_state(conc), prog))
        total = full.explored
        assert total > 2

        # A budget exactly covering the search space is not a violation...
        exact = explore(
            initial_config(world, counter_state(conc), prog), max_configs=total
        )
        assert exact.ok
        assert exact.explored == total

        # ...one short of it is, and never explores past the bound.
        short = explore(
            initial_config(world, counter_state(conc), prog),
            max_configs=total - 1,
        )
        assert any(v.kind == "resource" for v in short.violations)
        assert short.explored == total - 1

    def test_domination_dedupe_equivalent_and_never_worse(self, world, conc):
        # On the toy counter every env move changes the shared cell, so a
        # position is never revisited at a different env_used and both
        # dedupe modes explore the same graph — domination must agree
        # exactly here (the strict shrink is exercised on the CAS-lock
        # case study below, whose env can return to a prior position).
        prog = par(act(BumpAction(conc)), act(ReadCounterAction(conc)))

        def run(domination):
            return explore(
                initial_config(world, counter_state(conc), prog),
                env_budget=2,
                domination=domination,
            )

        exact, dominated = run(False), run(True)
        assert dominated.explored <= exact.explored
        assert exact.ok and dominated.ok
        assert {t.result for t in dominated.terminals} == {
            t.result for t in exact.terminals
        }

    def test_repeated_identical_actions_terminate(self, conc):
        # Regression (found by hypothesis): two *occurrences* of the same
        # pure action in sequence must still reach the terminal — an
        # earlier stutter-blocking heuristic wrongly suppressed this.
        read = ReadCounterAction(conc)
        prog = bind(act(read), lambda a: bind(act(read), lambda b: ret((a, b))))
        world = World((conc,))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert result.ok
        assert [t.result for t in result.terminals] == [(0, 0)]


class TestFrontierPeak:
    def test_frontier_peak_tracked_on_small_explorations(self, world, conc):
        # Regression: the peak was sampled every 256 expansions, so every
        # small exploration reported 0.  It is now tracked on each push.
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        result = explore(initial_config(world, counter_state(conc), prog))
        assert result.frontier_peak >= 2  # both threads runnable at the root

    def test_single_thread_still_nonzero(self, world, conc):
        result = explore(
            initial_config(world, counter_state(conc), act(BumpAction(conc)))
        )
        assert result.frontier_peak > 0


class TestCompaction:
    def _prog(self, conc):
        return par(act(BumpAction(conc)), act(ReadCounterAction(conc)))

    def _run(self, world, conc, **kwargs):
        """Explore and return the explorer's own memo: the ``seen`` dict
        and ``anchors`` list, taken from explore()'s frame when the first
        terminal is reported (both are mutated in place, so the objects
        hold the complete memo once explore() returns)."""
        memo: dict = {}

        def grab(terminal):
            frame = sys._getframe(1)
            memo.setdefault("seen", frame.f_locals["seen"])
            memo.setdefault("anchors", frame.f_locals["anchors"])
            return None

        result = explore(
            initial_config(world, counter_state(conc), self._prog(conc)),
            on_terminal=grab,
            **kwargs,
        )
        return result, memo["seen"], memo["anchors"]

    def test_compact_memo_stores_no_configs(self, world, conc):
        # Regression: the memo used to pin every visited Config (and its
        # trace).  Compact visits keep only (env_used, steps, None) and
        # anchor the thread records so fingerprint ids stay valid.
        result, seen, anchors = self._run(world, conc)
        assert result.ok
        assert seen and anchors
        assert all(cfg is None for visits in seen.values() for __, __, cfg in visits)

    def test_liveness_keeps_configs_for_lassos(self, world, conc):
        # The lasso detector compares trace prefixes at revisits, so
        # liveness mode must still store the visited configurations.
        __, seen, __ = self._run(world, conc, liveness=True)
        stored = [cfg for visits in seen.values() for __, __, cfg in visits]
        assert stored and all(cfg is not None for cfg in stored)

    def test_compact_off_restores_pinning(self, world, conc):
        __, seen, __ = self._run(world, conc, compact=False)
        stored = [cfg for visits in seen.values() for __, __, cfg in visits]
        assert stored and all(cfg is not None for cfg in stored)

    def test_compact_equivalent_to_uncompacted(self, world, conc):
        compacted, __, __ = self._run(world, conc)
        pinned, __, __ = self._run(world, conc, compact=False)
        assert compacted.explored == pinned.explored
        assert {repr(t.result) for t in compacted.terminals} == {
            repr(t.result) for t in pinned.terminals
        }

    def test_interning_shares_key_sections(self):
        from repro.semantics.explore import _intern

        table: dict = {}
        one = _intern((("a", (1, 2)), ("b", (3,))), table)
        two = _intern((("a", (1, 2)), ("c", (4,))), table)
        assert one[0] is two[0]  # the shared section is one object


class TestDominationOnCaseStudy:
    """The dedupe fix must pay off on real registry machinery."""

    def test_cas_lock_explores_fewer_configs_same_verdict(self):
        from repro.structures.locks.verify import (
            bump_client,
            lock_initial_state,
            lock_world,
            make_counter_cas_lock,
        )

        lock = make_counter_cas_lock()
        world = lock_world(lock)
        spec = Spec(
            "par-bump",
            pre=lambda s: lock.quiescent(s),
            post=lambda r, s2, s1: (
                lock.quiescent(s2)
                and lock.client_self(s2) == lock.client_self(s1) + 2
            ),
        )
        scenarios = [
            Scenario(
                lock_initial_state(lock, 0, 0),
                par(bump_client(lock), bump_client(lock)),
                label="par-bump",
            )
        ]

        def run(domination):
            return check_triple(
                world,
                spec,
                scenarios,
                max_steps=60,
                env_budget=2,
                domination=domination,
            )

        exact, dominated = run(False), run(True)
        assert sum(o.explored for o in dominated) < sum(o.explored for o in exact)
        assert not triple_issues(exact)
        assert not triple_issues(dominated)


class TestCheckTriple:
    def _spec(self, conc, expect_total):
        return Spec(
            "totals",
            pre=lambda s: True,
            post=lambda r, s2, s1: s2.joint_of(conc.label)[CELL] == expect_total,
        )

    def test_passing_triple(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        outcomes = check_triple(
            world,
            self._spec(conc, 2),
            [Scenario(counter_state(conc), prog)],
        )
        assert not triple_issues(outcomes)
        assert outcomes[0].terminals > 0

    def test_failing_postcondition_reported(self, world, conc):
        prog = act(BumpAction(conc))
        outcomes = check_triple(
            world,
            self._spec(conc, 5),
            [Scenario(counter_state(conc), prog)],
        )
        issues = triple_issues(outcomes)
        assert issues
        assert "postcondition" in issues[0]

    def test_failing_precondition_reported(self, world, conc):
        spec = Spec("never", pre=lambda s: False, post=lambda r, s2, s1: True)
        outcomes = check_triple(world, spec, [Scenario(counter_state(conc), ret(None))])
        assert "precondition" in triple_issues(outcomes)[0]

    def test_crash_reported(self, conc):
        tiny = CounterConcurroid(cap=0)
        world = World((tiny,))
        spec = Spec("any", pre=lambda s: True, post=lambda r, s2, s1: True)
        outcomes = check_triple(
            world, spec, [Scenario(counter_state(tiny), act(BumpAction(tiny)))]
        )
        assert any("CrashError" in i for i in triple_issues(outcomes))


class TestRandom:
    def test_random_run_terminates(self, world, conc):
        prog = par(act(BumpAction(conc)), act(BumpAction(conc)))
        final, violations = run_random(
            initial_config(world, counter_state(conc), prog), random.Random(3)
        )
        assert not violations
        assert final is not None
        assert final.joints[conc.label][CELL] == 2

    def test_random_with_interference(self, world, conc):
        prog = act(ReadCounterAction(conc))
        seen = set()
        rng = random.Random(0)
        for __ in range(30):
            final, violations = run_random(
                initial_config(world, counter_state(conc), prog),
                rng,
                env_prob=0.5,
                env_budget=2,
            )
            assert not violations
            seen.add(final.result)
        assert 0 in seen and len(seen) > 1
