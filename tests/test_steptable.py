"""The memoized protocol step table: memo, interning, scope and lifetime."""

from __future__ import annotations

import gc
import weakref

from repro.core.stability import check_stability
from repro.core.state import State
from repro.core.steptable import StepTable, scope_counts, step_tables, table_for
from repro.core.verify import ReportBuilder, VerificationReport, collecting_obligations
from repro.engine.depgraph import build_depgraph
from repro.obs import tracer
from repro.obs.export import memo_rates, render_profile
from repro.structures.registry import ProgramInfo, registry_programs

from .helpers import CounterConcurroid, counter_state


class CountingCounter(CounterConcurroid):
    """The toy counter, counting how often each protocol function runs."""

    def __init__(self) -> None:
        super().__init__()
        self.coherent_calls = 0
        self.transitions_calls = 0
        self.env_calls = 0

    def coherent(self, state: State) -> bool:
        self.coherent_calls += 1
        return super().coherent(state)

    def transitions(self):
        self.transitions_calls += 1
        return super().transitions()

    def env_moves(self, state: State):
        self.env_calls += 1
        return super().env_moves(state)


class TestMemo:
    def test_each_question_is_answered_once_per_state(self):
        conc = CountingCounter()
        table = StepTable(conc)
        s = counter_state(conc, 1, 1)
        calls = []
        for __ in range(3):
            assert table.coherent(s)
            assert [name for name, __, ___ in table.steps(s)] == ["ct.bump"]
            assert len(table.env(s)) == 1
            calls.append((conc.coherent_calls, conc.transitions_calls, conc.env_calls))
        # env_moves itself builds env_transitions(), hence two transitions()
        assert calls == [(1, 2, 1)] * 3

    def test_answers_match_the_concurroid(self):
        conc = CounterConcurroid()
        table = StepTable(conc)
        s = counter_state(conc, 0, 2)
        (t,) = conc.transitions()
        assert [(p, s2) for __, p, s2 in table.steps(s)] == list(t.successors(s))
        assert list(table.env(s)) == list(conc.env_moves(s))
        bad = s.update(conc.label, lambda c: c.with_self(4))
        assert table.coherent(bad) is conc.coherent(bad) is False

    def test_successors_are_interned(self):
        conc = CounterConcurroid()
        table = StepTable(conc)
        a, b = counter_state(conc, 0, 1), counter_state(conc, 1, 0)
        # bump from (0, 1) and env-bump from (1, 0) both reach (1, 1)
        (__, __, via_self), = table.steps(a)
        (via_env,) = table.env(b)
        assert via_self == via_env == counter_state(conc, 1, 1)
        assert via_self is via_env

    def test_deps_opaque(self):
        assert StepTable.__deps_opaque__ is True


class TestScope:
    def test_one_table_per_concurroid_inside_a_scope(self):
        conc, other = CounterConcurroid(), CounterConcurroid()
        with step_tables():
            assert table_for(conc) is table_for(conc)
            assert table_for(other) is not table_for(conc)
        assert table_for(conc) is not table_for(conc)  # private outside

    def test_checkers_share_the_scope_table(self):
        conc = CountingCounter()
        states = [counter_state(conc, 0, 0)]
        with step_tables():
            check_stability(lambda s: True, "true", conc, states)
            env_calls = conc.env_calls
            check_stability(lambda s: True, "true", conc, states)
        assert env_calls > 0
        assert conc.env_calls == env_calls

    def test_table_does_not_outlive_run_verifier(self):
        refs: list[weakref.ref] = []

        def verifier() -> VerificationReport:
            conc = CounterConcurroid()
            refs.append(weakref.ref(conc))
            builder = ReportBuilder("toy")
            builder.obligation(
                "stable",
                "Stab",
                lambda: check_stability(
                    lambda s: True, "true", conc, [counter_state(conc, 0, 0)]
                ),
            )
            assert table_for(conc) is table_for(conc)  # scoped, not private
            return builder.build()

        info = ProgramInfo(name="toy", concurroids={}, modules=(), verifier=verifier)
        assert info.run_verifier().ok
        gc.collect()
        assert refs and refs[0]() is None


class TestObservability:
    def test_untraced_tables_do_not_count(self):
        conc = CounterConcurroid()
        with step_tables():
            table_for(conc).coherent(counter_state(conc))
            assert table_for(conc).counts() is None
            assert scope_counts() is None

    def test_obligation_spans_carry_memo_hits_and_misses(self):
        conc = CounterConcurroid()
        states = [counter_state(conc, 0, 0)]

        def stable():
            return check_stability(lambda s: True, "true", conc, states)

        with tracer.tracing(mirror_env=False) as tr, step_tables():
            builder = ReportBuilder("toy")
            builder.obligation("first", "Stab", stable)
            builder.obligation("second", "Stab", stable)
        spans = {r[1]: r[7] for r in tr.records if r[2] == "obligation"}
        assert spans["first"]["env_misses"] > 0
        assert spans["first"]["env_hits"] == 0
        # the second obligation replays the first one's steps
        assert spans["second"]["env_misses"] == 0
        assert spans["second"]["env_hits"] == spans["first"]["env_misses"]
        rows = {row["name"]: row for row in memo_rates(tr.records)}
        assert rows["second"]["env_hits"] == rows["second"]["env_lookups"] > 0
        text = render_profile(tr.records)
        assert "step-table memo hit rate per obligation" in text


def test_fingerprints_independent_of_sibling_runs():
    """A program's per-obligation dependency fingerprints do not depend
    on which sibling program this process verified first."""
    progs = {i.name: i for i in registry_programs()}
    info, sibling = progs["Ticketed lock"], progs["CAS-lock"]

    def fingerprints(run_sibling: bool):
        if run_sibling:
            sibling.run_verifier()
        with collecting_obligations(execute=True) as col:
            info.run_verifier()
        graph = build_depgraph(info, plan=list(col))
        assert graph is not None
        return graph.fingerprints

    assert fingerprints(False) == fingerprints(True)
