"""The exploration bounds gate: every registry scenario is explored
completely within the bounds its verification uses.

"Verified" means the bounded check ran to completion.  For every
registry program *including the demo rows*
(:data:`repro.analysis.scenarios.EXPLORE_SCENARIOS`), the default search
(domination + compaction) must report, per scenario:

* ``truncated == 0`` — no schedule ran into ``max_steps`` unfinished;
* ``unfingerprinted == 0`` — every configuration had a position key, so
  dedupe never silently fell back to tree search;
* no kind-``resource`` violation — ``max_configs`` was never reached.

A demo row may still fail its postcondition (that is its purpose); the
gate pins only that the search itself was complete.

The same scenarios also run every reduction the explorer still offers
against the default search: exact-budget memo keys (``domination`` off),
whole-configuration memo entries (``compact`` off), the livelock
observer, and all three stacked.  Each must keep the verdict, the kinds
of violation and the terminal set (results + final shared states).
"""

from __future__ import annotations

import pytest

from repro.analysis.scenarios import (
    EXPLORE_SCENARIOS,
    run_scenario,
    terminal_signature,
)

#: Non-default explorer settings, each alone and all stacked.
COMBOS = (
    ("exact", dict(domination=False)),
    ("pinned", dict(compact=False)),
    ("live", dict(liveness=True)),
    ("all", dict(domination=False, compact=False, liveness=True)),
)

_IDS = [f"{s.key}-{name}" for s in EXPLORE_SCENARIOS for name, __ in COMBOS]
_CASES = [(s, name, kwargs) for s in EXPLORE_SCENARIOS for name, kwargs in COMBOS]


def test_every_registry_program_has_a_scenario():
    """Adding a case study or demo row must force a gate scenario for it."""
    from repro.structures.registry import all_programs, demo_programs

    covered = {s.program for s in EXPLORE_SCENARIOS}
    rows = list(all_programs()) + list(demo_programs())
    missing = [info.name for info in rows if info.name not in covered]
    assert not missing, f"registry programs without an explore gate scenario: {missing}"


@pytest.mark.parametrize(
    "scenario", EXPLORE_SCENARIOS, ids=[s.key for s in EXPLORE_SCENARIOS]
)
def test_scenario_is_complete_within_bounds(scenario):
    result = run_scenario(scenario)
    assert result.explored > 0
    assert result.truncated == 0, f"{scenario.key}: {result.summary()}"
    assert result.unfingerprinted == 0, f"{scenario.key}: {result.summary()}"
    assert not [v for v in result.violations if v.kind == "resource"], (
        f"{scenario.key} hit max_configs={scenario.max_configs}"
    )


@pytest.mark.parametrize(("scenario", "name", "kwargs"), _CASES, ids=_IDS)
def test_reduction_preserves_verdict_and_terminals(scenario, name, kwargs):
    base = run_scenario(scenario)
    combo = run_scenario(scenario, **kwargs)

    assert (not base.violations) == (not combo.violations)
    assert {v.kind for v in base.violations} == {v.kind for v in combo.violations}
    assert bool(base.truncated) == bool(combo.truncated)
    assert terminal_signature(combo) == terminal_signature(base), (
        f"{scenario.key}/{name}: terminal set differs from the default search"
    )
