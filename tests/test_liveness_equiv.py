"""The liveness observationality gate: detector on ≡ detector off.

The bounded livelock detector may only *observe* — for every
representative Main scenario of every registry program, exploring with
``liveness=True`` must produce the same verdict, the same terminal set,
and the same configuration count as the plain search.  Lassos land in
``ExplorationResult.cycles`` and nowhere else; ``repro verify
--liveness`` therefore can never change which obligations pass
(tests here drive the check_triple path through a real verifier too).
"""

from __future__ import annotations

import pytest

from repro.analysis.scenarios import (
    PAPER_SCENARIOS,
    run_scenario,
    terminal_signature,
)


def test_every_registry_program_has_a_scenario():
    """Adding a case study must force a gate scenario for it."""
    from repro.structures.registry import all_programs

    covered = {s.program for s in PAPER_SCENARIOS}
    missing = [info.name for info in all_programs() if info.name not in covered]
    assert not missing, f"registry programs without a liveness gate scenario: {missing}"


@pytest.mark.parametrize(
    "scenario", PAPER_SCENARIOS, ids=[s.key for s in PAPER_SCENARIOS]
)
def test_liveness_preserves_verdict_and_terminals(scenario):
    base = run_scenario(scenario)
    live = run_scenario(scenario, liveness=True)

    # Same verdict, same truncation, same search: the detector hooks the
    # dedupe site *before* pruning and never redirects the frontier.
    assert [str(v) for v in base.violations] == [str(v) for v in live.violations]
    assert bool(base.truncated) == bool(live.truncated)
    assert base.explored == live.explored
    assert base.deduped == live.deduped
    assert terminal_signature(base) == terminal_signature(live)

    # And the flag is what arms it.
    assert base.cycles == []


def test_verifier_verdict_unchanged_under_liveness_default():
    """The check_triple path: a full real verification run with the
    process liveness default installed is obligation-for-obligation
    identical to the plain run."""
    from repro.core.verify import set_liveness_default
    from repro.structures.locks.verify import verify_cas_lock

    base = verify_cas_lock()
    set_liveness_default(True)
    try:
        live = verify_cas_lock()
    finally:
        set_liveness_default(None)
    assert live.ok == base.ok
    assert [
        (o.name, o.category, o.ok, tuple(o.issues)) for o in live.obligations
    ] == [
        (o.name, o.category, o.ok, tuple(o.issues)) for o in base.obligations
    ]


def test_sweep_liveness_flag_is_restored():
    """run_sweep(liveness=True) must not leak the default into the
    caller's process."""
    from repro.core.verify import liveness_default
    from repro.engine import run_sweep

    assert not liveness_default()
    result = run_sweep(["CAS-lock"], jobs=1, cache=False, liveness=True)
    assert result.ok
    assert not liveness_default()
