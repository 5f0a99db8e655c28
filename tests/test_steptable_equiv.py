"""The registry-wide equality gate for the memoized protocol step table.

Every obligation of every registered program (the paper's eleven plus
the demo rows) must produce exactly the verdict and issue list recorded
in ``tests/golden/obligations.json``, with the static pre-pass on and
off.  The golden file was generated by the checkers *before* they
shared a :class:`~repro.core.steptable.StepTable`, so this gate pins
both shortcuts — the memo and the pre-pass — to the plain checker.

Regenerate (only when a verdict is meant to change)::

    PYTHONPATH=src python tests/test_steptable_equiv.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "obligations.json"


def sweep(prepass: bool) -> dict[str, list[list]]:
    """``program -> [[name, category, ok, issues], ...]`` for every
    registry row, verified in-process through ``run_verifier``."""
    from repro.analysis.prepass import static_prepass
    from repro.structures.registry import registry_programs

    out: dict[str, list[list]] = {}
    for info in registry_programs():
        if prepass:
            with static_prepass():
                report = info.run_verifier()
        else:
            report = info.run_verifier()
        out[info.name] = [
            [o.name, o.category, o.ok, list(o.issues)] for o in report.obligations
        ]
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, list[list]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_registry(golden):
    from repro.structures.registry import registry_programs

    assert sorted(golden) == sorted(info.name for info in registry_programs())
    assert len(golden) == 13


@pytest.mark.slow
@pytest.mark.parametrize("prepass", [True, False], ids=["prepass", "plain"])
def test_every_obligation_matches_golden(golden, prepass):
    swept = sweep(prepass)
    assert sorted(swept) == sorted(golden)
    for program, obligations in golden.items():
        assert swept[program] == obligations, program


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    plain = sweep(prepass=False)
    assert sweep(prepass=True) == plain, "pre-pass changed a verdict"
    GOLDEN.write_text(json.dumps(plain, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: {sum(len(v) for v in plain.values())} obligations")
