"""Reference verdicts, copied by hand from EXPERIMENTS.md Table 1.

Never derived from a run: a verdict or an obligation count that drifts
from this table is a wrong output, counted in ``failed``.
"""

from __future__ import annotations

from typing import Any

CATEGORIES = ("Libs", "Conc", "Acts", "Stab", "Main")

#: Table 1 row -> (Libs, Conc, Acts, Stab, Main); every row verifies.
TABLE1 = {
    "CAS-lock": (1, 1, 3, 6, 2),
    "Ticketed lock": (1, 1, 4, 6, 2),
    "CG increment": (1, 0, 0, 0, 2),
    "CG allocator": (1, 1, 2, 1, 3),
    "Pair snapshot": (1, 1, 4, 5, 3),
    "Treiber stack": (2, 1, 5, 3, 4),
    "Spanning tree": (2, 1, 3, 3, 3),
    "Flat combiner": (2, 1, 8, 3, 5),
    "Seq. stack": (1, 0, 0, 0, 1),
    "FC-stack": (1, 0, 0, 0, 3),
    "Prod/Cons": (1, 0, 0, 0, 1),
}

#: The negative control: a spinlock that falsely claims FIFO fairness.
#: It must fail with exactly this (category, obligation) and nothing else.
CONTROL = "Unfair lock demo"
CONTROL_FAILURES = {("Main", "fifo-fairness")}


def check_outcome(row: dict[str, Any]) -> str | None:
    """Compare one program outcome (``ProgramOutcome.to_dict()``) with
    the reference; ``None`` when it matches, else why it does not."""
    name = row.get("program")
    status = row.get("status")
    if status not in ("ok", "failed"):
        return f"{name}: infra status {status!r}"
    failures = {(f.get("category"), f.get("name")) for f in row.get("failures") or []}
    if name == CONTROL:
        if row.get("ok") or failures != CONTROL_FAILURES:
            return f"{name}: expected to fail with exactly {sorted(CONTROL_FAILURES)}, got {sorted(failures)}"
        return None
    if name not in TABLE1:
        return f"{name}: no reference verdict"
    if not row.get("ok"):
        return f"{name}: expected ok, failed {sorted(failures)}"
    counts = row.get("obligations") or {}
    got = tuple(int(counts.get(cat, 0)) for cat in CATEGORIES)
    if got != TABLE1[name]:
        return f"{name}: obligation counts {got} differ from Table 1 {TABLE1[name]}"
    return None
