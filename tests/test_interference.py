"""Footprints (repro.analysis.interference).

Every registry action's observed footprint is swept for structural
soundness invariants, and a stable subset is pinned exactly (which cells
each action reads/writes, attributed to which concurroid label).  A
footprint regression here means the race and lock-order rules are
reasoning from wrong effect summaries.
"""

from __future__ import annotations

import pytest

from repro.analysis.interference import action_footprint
from repro.analysis.targets import TARGET_BUILDERS, target_for
from repro.heap import ptr

#: Cap per-action family size: soundness invariants don't need the whole
#: model, and some registry families are large.
STATES_CAP = 200


def _registry_footprints():
    """(program, action-name, args, footprint) for every registry action."""
    out = []
    for name in sorted(TARGET_BUILDERS):
        target = target_for(name)
        states = target.states[:STATES_CAP]
        for action, args_family in target.actions:
            for args in args_family:
                fp, __ = action_footprint(action, tuple(args), states)
                out.append((name, fp.action, tuple(args), fp))
    return out


FOOTPRINTS = _registry_footprints()


@pytest.mark.parametrize(
    "program, action, args, fp",
    FOOTPRINTS,
    ids=[f"{p}/{a}{args!r}" for p, a, args, __ in FOOTPRINTS],
)
def test_registry_footprint_invariants(program, action, args, fp):
    # The guard can only read; whatever it reads the action reads.
    assert fp.guard_reads <= fp.reads
    # Attribution: every cell is (label, ptr) with a string label.
    for cell in fp.touched | fp.guard_reads:
        label, __ = cell
        assert isinstance(label, str)
    # A pure action (state observably unchanged on every run) wrote nothing.
    if fp.pure:
        assert not fp.writes
        assert not fp.self_touch
    # No observed run at all (the guard never passed) means an empty,
    # trivially-pure footprint — never fabricated effects.
    if fp.runs == 0:
        assert fp.pure and not fp.touched


def _golden(program: str, action: str, args: tuple):
    for p, a, ar, fp in FOOTPRINTS:
        if (p, a, ar) == (program, action, args):
            return fp
    raise AssertionError(f"no footprint for {program}/{action}{args!r}")


#: Exact expected read/write cells for a stable cross-section of the
#: registry: reader actions, writers, and the locks' RMW entry points.
GOLDEN = {
    # CAS-lock: try_acquire RMWs the lock bit p2; read/write touch p1 only.
    ("CAS-lock", "lk.try_acquire", ()): (
        {("lk", ptr(2))},
        {("lk", ptr(2))},
    ),
    ("CAS-lock", "lk.read", (ptr(1),)): ({("lk", ptr(1))}, set()),
    ("CAS-lock", "lk.write", (ptr(1), 0)): (set(), {("lk", ptr(1))}),
    # Ticketed lock: draw reads next+owner, bumps next.
    ("Ticketed lock", "lk.draw", ()): (
        {("lk", ptr(3)), ("lk", ptr(4))},
        {("lk", ptr(3))},
    ),
    ("Ticketed lock", "lk.read_owner", ()): ({("lk", ptr(4))}, set()),
    # Pair snapshot: readers touch one versioned cell each; a writer
    # reads both (version handshake) and writes its own.
    ("Pair snapshot", "rp.read_x", ()): ({("rp", ptr(1))}, set()),
    ("Pair snapshot", "rp.read_y", ()): ({("rp", ptr(2))}, set()),
    ("Pair snapshot", "rp.write_x", (1,)): (
        {("rp", ptr(1)), ("rp", ptr(2))},
        {("rp", ptr(1))},
    ),
    # Treiber: top reads are pure on p50.
    ("Treiber stack", "tb.read_top", ()): ({("tb", ptr(50))}, set()),
    # Spanning tree: trymark RMWs the node it marks.
    ("Spanning tree", "sp.trymark", (ptr(1),)): (
        {("sp", ptr(1))},
        {("sp", ptr(1))},
    ),
    # Flat combiner: both lock acquisitions are single-cell RMWs.
    ("Flat combiner", "fc.try_acquire_slot", (ptr(72),)): (
        {("fc", ptr(72))},
        {("fc", ptr(72))},
    ),
    ("Flat combiner", "fc.try_combine_lock", ()): (
        {("fc", ptr(70))},
        {("fc", ptr(70))},
    ),
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN, key=repr), ids=[f"{p}/{a}" for p, a, __ in sorted(GOLDEN, key=repr)]
)
def test_golden_footprints(key):
    program, action, args = key
    reads, writes = GOLDEN[key]
    fp = _golden(program, action, args)
    assert fp.runs > 0, "golden action never ran — family or guard changed"
    assert fp.reads == frozenset(reads)
    assert fp.writes == frozenset(writes)
