"""fcsl-race: race-shaped defect rules (FCSL045-048) over lint targets.

The rules consume static interference facts — observed
footprints (:func:`repro.analysis.interference.action_footprint`),
concolically collected program instances with their sequential order,
and environment moves of the declared concurroids — and flag patterns
that are races *in the protocol*, before any schedule is enumerated:

* FCSL045 — **non-atomic read-modify-write**: a program reads a cell and
  later writes it in a *different* atomic action, the writer's guard
  does not re-read the cell (no CAS-style recheck), and the protocol
  lets the environment change the cell at some state where the writer
  is enabled.  Lock-protected RMWs are exempt automatically: while the
  writer is enabled (lock held) no environment move can touch the cell.
* FCSL046 — **stale read without recheck**: a read of an
  environment-mutable cell is followed by writes, and no downstream
  action's guard ever re-reads the cell.  Reported as a warning (the
  continuation may re-validate the value in ways a guard probe cannot
  see); suppressed whenever the program walk was incomplete or any
  instance has statically unresolvable arguments.
* FCSL047 — **unstable other-sensitive assertion**: a declared
  :class:`~repro.core.autostab.AutoAssertion` holds at some modelled
  state but an environment move falsifies it — the assertion is not
  closed under the declared transitions, so it cannot be ascribed.
* FCSL048 — **foreign footprint**: an action's observed heap footprint
  contains cells attributed to labels outside its own concurroid.

Every rule errs toward silence on anything unprobeable: the acceptance
bar is zero false positives on the clean registry.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.concurroid import Concurroid
from ..core.state import State
from .diagnostics import Diagnostic, diag, loc_of
from .interference import (
    UNATTRIBUTED,
    _concolic_collect,
    _safe,
    collect_program,
)
from .targets import LintTarget, TARGET_BUILDERS, target_for

#: Cap on states sampled per target by the race rules (diagnostics only
#: lose recall from sampling, never precision).
RACE_STATE_CAP = 300

#: Cap on environment moves probed per (state, concurroid).
RACE_ENV_CAP = 64


def _cell_values(state: State, label: str, p) -> tuple:
    """Every value held at ``p`` inside ``label``'s heap components (the
    projections can legitimately disagree only transiently, so the tuple
    is the honest observation)."""
    from ..heap import Heap

    if label not in state:
        return ()
    comp = state[label]
    out = []
    for part in (comp.self_, comp.joint, comp.other):
        if isinstance(part, Heap) and part.is_valid and p in part:
            out.append(part[p])
    return tuple(out)


def _env_changes_cell(concs: Sequence[Concurroid], s: State, cell) -> bool:
    """Can one environment step change the observable value at ``cell``?"""
    label, p = cell
    before = _cell_values(s, label, p)
    for conc in concs:
        try:
            for i, s2 in enumerate(conc.env_moves(s)):
                if i >= RACE_ENV_CAP:
                    break
                if _cell_values(s2, label, p) != before:
                    return True
        except Exception:  # noqa: BLE001 - unprobeable env: assume silent
            continue
    return False


def _target_concurroids(target: LintTarget, collected_actions: Iterable) -> list:
    concs: dict[int, Concurroid] = {id(c): c for c in target.concurroids}
    for action in collected_actions:
        conc = getattr(action, "concurroid", None)
        if conc is not None:
            concs.setdefault(id(conc), conc)
    return list(concs.values())


# -- FCSL045 / FCSL046: program-order rules ----------------------------------------------


def _program_rules(target: LintTarget, states: Sequence[State]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for prog, name, __ in target.programs:
        collected, footprints = _concolic_collect(
            lambda pool, prog=prog: collect_program(prog, probe_pool=pool),
            states,
        )
        concs = _target_concurroids(
            target, (n.action for n in collected.instances.values())
        )
        if not concs:
            continue
        fired: set = set()
        for a, b in sorted(collected.seq_pairs, key=repr):
            fa, fb = footprints.get(a), footprints.get(b)
            if fa is None or fb is None:
                continue
            na, nb = collected.instances[a], collected.instances[b]
            for cell in sorted(fa.reads & fb.writes, key=repr):
                if cell[0] == UNATTRIBUTED or cell in fb.guard_reads:
                    continue  # unattributable, or CAS-style recheck
                mark = (name, na.action.name, nb.action.name, cell)
                if mark in fired:
                    continue
                if any(
                    _safe(nb.action, s, nb.args) and _env_changes_cell(concs, s, cell)
                    for s in states
                ):
                    fired.add(mark)
                    out.append(
                        diag(
                            "FCSL045",
                            f"{name}: {na.action.name!r} reads {cell[1]!r} and "
                            f"{nb.action.name!r} later writes it without its guard "
                            "re-reading the cell, while the environment can change "
                            "it in between (non-atomic read-modify-write)",
                            subject=target.program,
                            obj=nb.action.name,
                            loc=loc_of(type(nb.action).step),
                        )
                    )
        if not collected.complete or collected.unresolved:
            continue  # FCSL046 needs the full downstream picture
        for a in sorted(collected.instances, key=repr):
            fa = footprints.get(a)
            if fa is None:
                continue
            na = collected.instances[a]
            downstream = [
                b for (x, b) in collected.seq_pairs if x == a and footprints.get(b)
            ]
            writers = [b for b in downstream if footprints[b].writes]
            if not writers:
                continue
            for cell in sorted(fa.reads - fa.writes, key=repr):
                if cell[0] == UNATTRIBUTED:
                    continue
                if any(cell in footprints[b].guard_reads for b in downstream):
                    continue  # some downstream guard rechecks the cell
                mark = (name, na.action.name, cell)
                if mark in fired:
                    continue
                if any(
                    _safe(collected.instances[b].action, s, collected.instances[b].args)
                    and _env_changes_cell(concs, s, cell)
                    for b in writers
                    for s in states
                ):
                    fired.add(mark)
                    out.append(
                        diag(
                            "FCSL046",
                            f"{name}: the value {na.action.name!r} reads from "
                            f"{cell[1]!r} can go stale (the environment may change "
                            "the cell before the later writes run) and no "
                            "downstream guard re-reads it",
                            subject=target.program,
                            obj=na.action.name,
                            loc=loc_of(type(na.action).step),
                        )
                    )
    return out


# -- FCSL047: assertion stability under declared transitions ------------------------------


def _assertion_rules(target: LintTarget, states: Sequence[State]) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    concs = list(target.concurroids)
    if not concs:
        return out
    for assertion in target.assertions:
        witness = None
        for s in states:
            try:
                if not assertion.predicate(s):
                    continue
            except Exception:  # noqa: BLE001 - unprobeable assertion
                break
            for conc in concs:
                try:
                    for i, s2 in enumerate(conc.env_moves(s)):
                        if i >= RACE_ENV_CAP:
                            break
                        if not assertion.predicate(s2):
                            witness = (s, s2)
                            break
                except Exception:  # noqa: BLE001
                    continue
                if witness:
                    break
            if witness:
                break
        if witness:
            out.append(
                diag(
                    "FCSL047",
                    f"assertion {assertion.name!r} holds at a modelled state but "
                    "an environment move falsifies it — not closed under the "
                    "declared transitions, so it cannot be ascribed",
                    subject=target.program,
                    obj=assertion.name,
                    loc=loc_of(assertion.predicate),
                )
            )
    return out


# -- FCSL048: footprint containment -------------------------------------------------------


def _footprint_rules(target: LintTarget, states: Sequence[State]) -> list[Diagnostic]:
    from .interference import action_footprint

    out: list[Diagnostic] = []
    for action, args_family in target.actions:
        own = frozenset(action.concurroid.labels)
        foreign: set = set()
        for args in args_family:
            fp, __ = action_footprint(action, tuple(args), states)
            foreign |= {
                cell
                for cell in fp.touched | fp.guard_reads
                if cell[0] != UNATTRIBUTED and cell[0] not in own
            }
        if foreign:
            cells = ", ".join(sorted(f"{lbl}:{p!r}" for lbl, p in foreign))
            out.append(
                diag(
                    "FCSL048",
                    f"action {action.name!r} touches heap cells of foreign "
                    f"label(s): {cells} (own labels: {sorted(own)!r})",
                    subject=target.program,
                    obj=action.name,
                    loc=loc_of(type(action).step),
                )
            )
    return out


# -- entry points -------------------------------------------------------------------------


def race_target(target: LintTarget) -> list[Diagnostic]:
    """Every race rule over one lint target, concatenated."""
    states = tuple(target.states[:RACE_STATE_CAP])
    if not states:
        return []
    out = _program_rules(target, states)
    out.extend(_assertion_rules(target, states))
    out.extend(_footprint_rules(target, states))
    return out


def race_registry(names: Iterable[str] | None = None) -> list[Diagnostic]:
    """Race-rule sweep over the selected (default: all) registry programs."""
    from ..structures.registry import all_programs

    wanted = tuple(names) if names is not None else None
    if wanted is not None:
        known = {info.name for info in all_programs()}
        unknown = sorted(set(wanted) - known)
        if unknown:
            raise KeyError(
                f"unknown registry program(s) {unknown}; known: {sorted(known)}"
            )
    missing = [
        info.name for info in all_programs() if info.name not in TARGET_BUILDERS
    ]
    if missing:
        raise KeyError(f"registry programs without lint targets: {missing}")
    out: list[Diagnostic] = []
    for info in all_programs():
        if wanted is not None and info.name not in wanted:
            continue
        out.extend(race_target(target_for(info.name)))
    return out
