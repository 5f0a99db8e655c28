"""The verifier pre-pass: lint facts that discharge dynamic obligations.

:func:`repro.core.stability.check_stability` is the verifier's per-
assertion brute force: an interference-closure BFS from every start
state.  For a large class of assertions that exploration is provably
redundant, and this module proves it *statically* (per model, amortized
over all its stability obligations):

1. **Environment closure** — every environment move from every modelled
   state lands back inside the modelled family (one sweep per
   ``(concurroid, states)`` pair, cached).
2. **Self preservation** — those moves never change any label's ``self``
   projection (checked in the same sweep; this is the other-preservation
   metatheory fact seen from the observer's side).
3. **Self-framedness** — the assertion is constant on classes of states
   sharing all ``self`` components (:func:`repro.analysis.specs.probe_self_framed`).

Given 1-3, any interference path from a start state where the assertion
holds stays inside the start's self-projection class, where the
assertion is constantly true — so ``check_stability`` would return no
issues.  :meth:`StaticPrepass.discharges` says exactly when that
argument applies; the hook in ``check_stability`` then skips the BFS and
the report shows the skip count.  Verdicts are identical by
construction: only obligations whose dynamic outcome is provably empty
are skipped.

Usage::

    with static_prepass() as facts:
        report = verify_cas_lock()
    assert facts.skipped  # e.g. the contribution-stable(a=...) family
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from ..core.concurroid import Concurroid
from ..core.state import State
from ..core.steptable import table_for
from ..core.verify import set_prepass
from .specs import probe_self_framed


class StaticPrepass:
    """Lint-fact store consulted by ``check_stability``."""

    #: fcsl-deps: the dependency walker must not traverse this memo.
    #: Its contents are derived facts over already-fingerprinted sources
    #: — but they accumulate across a shared verification process, so a
    #: cone that included them would depend on which *sibling* programs
    #: happened to run first (nondeterministic fingerprints, spurious
    #: re-verification).
    __deps_opaque__ = True

    def __init__(self) -> None:
        #: (conc id, states fingerprint) -> env-closure sweep verdict
        self._sweeps: dict[tuple, bool] = {}
        self._pinned: list[Concurroid] = []  # keep ids stable while cached
        #: names of obligations discharged statically, in order
        self.skipped: list[str] = []
        #: how many obligations consulted the pre-pass
        self.consulted: int = 0

    # -- the public hook ----------------------------------------------------

    def discharges(
        self,
        assertion: Callable[[State], bool],
        name: str,
        conc: Concurroid,
        states: Iterable[State],
    ) -> bool:
        """True iff the stability BFS for ``assertion`` is provably empty."""
        self.consulted += 1
        states = tuple(states)
        if not states:
            return False
        if not self._env_closed_and_self_preserving(conc, states):
            return False
        framed, __ = probe_self_framed(assertion, states)
        if not framed:
            return False
        self.skipped.append(name)
        return True

    # -- the amortized model sweep ------------------------------------------

    def _env_closed_and_self_preserving(
        self, conc: Concurroid, states: tuple[State, ...]
    ) -> bool:
        key = (id(conc), len(states), hash(states))
        if key not in self._sweeps:
            self._pinned.append(conc)
            self._sweeps[key] = self._sweep(conc, states)
        return self._sweeps[key]

    @staticmethod
    def _sweep(conc: Concurroid, states: tuple[State, ...]) -> bool:
        universe = set(states)
        try:
            env = table_for(conc).env
            for s in states:
                for s2 in env(s):
                    if s2 not in universe:
                        return False  # family is not env-closed
                    for lbl in s.labels():
                        if s2.self_of(lbl) != s.self_of(lbl):
                            return False  # env changed a self projection
        except Exception:  # noqa: BLE001 - fail closed
            return False
        return True


@contextmanager
def static_prepass() -> Iterator[StaticPrepass]:
    """Install a :class:`StaticPrepass` for the dynamic verifiers run
    inside the ``with`` block; always uninstalled on exit."""
    facts = StaticPrepass()
    set_prepass(facts)
    try:
        yield facts
    finally:
        set_prepass(None)
