"""Memoized protocol steps: one table per concurroid per verified program.

FCSL proves a concurroid's coherence and transition lemmas once and reuses
them in every action and stability proof (§2.2.1–§2.2.3, §3.4).  The
finite-model analogue is a memo: the metatheory (``Conc``), action
(``Acts``) and stability (``Stab``) checkers, the protocol and
environment closures and the static pre-pass all ask the same three
questions of the same states, so a :class:`StepTable` answers each one
once per state:

* :meth:`StepTable.coherent` — ``conc.coherent(s)``;
* :meth:`StepTable.steps` — every ``(transition name, param, successor)``
  of ``conc.transitions()`` (built once per table);
* :meth:`StepTable.env` — the ``conc.env_moves(s)`` successors.

The memo is sound only because those functions are pure functions of the
immutable, hashable :class:`~repro.core.state.State`; ``coherent``,
``transitions``, ``env_transitions`` and every transition's ``params``
must not read anything else.  Successor states are interned to one
canonical copy, so the memo never holds two equal states.

**Lifetime.**  :func:`step_tables` opens a scope — one per program
verification, entered by :meth:`ProgramInfo.run_verifier
<repro.structures.registry.ProgramInfo.run_verifier>` — and
:func:`table_for` returns the scope's table for a concurroid, creating
it on first use.  The scope maps each concurroid *object* to its table,
so the table pins the concurroid it memoizes, and everything is dropped
when the scope closes.  A checker called outside any scope gets a
private table for that one call.

While tracing is on (:mod:`repro.obs.tracer`), tables also count their
lookups; :func:`scope_counts` sums them for the per-obligation hit and
miss counters.  With tracing off no counting code runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from ..obs import tracer as obs_tracer
from .state import State

#: The memoized questions, in the order :func:`scope_counts` reports them.
KINDS = ("coherent", "steps", "env")

_MISSING = object()


class StepTable:
    """The memoized protocol functions of one concurroid."""

    #: fcsl-deps: the dependency walker must not traverse the memo.  Its
    #: contents are derived from already-fingerprinted sources, and
    #: walking them would make a cone depend on which states earlier
    #: obligations happened to visit.
    __deps_opaque__ = True

    __slots__ = ("conc", "_transitions", "_coherent", "_steps", "_env", "_pool")

    def __init__(self, conc: Any) -> None:
        self.conc = conc
        self._transitions: tuple | None = None
        self._coherent: dict[State, bool] = {}
        self._steps: dict[State, tuple[tuple[str, Any, State], ...]] = {}
        self._env: dict[State, tuple[State, ...]] = {}
        self._pool: dict[State, State] = {}

    def _intern(self, state: State) -> State:
        return self._pool.setdefault(state, state)

    def coherent(self, state: State) -> bool:
        ok = self._coherent.get(state, _MISSING)
        if ok is _MISSING:
            ok = self._coherent[self._intern(state)] = self.conc.coherent(state)
        return ok  # type: ignore[return-value]

    def steps(self, state: State) -> tuple[tuple[str, Any, State], ...]:
        """Every observing-thread step from ``state``, in
        ``transitions()`` order: ``(transition name, param, successor)``."""
        out = self._steps.get(state)
        if out is None:
            if self._transitions is None:
                self._transitions = tuple(self.conc.transitions())
            intern = self._intern
            out = tuple(
                (t.name, p, intern(succ))
                for t in self._transitions
                for p, succ in t.successors(state)
            )
            self._steps[intern(state)] = out
        return out

    def env(self, state: State) -> tuple[State, ...]:
        """Every environment step's successor from ``state``, in
        ``env_moves`` order."""
        out = self._env.get(state)
        if out is None:
            out = tuple(map(self._intern, self.conc.env_moves(state)))
            self._env[self._intern(state)] = out
        return out

    def counts(self) -> dict[str, int] | None:
        """Lookup counters, or ``None`` for a table that does not count."""
        return None


class _CountingStepTable(StepTable):
    """A :class:`StepTable` that also counts lookups (built while tracing).

    Misses are the memo sizes — every miss that returns stores exactly
    one entry — so only the calls need counting.
    """

    __slots__ = ("_calls",)

    def __init__(self, conc: Any) -> None:
        super().__init__(conc)
        self._calls = [0, 0, 0]

    def coherent(self, state: State) -> bool:
        self._calls[0] += 1
        return StepTable.coherent(self, state)

    def steps(self, state: State) -> tuple[tuple[str, Any, State], ...]:
        self._calls[1] += 1
        return StepTable.steps(self, state)

    def env(self, state: State) -> tuple[State, ...]:
        self._calls[2] += 1
        return StepTable.env(self, state)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for kind, calls, memo in zip(KINDS, self._calls, (self._coherent, self._steps, self._env)):
            out[f"{kind}_hits"] = calls - len(memo)
            out[f"{kind}_misses"] = len(memo)
        return out


_SCOPE: ContextVar[dict | None] = ContextVar("repro_step_tables", default=None)


@contextmanager
def step_tables() -> Iterator[None]:
    """Share one :class:`StepTable` per concurroid for the ``with`` block
    (one program's verification); every table is dropped on exit."""
    token = _SCOPE.set({})
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _new_table(conc: Any) -> StepTable:
    if obs_tracer.current() is None:
        return StepTable(conc)
    return _CountingStepTable(conc)


def table_for(conc: Any) -> StepTable:
    """The current scope's table for ``conc`` (a private one outside any
    :func:`step_tables` scope)."""
    scope = _SCOPE.get()
    if scope is None:
        return _new_table(conc)
    table = scope.get(conc)
    if table is None:
        table = scope[conc] = _new_table(conc)
    return table


def scope_counts() -> dict[str, int] | None:
    """Lookup counters summed over the current scope's tables, or
    ``None`` when no table in scope counts."""
    scope = _SCOPE.get()
    if not scope:
        return None
    total: dict[str, int] | None = None
    for table in scope.values():
        counts = table.counts()
        if counts is None:
            continue
        if total is None:
            total = dict.fromkeys(counts, 0)
        for key, value in counts.items():
            total[key] += value
    return total
