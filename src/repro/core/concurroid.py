"""Concurroids: labelled state-transition systems for concurrent protocols.

§2.2.1/§3.3: a concurroid couples a *coherence predicate* (the state space)
with *transitions* (the admissible state changes).  Transitions describe
steps of the observing thread; environment steps are the same transitions
seen through transposition of ``self``/``other`` (the subjective flip).

A concurroid may own several labels (entanglement produces one that owns
the union, §4.1), so coherence and transitions act on whole
:class:`~repro.core.state.State` values but only inspect their own labels.

The metatheory side conditions the Coq development proves per concurroid
([37, §4]) are *checked* here by :func:`check_concurroid` over a finite
state family: transition preservation of coherence / ``other`` / heap
footprint, and the fork-join closure of the state space.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..heap import EMPTY, Heap
from ..pcm.base import PCM
from .errors import MetatheoryViolation
from .state import State, SubjState
from .steptable import StepTable, table_for


@dataclass(frozen=True)
class Transition:
    """A named, parametrized transition of a concurroid.

    ``requires`` is the transition's guard, ``effect`` its state change
    (both over full states), and ``params`` enumerates candidate parameters
    for a given state — the finite-model substitute for the relational
    definition in Coq.  The identity transition ``idle`` is implicit:
    every concurroid has it.
    """

    name: str
    requires: Callable[[State, Any], bool]
    effect: Callable[[State, Any], State]
    params: Callable[[State], Iterable[Any]] = field(default=lambda __: (None,))

    def enabled_params(self, state: State) -> Iterator[Any]:
        for p in self.params(state):
            if self.requires(state, p):
                yield p

    def successors(self, state: State) -> Iterator[tuple[Any, State]]:
        for p in self.enabled_params(state):
            yield p, self.effect(state, p)

    def __repr__(self) -> str:
        return f"<Transition {self.name}>"


class Concurroid(ABC):
    """Abstract concurroid: labels + coherence + transitions.

    Subclasses define the protocol of one shared resource (``SpanTree``,
    ``CLock``, ``Treiber``, ...); :class:`~repro.core.entangle.Entangled`
    composes them.
    """

    @property
    @abstractmethod
    def labels(self) -> tuple[str, ...]:
        """The labels this concurroid owns within a state."""

    @abstractmethod
    def coherent(self, state: State) -> bool:
        """The coherence predicate over this concurroid's labels."""

    @abstractmethod
    def transitions(self) -> Sequence[Transition]:
        """The non-idle transitions (observing-thread steps)."""

    def pcms(self) -> Mapping[str, PCM]:
        """The PCM governing ``self``/``other`` at each owned label.

        Needed for fork-join closure checking and for forking threads
        (children start with unit contributions).  Default: empty, meaning
        the metatheory checker skips PCM-dependent checks.
        """
        return {}

    # -- derived machinery -------------------------------------------------------

    @property
    def label(self) -> str:
        """The unique label of a single-label concurroid."""
        if len(self.labels) != 1:
            raise ValueError(f"{self!r} owns multiple labels: {self.labels}")
        return self.labels[0]

    def env_transitions(self) -> Sequence[Transition]:
        """The transitions interfering threads may take.

        Defaults to all of :meth:`transitions`.  ``Priv`` narrows this to
        in-place writes: environment allocation in *its own* private heap
        cannot affect any assertion here but would grow the model without
        bound.
        """
        return self.transitions()

    def env_moves(self, state: State) -> Iterator[State]:
        """States reachable by one *environment* step.

        An environment step is a transition taken by an interfering thread:
        transpose to its point of view, step, transpose back (§2.2.1's
        subjective dichotomy).  Only this concurroid's labels are flipped.
        """
        flipped = self._transpose_own(state)
        for t in self.env_transitions():
            for __, succ in t.successors(flipped):
                yield self._transpose_own(succ)

    def _transpose_own(self, state: State) -> State:
        out = state
        for lbl in self.labels:
            if lbl in state:
                out = out.set(lbl, out[lbl].transpose())
        return out

    def real_heap(self, state: State) -> Heap:
        """The physical (erased) heap this concurroid contributes.

        Default: every owned label's ``joint`` that is a heap.  ``Priv``
        overrides this to also count the private self/other heaps.
        """
        acc = EMPTY
        for lbl in self.labels:
            joint = state.joint_of(lbl)
            if isinstance(joint, Heap):
                acc = acc.join(joint)
        return acc

    #: Whether transitions must preserve the joint heap footprint
    #: (true for all primitive concurroids in the paper; heap transfer
    #: happens only through entanglement connectors, §3.3/§4.1).
    preserves_footprint: bool = True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {'/'.join(self.labels)}>"


# -- metatheory checking ---------------------------------------------------------


@dataclass(frozen=True)
class MetatheoryIssue:
    """One failed metatheory side condition, with a concrete witness."""

    concurroid: str
    condition: str
    transition: str
    witness: str

    def __str__(self) -> str:
        where = f" in {self.transition}" if self.transition else ""
        return f"{self.concurroid}: {self.condition}{where}: {self.witness}"


def check_concurroid(
    conc: Concurroid,
    states: Iterable[State],
    *,
    max_issues: int = 10,
) -> list[MetatheoryIssue]:
    """Check the FCSL metatheory side conditions over a finite state family.

    For every coherent state and enabled transition the checker verifies:

    * **coherence preservation** — the post-state is coherent;
    * **other preservation** — ``other`` is unchanged at every owned label;
    * **footprint preservation** — heap-valued joints keep their domain
      (when ``conc.preserves_footprint``);

    and for every coherent state, **fork-join closure** — realigning
    ``self``/``other`` (moving a PCM summand across the subjective split)
    stays coherent.
    """
    issues: list[MetatheoryIssue] = []
    name = type(conc).__name__

    def report(condition: str, transition: str, witness: str) -> bool:
        issues.append(MetatheoryIssue(name, condition, transition, witness))
        return len(issues) >= max_issues

    table = table_for(conc)
    for s in states:
        if not table.coherent(s):
            continue
        for tname, p, s2 in table.steps(s):
            if not table.coherent(s2):
                if report("coherence-preservation", tname, f"{s!r} --{p!r}--> {s2!r}"):
                    return issues
            for lbl in conc.labels:
                if lbl in s and s2.other_of(lbl) != s.other_of(lbl):
                    if report("other-preservation", tname, f"label {lbl} at {s!r}"):
                        return issues
            if conc.preserves_footprint and not _footprint_preserved(conc, s, s2):
                if report("footprint-preservation", tname, f"{s!r} --{p!r}--> {s2!r}"):
                    return issues
        for issue_witness in _fork_join_counterexamples(conc, s, table):
            if report("fork-join-closure", "", issue_witness):
                return issues
    return issues


def _footprint_preserved(conc: Concurroid, s: State, s2: State) -> bool:
    for lbl in conc.labels:
        if lbl not in s or lbl not in s2:
            continue
        j1, j2 = s.joint_of(lbl), s2.joint_of(lbl)
        if isinstance(j1, Heap) and isinstance(j2, Heap) and j1.dom() != j2.dom():
            return False
    return True


def _fork_join_counterexamples(conc: Concurroid, s: State, table: StepTable) -> Iterator[str]:
    """Yield witnesses of fork-join closure failures at state ``s``.

    Closure: if ``[a • b | j | o]`` is coherent then so is ``[a | j | b • o]``
    (and symmetrically back).  We check all splits of ``self`` pushed into
    ``other``, and all splits of ``other`` pulled into ``self``.
    """
    coherent = table.coherent
    pcms = conc.pcms()
    for lbl, pcm in pcms.items():
        if lbl not in s:
            continue
        comp = s[lbl]
        for a, b in pcm.splits(comp.self_):
            realigned = s.set(lbl, SubjState(a, comp.joint, pcm.join(b, comp.other)))
            if not coherent(realigned):
                yield f"label {lbl}: self split ({a!r}, {b!r}) at {s!r}"
        for a, b in pcm.splits(comp.other):
            realigned = s.set(lbl, SubjState(pcm.join(comp.self_, b), comp.joint, a))
            if not coherent(realigned):
                yield f"label {lbl}: other split ({a!r}, {b!r}) at {s!r}"


def protocol_closure(
    conc: Concurroid,
    initials: Iterable[State],
    *,
    max_states: int = 20_000,
) -> set[State]:
    """All states reachable from ``initials`` by *any* protocol step —
    the observing thread's transitions or environment steps.

    This is the finite model over which metatheory and stability
    obligations are discharged: every state an execution can inhabit under
    the protocol (from the modelled initial states).
    """
    from collections import deque

    table = table_for(conc)
    seen: set[State] = set()
    frontier: deque[State] = deque()
    for s in initials:
        if s not in seen:
            seen.add(s)
            frontier.append(s)
    while frontier:
        current = frontier.popleft()
        successors = [s2 for __, __, s2 in table.steps(current)]
        successors.extend(table.env(current))
        for succ in successors:
            if succ not in seen:
                if len(seen) >= max_states:
                    raise MetatheoryViolation(
                        f"protocol closure exceeded {max_states} states; shrink the model"
                    )
                seen.add(succ)
                frontier.append(succ)
    return seen


def assert_metatheory(conc: Concurroid, states: Iterable[State]) -> None:
    """Raise :class:`MetatheoryViolation` if any side condition fails."""
    issues = check_concurroid(conc, states)
    if issues:
        raise MetatheoryViolation("\n".join(str(i) for i in issues))
