"""Automatic stability proving — the §7 "lemma overloading" item.

The paper's future work: "implement proof automation for stability-related
facts via lemma overloading [18]".  Lemma overloading picks, for each
assertion, a canonical lemma whose shape it matches; the analogue here is
a small tactic library that *classifies* assertions and discharges whole
classes from one amortized fact, instead of exploring the interference
closure per assertion:

* **self-framed** assertions — predicates over the observing thread's own
  ``self`` component — are stable *for free* once the concurroid's
  other-preservation metatheory check has passed: environment steps are
  transposed transitions, and transitions never touch ``other``, so (after
  transposing back) they never touch ``self``.  Zero exploration.
* **monotone lower bounds** — ``observable(s) ⊒ c`` for an observable that
  only grows along environment steps.  Monotonicity is checked *once* per
  observable (one pass over the model's env edges) and then every bound,
  for every constant, is discharged syntactically.  Canonical observables:
  history timestamps, version counters, marked-node sets.
* **conjunction / disjunction** of discharged assertions.
* anything else falls back to the exhaustive closure exploration of
  :mod:`repro.core.stability`.

:func:`auto_check_stability` reports, per assertion, *how* it was
discharged; the automation ablation benchmark measures the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .concurroid import Concurroid
from .stability import check_stability
from .steptable import table_for
from .state import State

Observable = Callable[[State], Any]


@dataclass(frozen=True)
class AutoAssertion:
    """An assertion tagged with the shape the tactics dispatch on."""

    name: str
    predicate: Callable[[State], bool]
    #: "self-framed" | "lower-bound" | "conj" | "opaque"
    shape: str = "opaque"
    #: for "lower-bound": the observable and the partial order.
    observable: Observable | None = None
    bound: Any = None
    leq: Callable[[Any, Any], bool] = field(default=lambda a, b: a <= b)
    #: for "conj": the conjuncts.
    parts: tuple["AutoAssertion", ...] = ()


def self_framed(name: str, label: str, pred: Callable[[Any], bool]) -> AutoAssertion:
    """An assertion over the ``self`` component of one label only."""
    return AutoAssertion(
        name=name,
        predicate=lambda s: pred(s.self_of(label)),
        shape="self-framed",
    )


def lower_bound(
    name: str,
    observable: Observable,
    bound: Any,
    leq: Callable[[Any, Any], bool] = lambda a, b: a <= b,
) -> AutoAssertion:
    """``bound ⊑ observable(s)`` for a (to-be-checked) monotone observable."""
    return AutoAssertion(
        name=name,
        predicate=lambda s: leq(bound, observable(s)),
        shape="lower-bound",
        observable=observable,
        bound=bound,
        leq=leq,
    )


def conj(name: str, *parts: AutoAssertion) -> AutoAssertion:
    return AutoAssertion(
        name=name,
        predicate=lambda s: all(p.predicate(s) for p in parts),
        shape="conj",
        parts=parts,
    )


def opaque(name: str, predicate: Callable[[State], bool]) -> AutoAssertion:
    """No recognizable shape: will be discharged by brute exploration."""
    return AutoAssertion(name=name, predicate=predicate, shape="opaque")


# -- the amortized monotonicity fact ---------------------------------------------------------------


def check_observable_monotone(
    conc: Concurroid,
    observable: Observable,
    states: Iterable[State],
    leq: Callable[[Any, Any], bool] = lambda a, b: a <= b,
    *,
    max_issues: int = 3,
) -> list[str]:
    """One pass over the model's environment edges: ``obs(s) ⊑ obs(s')``
    for every env step ``s -> s'``.  Once this holds, *every* lower bound
    on the observable is stable — the overloaded lemma."""
    table = table_for(conc)
    issues: list[str] = []
    for s in states:
        if not table.coherent(s):
            continue
        before = observable(s)
        for s2 in table.env(s):
            if not leq(before, observable(s2)):
                issues.append(
                    f"observable not monotone: {before!r} -> {observable(s2)!r} at {s!r}"
                )
                if len(issues) >= max_issues:
                    return issues
    return issues


@dataclass
class AutoStabilityResult:
    """Per-assertion outcome plus aggregate statistics."""

    issues: list[str] = field(default_factory=list)
    #: assertion name -> tactic that discharged it
    discharged_by: dict[str, str] = field(default_factory=dict)
    #: how many monotonicity passes were run (amortized across bounds)
    monotone_checks: int = 0
    explored: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def tactic_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for tactic in self.discharged_by.values():
            out[tactic] = out.get(tactic, 0) + 1
        return out


def auto_check_stability(
    conc: Concurroid,
    states: Sequence[State],
    assertions: Sequence[AutoAssertion],
    *,
    metatheory_passed: bool,
) -> AutoStabilityResult:
    """Discharge each assertion with the cheapest applicable tactic.

    ``metatheory_passed`` must reflect a successful
    :func:`~repro.core.concurroid.check_concurroid` run for ``conc`` over
    ``states`` — the self-framed tactic is sound only given
    other-preservation (the caller vouches, exactly like applying a lemma
    whose hypotheses were established elsewhere).
    """
    result = AutoStabilityResult()
    monotone_cache: dict[int, bool] = {}

    def discharge(assertion: AutoAssertion) -> bool:
        if assertion.shape == "self-framed" and metatheory_passed:
            # Environment steps are transposed transitions; transitions
            # preserve `other`, hence env steps preserve `self`: any
            # self-framed predicate is invariant.  Nothing to explore.
            result.discharged_by[assertion.name] = "self-framed"
            return True
        if assertion.shape == "lower-bound" and assertion.observable is not None:
            key = id(assertion.observable)
            if key not in monotone_cache:
                result.monotone_checks += 1
                issues = check_observable_monotone(
                    conc, assertion.observable, states, assertion.leq
                )
                monotone_cache[key] = not issues
            if monotone_cache[key]:
                result.discharged_by[assertion.name] = "monotone-bound"
                return True
            # Not monotone: fall through to brute force.
        if assertion.shape == "conj":
            if all(discharge(p) for p in assertion.parts):
                result.discharged_by[assertion.name] = "conjunction"
                return True
        # Fallback: exhaustive interference-closure exploration.
        issues = check_stability(assertion.predicate, assertion.name, conc, states)
        result.explored += 1
        if issues:
            result.issues.extend(str(i) for i in issues)
            return False
        result.discharged_by[assertion.name] = "explored"
        return True

    for assertion in assertions:
        discharge(assertion)
    return result
