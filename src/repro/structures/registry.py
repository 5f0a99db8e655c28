"""The program registry: metadata behind Tables 1–2 and Figure 5.

Each entry records, for one of the paper's eleven case studies:

* the verification entry point (Table 1: obligation counts per category
  and verification time);
* the source modules implementing it (Table 1: LOC);
* which primitive concurroids it employs and whether locks are reached
  through the abstract interface (Table 2's ✓ / ✓L marks);
* which other libraries it builds on (Figure 5's dependency edges).

The evaluation package derives the tables and the figure from this
registry *programmatically*, so the reproduced artifacts can never drift
from the code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..core.steptable import step_tables
from ..core.verify import VerificationReport

#: The concurroid columns of Table 2, in the paper's order.
CONCURROID_COLUMNS = (
    "Priv",
    "CLock",
    "TLock",
    "ReadPair",
    "Treiber",
    "SpanTree",
    "FlatCombine",
)


@dataclass(frozen=True)
class ProgramInfo:
    """Registry entry for one case-study program."""

    #: Table 1 row name.
    name: str
    #: Primitive concurroids employed (column -> "yes" | "lock-interface").
    concurroids: Mapping[str, str]
    #: Source modules (dotted) whose lines implement this program.
    modules: tuple[str, ...]
    #: The verification entry point.
    verifier: Callable[[], VerificationReport]
    #: Figure 5: the libraries this program directly builds on
    #: (edge ``dep -> this``).
    depends_on: tuple[str, ...] = ()
    #: Figure 5: interfaces this program implements (edge ``this -> iface``).
    implements: tuple[str, ...] = ()
    #: Free-form notes (deviations from the paper recorded here).
    notes: str = ""
    #: Keyword arguments the engine passes to ``verifier`` (and folds into
    #: the obligation-cache fingerprint: verifying the same modules with
    #: different budgets must never share a cache entry).  Empty means
    #: "the verifier's own defaults".
    verifier_kwargs: Mapping[str, object] = field(default_factory=dict)
    #: Demonstration rows (deliberately defective structures for the
    #: fcsl-live positive cases).  Excluded from :func:`all_programs` —
    #: the paper tables, Figure 5, and the default verification sweep
    #: cover exactly the eleven case studies — but resolvable by name
    #: through :func:`program` and swept by ``repro live``.
    demo: bool = False

    def uses(self, column: str) -> str:
        """"" | "yes" | "lock-interface" for a Table 2 column."""
        return self.concurroids.get(column, "")

    def run_verifier(self) -> VerificationReport:
        """Invoke the verification entry point with this row's kwargs.

        The run is one :func:`~repro.core.steptable.step_tables` scope:
        its checkers share one memo of protocol steps per concurroid,
        dropped when the call returns.
        """
        with step_tables():
            return self.verifier(**dict(self.verifier_kwargs))


def _lock_marks() -> dict[str, str]:
    """Both lock columns via the abstract interface (the paper's ✓L)."""
    return {"CLock": "lock-interface", "TLock": "lock-interface"}


def _build_registry() -> tuple[ProgramInfo, ...]:
    from .allocator import verify_cg_allocator
    from .cg_increment import verify_cg_increment
    from .fc_stack import verify_fc_stack
    from .flat_combiner_verify import verify_flat_combiner
    from .locks.verify import verify_cas_lock, verify_ticketed_lock
    from .pair_snapshot import verify_pair_snapshot
    from .prodcons import verify_prod_cons
    from .seq_stack import verify_seq_stack
    from .spanning_tree_verify import verify_spanning_tree
    from .treiber_verify import verify_treiber_stack

    return (
        ProgramInfo(
            name="CAS-lock",
            concurroids={"Priv": "yes", "CLock": "yes"},
            implements=("Abstract lock",),
            modules=(
                "repro.structures.locks.caslock",
                "repro.structures.locks.interface",
                "repro.structures.locks.verify",
            ),
            verifier=verify_cas_lock,
        ),
        ProgramInfo(
            name="Ticketed lock",
            concurroids={"Priv": "yes", "TLock": "yes"},
            implements=("Abstract lock",),
            modules=("repro.structures.locks.ticketed",),
            verifier=verify_ticketed_lock,
        ),
        ProgramInfo(
            name="CG increment",
            concurroids={"Priv": "yes", **_lock_marks()},
            depends_on=("Abstract lock",),
            modules=("repro.structures.cg_increment",),
            verifier=verify_cg_increment,
        ),
        ProgramInfo(
            name="CG allocator",
            concurroids={"Priv": "yes", **_lock_marks()},
            depends_on=("Abstract lock",),
            modules=("repro.structures.allocator",),
            verifier=verify_cg_allocator,
            notes=(
                "Conc/Acts cover the heap-transfer connectors, which the "
                "paper folds into its lock infrastructure ('-' entries)."
            ),
        ),
        ProgramInfo(
            name="Pair snapshot",
            concurroids={"ReadPair": "yes"},
            depends_on=(),
            modules=("repro.structures.pair_snapshot",),
            verifier=verify_pair_snapshot,
        ),
        ProgramInfo(
            name="Treiber stack",
            concurroids={"Priv": "yes", **_lock_marks(), "Treiber": "yes"},
            depends_on=("CG Allocator",),
            modules=(
                "repro.structures.treiber",
                "repro.structures.treiber_verify",
            ),
            verifier=verify_treiber_stack,
        ),
        ProgramInfo(
            name="Spanning tree",
            concurroids={"Priv": "yes", "SpanTree": "yes"},
            depends_on=(),
            modules=(
                "repro.structures.spanning_tree",
                "repro.structures.spanning_tree_verify",
            ),
            verifier=verify_spanning_tree,
        ),
        ProgramInfo(
            name="Flat combiner",
            concurroids={"Priv": "yes", **_lock_marks(), "FlatCombine": "yes"},
            depends_on=("CG Allocator",),
            modules=(
                "repro.structures.flat_combiner",
                "repro.structures.flat_combiner_verify",
            ),
            verifier=verify_flat_combiner,
            notes=(
                "The combiner lock is integral to the FlatCombine "
                "concurroid (mutex PCM), as in the paper; the allocator "
                "dependency exists in the paper because sequential ops may "
                "allocate — our instances are pure, so the entanglement is "
                "recorded but unexercised."
            ),
        ),
        ProgramInfo(
            name="Seq. stack",
            concurroids={"Priv": "yes", **_lock_marks(), "Treiber": "yes"},
            depends_on=("Treiber stack",),
            modules=("repro.structures.seq_stack",),
            verifier=verify_seq_stack,
        ),
        ProgramInfo(
            name="FC-stack",
            concurroids={"Priv": "yes", **_lock_marks(), "FlatCombine": "yes"},
            depends_on=("Flat combiner",),
            modules=("repro.structures.fc_stack",),
            verifier=verify_fc_stack,
        ),
        ProgramInfo(
            name="Prod/Cons",
            concurroids={"Priv": "yes", **_lock_marks(), "Treiber": "yes"},
            depends_on=("Treiber stack",),
            modules=("repro.structures.prodcons",),
            verifier=verify_prod_cons,
        ),
    )


#: Non-program Figure 5 nodes (interfaces) and their incoming edges.
INTERFACE_DEPENDENCIES: Mapping[str, tuple[str, ...]] = {
    "Abstract lock": (),
    "CG incrementor": ("Abstract lock",),
    "CG Allocator": ("Abstract lock",),
}

#: The dependency edges of Figure 5, exactly as drawn in the paper
#: (``A -> B`` meaning "B builds on A").
FIGURE5_PAPER_EDGES: frozenset[tuple[str, str]] = frozenset(
    {
        ("CAS-lock", "Abstract lock"),
        ("Ticketed lock", "Abstract lock"),
        ("Abstract lock", "CG incrementor"),
        ("Abstract lock", "CG Allocator"),
        ("CG Allocator", "Treiber stack"),
        ("CG Allocator", "Flat combiner"),
        ("Treiber stack", "Sequential stack"),
        ("Treiber stack", "Producer/Consumer"),
        ("Flat combiner", "FC stack"),
    }
)

#: Mapping from registry names to Figure 5 node names.
FIGURE5_NODE_NAMES: Mapping[str, str] = {
    "CAS-lock": "CAS-lock",
    "Ticketed lock": "Ticketed lock",
    "CG increment": "CG incrementor",
    "CG allocator": "CG Allocator",
    "Treiber stack": "Treiber stack",
    "Flat combiner": "Flat combiner",
    "Seq. stack": "Sequential stack",
    "FC-stack": "FC stack",
    "Prod/Cons": "Producer/Consumer",
}

def _build_demos() -> tuple[ProgramInfo, ...]:
    from .locks.demo import verify_two_lock_demo, verify_unfair_lock

    return (
        ProgramInfo(
            name="Two-lock demo",
            concurroids={"Priv": "yes", "CLock": "yes"},
            modules=("repro.structures.locks.demo",),
            verifier=verify_two_lock_demo,
            notes=(
                "fcsl-live demo: two CAS locks acquired in opposite orders "
                "by parallel ladders — the FCSL050 deadlock-cycle positive "
                "case."
            ),
            demo=True,
        ),
        ProgramInfo(
            name="Unfair lock demo",
            concurroids={"Priv": "yes", "CLock": "yes"},
            modules=("repro.structures.locks.demo",),
            verifier=verify_unfair_lock,
            notes=(
                "fcsl-live demo: a spinlock falsely claiming FIFO fairness "
                "— the livelock/starvation witness positive case.  Its "
                "fifo-fairness obligation fails by design."
            ),
            demo=True,
        ),
    )


_REGISTRY: tuple[ProgramInfo, ...] | None = None
_DEMOS: tuple[ProgramInfo, ...] | None = None


def all_programs() -> tuple[ProgramInfo, ...]:
    """The registry, in Table 1 row order (built lazily: importing every
    structure at module load would be heavy).  Exactly the paper's eleven
    case studies — demo rows live in :func:`demo_programs`."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def demo_programs() -> tuple[ProgramInfo, ...]:
    """The demonstration rows (``demo=True``): fcsl-live positive cases."""
    global _DEMOS
    if _DEMOS is None:
        _DEMOS = _build_demos()
    return _DEMOS


def registry_programs() -> tuple[ProgramInfo, ...]:
    """Every registered program: the paper's eleven plus the demo rows."""
    return all_programs() + demo_programs()


def reset_registry() -> None:
    """Drop the memoized registry rows so the next access rebuilds them.

    The serve daemon calls this after hot-reloading an edited case-study
    module: ``_build_registry`` re-imports the verifier entry points at
    call time, so a rebuild picks up the reloaded function objects while
    everything holding the *registry accessors* (engine, analysis) stays
    valid — only the cached rows were stale.
    """
    global _REGISTRY, _DEMOS
    _REGISTRY = None
    _DEMOS = None


def program(name: str) -> ProgramInfo:
    for info in registry_programs():
        if info.name == name:
            return info
    raise KeyError(f"no registered program named {name!r}")


def figure5_edges() -> frozenset[tuple[str, str]]:
    """Our dependency edges, derived from the registry (plus the
    interface-level edges), in Figure 5 node naming."""
    edges: set[tuple[str, str]] = set()
    for node, deps in INTERFACE_DEPENDENCIES.items():
        for dep in deps:
            edges.add((dep, node))
    for info in all_programs():
        node = FIGURE5_NODE_NAMES.get(info.name)
        if node is None:
            continue
        for dep in info.depends_on:
            edges.add((FIGURE5_NODE_NAMES.get(dep, dep), node))
        for iface in info.implements:
            edges.add((node, FIGURE5_NODE_NAMES.get(iface, iface)))
    return frozenset(edges)
