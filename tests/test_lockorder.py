"""Golden lock-order graphs and the cycle-rule mutation hook.

The graphs below are *golden*: they pin exactly which acquire/release
events the static classifier derives for the lock-bearing case studies
and which held-while-acquiring edges connect them.  The paper's locks
are single-lock structures — one node, no edges, trivially acyclic —
while the two-lock demo exists to keep the FCSL050 positive case
in-tree: opposite-order ladders produce the la->lb / lb->la cycle.

The mutation tests drive :meth:`LockOrderGraph.with_edge`: adding a
synthetic back-edge to a clean graph must make the cycle rule fire,
which proves FCSL050 is detected by the cycle structure itself, not
memorized per program.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Severity
from repro.analysis.lockorder import (
    build_lock_order,
    cycle_diagnostics,
    lockorder_target,
)
from repro.analysis.targets import target_for


def _codes(diags):
    return sorted({d.code for d in diags})


def _errors(diags):
    return [d for d in diags if d.severity >= Severity.ERROR]


# -- golden graphs -----------------------------------------------------------------------


def test_cas_lock_golden_graph():
    graph, diags = build_lock_order(target_for("CAS-lock"))
    assert graph.nodes == ("lk",)
    assert graph.acquires == {"lk": ("lk.try_acquire",)}
    assert graph.releases == {"lk": ("lk.release",)}
    assert graph.edges == ()
    assert graph.cycles() == []
    assert graph.complete
    assert not diags


def test_ticketed_lock_golden_graph():
    graph, diags = build_lock_order(target_for("Ticketed lock"))
    assert graph.nodes == ("lk",)
    assert graph.acquires == {"lk": ("lk.draw",)}
    assert graph.releases == {"lk": ("lk.release",)}
    assert graph.edges == ()
    assert graph.cycles() == []
    assert not diags


def test_two_lock_demo_golden_graph():
    graph, diags = build_lock_order(target_for("Two-lock demo"))
    assert graph.nodes == ("la", "lb")
    assert graph.acquires == {
        "la": ("la.try_acquire",),
        "lb": ("lb.try_acquire",),
    }
    assert graph.releases == {
        "la": ("la.release",),
        "lb": ("lb.release",),
    }
    # The opposite-order ladders produce both hold-while-acquiring
    # directions: the planted deadlock.
    assert graph.edge_pairs() == frozenset({("la", "lb"), ("lb", "la")})
    assert graph.cycles() == [("la", "lb")]
    # Collection on the ladders is honest about being partial (FCSL057
    # info), but nothing error-level comes from the path rules here —
    # the cycle itself is cycle_diagnostics' job.
    assert not _errors(diags)


def test_two_lock_demo_cycle_diagnostic():
    graph, diags = lockorder_target(target_for("Two-lock demo"))
    errors = _errors(diags)
    assert _codes(errors) == ["FCSL050"]
    (cycle,) = errors
    assert "la->lb" in cycle.message
    assert "lb->la" in cycle.message


def test_paper_lock_targets_have_no_liveness_errors():
    for name in ("CAS-lock", "Ticketed lock"):
        __, diags = lockorder_target(target_for(name))
        assert not _errors(diags), (name, diags)


# -- the mutation hook: FCSL050 comes from the cycle structure ---------------------------


def test_mutated_back_edge_fires_cycle_rule():
    graph, __ = build_lock_order(target_for("CAS-lock"))
    assert cycle_diagnostics(graph) == []
    mutated = graph.with_edge("lk", "aux").with_edge("aux", "lk")
    assert mutated.cycles() == [("aux", "lk")]
    diags = cycle_diagnostics(mutated)
    assert _codes(diags) == ["FCSL050"]
    assert "<mutation>" in diags[0].message


def test_mutated_self_loop_fires_cycle_rule():
    graph, __ = build_lock_order(target_for("Ticketed lock"))
    mutated = graph.with_edge("lk", "lk")
    assert mutated.cycles() == [("lk",)]
    assert _codes(cycle_diagnostics(mutated)) == ["FCSL050"]


def test_breaking_one_demo_edge_breaks_the_cycle():
    """The demo cycle needs *both* directions: a graph rebuilt without
    either edge is acyclic and FCSL050-silent."""
    from repro.analysis.lockorder import LockOrderGraph

    graph, __ = build_lock_order(target_for("Two-lock demo"))
    for dropped in graph.edges:
        kept = tuple(e for e in graph.edges if e is not dropped)
        acyclic = LockOrderGraph(
            target=graph.target,
            acquires=dict(graph.acquires),
            releases=dict(graph.releases),
            edges=kept,
            complete=graph.complete,
        )
        assert acyclic.cycles() == []
        assert cycle_diagnostics(acyclic) == []


# -- serialization ------------------------------------------------------------------------


def test_graph_to_dict_round_trips_the_shape():
    graph, __ = build_lock_order(target_for("Two-lock demo"))
    image = graph.to_dict()
    assert image["nodes"] == ["la", "lb"]
    assert {(e["src"], e["dst"]) for e in image["edges"]} == {
        ("la", "lb"),
        ("lb", "la"),
    }
    assert image["cycles"] == [["la", "lb"]]
