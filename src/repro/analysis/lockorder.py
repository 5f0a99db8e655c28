"""Static lock-order derivation and deadlock diagnostics (fcsl-live).

The race rules (:mod:`repro.analysis.race`) ask "can two accesses
collide?".  This module asks the *liveness* questions: which atomic
actions behave like lock acquisitions, in what order does each program
nest them, and does the union of those orders admit a deadlock?

Nothing here relies on actions being literal locks.  The analysis
derives lock-like behaviour observationally, from the same state-family
sampling the linter and fcsl-race use:

1. **Self-guarded instances** (:func:`_self_guarded`): an instance ``Y``
   is guarded by label ``L`` when two modelled states that differ *only*
   in ``L``'s self component disagree about ``safe(Y)`` — ``Y``'s guard
   reads a capability that lives in the subjective state (for a real
   lock: "I hold it").
2. **Acquire / release classification** (:func:`_classify_program`): an
   instance ``X`` *acquires* when running it at some modelled state
   flips a guarded instance from unsafe to safe (it confers the
   capability); it *releases* when it flips one from safe to unsafe.
   The set of instances an acquire flips — its *flip-set* — is the
   lock's observational identity: acquires and releases whose flip-sets
   overlap act on the same lock, which keeps two mutexes that happen to
   share a label (the flat combiner's slots vs its combiner lock)
   separate, and unifies aliases of one lock across programs.
3. **The lock-order graph** (:class:`LockOrderGraph`): edge ``A -> B``
   when some program acquires ``B`` sequentially after ``A`` with no
   intervening release of ``A`` ("A held while acquiring B").  A cycle
   is deadlock potential (FCSL050); the remaining FCSL05x rules read
   the same facts (see the diagnostics table).

Every rule errs toward silence on anything unprobeable — incomplete
collection, unresolved arguments, missing releases in the modelled
fragment — mirroring fcsl-race's zero-false-positive bar on the clean
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..core.prog import ActCall, Bind, Call, HideProg, Par, Prog, Ret
from ..core.state import State
from ..semantics.trees import try_kont
from .diagnostics import Diagnostic, diag, loc_of
from .interference import (
    UNATTRIBUTED,
    CollectedProgram,
    _concolic_collect,
    _display_name,
    _has_probe,
    _safe,
    action_footprint,
    collect_program,
)
from .programs import MAX_NODES, PROBE_VALUES, _call_key
from .race import _cell_values, _env_changes_cell, _target_concurroids
from .targets import LintTarget

#: Cap on states sampled per target (same rationale as RACE_STATE_CAP:
#: sampling loses recall, never precision).
LIVE_STATE_CAP = 300


def _sample_states(states: Sequence[State], cap: int = LIVE_STATE_CAP) -> tuple:
    """A deterministic stride sample across the whole family.

    A plain prefix of the repr-sorted closure can miss entire protocol
    phases (e.g. every state where *this* thread holds the lock), which
    would blind the acquire/release classifier; striding keeps the
    sample spread over all phases.
    """
    if len(states) <= cap:
        return tuple(states)
    stride = -(-len(states) // cap)  # ceil division
    return tuple(states[::stride][:cap])


# -- the graph ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockEdge:
    """One nesting edge: ``src`` held while ``dst`` is acquired."""

    src: str
    dst: str
    #: the program whose sequential order exhibits the nesting
    program: str
    #: display names of the witnessing acquire pair
    via: str

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "program": self.program,
            "via": self.via,
        }


@dataclass(frozen=True)
class LockOrderGraph:
    """The derived lock-order graph of one lint target."""

    target: str
    #: node name -> sorted display names of its acquire instances
    acquires: Mapping[str, tuple[str, ...]]
    #: node name -> sorted display names of its release instances
    releases: Mapping[str, tuple[str, ...]]
    edges: tuple[LockEdge, ...]
    #: False when any program's instance collection was incomplete —
    #: cycle *absence* is then not established.
    complete: bool = True

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.acquires))

    def edge_pairs(self) -> frozenset:
        return frozenset((e.src, e.dst) for e in self.edges)

    def cycles(self) -> list[tuple[str, ...]]:
        """Cyclic strongly-connected components (plus self-loops), each a
        sorted node tuple; deterministic across runs."""
        nodes = sorted(set(self.acquires) | {e.src for e in self.edges} | {e.dst for e in self.edges})
        succs: dict[str, list[str]] = {n: [] for n in nodes}
        for e in self.edges:
            succs[e.src].append(e.dst)
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        out: list[tuple[str, ...]] = []

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(succs[v]):
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in succs[v]:
                    out.append(tuple(sorted(comp)))

        for n in nodes:
            if n not in index:
                strongconnect(n)
        return sorted(out)

    def with_edge(self, src: str, dst: str) -> "LockOrderGraph":
        """A strictly coarser graph with one synthetic edge added (the
        mutation hook for the cycle-rule tests)."""
        acquires = dict(self.acquires)
        for n in (src, dst):
            acquires.setdefault(n, ())
        return LockOrderGraph(
            target=self.target,
            acquires=acquires,
            releases=dict(self.releases),
            edges=self.edges + (LockEdge(src, dst, "<mutation>", "synthetic"),),
            complete=self.complete,
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "nodes": list(self.nodes),
            "acquires": {n: list(v) for n, v in sorted(self.acquires.items())},
            "releases": {n: list(v) for n, v in sorted(self.releases.items())},
            "edges": [e.to_dict() for e in self.edges],
            "cycles": [list(c) for c in self.cycles()],
            "complete": self.complete,
        }


# -- self-guarded instances and acquire/release classification ----------------------------


@dataclass
class _ProgramFacts:
    """Classification output for one program of a target."""

    name: str
    collected: CollectedProgram
    #: acquire key -> flip-set (keys of guarded instances turned safe)
    acquires: dict
    #: release key -> flip-set (keys of guarded instances turned unsafe)
    releases: dict


def _candidates(col: CollectedProgram) -> dict:
    """Instances with statically resolvable arguments, keyed."""
    return {
        key: node
        for key, node in col.instances.items()
        if key not in col.unresolved and not _has_probe(node.args)
    }


def _self_guarded(
    cands: Mapping, states: Sequence[State], safe_of
) -> dict[int, list]:
    """concurroid id -> guarded instance keys.

    An instance is *self-guarded* when transposing its concurroid's
    subjective views (``_transpose_own`` — the same probe the diamond
    check uses) flips its guard at some modelled state: the guard reads
    a capability held in ``self`` ("I own the lock" / "this cell is in
    my private heap").  Guards that read only joint or total state are
    unaffected by the transposition and stay out.
    """
    by_conc: dict[int, list] = {}
    for key, node in sorted(cands.items(), key=lambda kv: repr(kv[0])):
        by_conc.setdefault(id(node.action.concurroid), []).append(key)
    guarded: dict[int, list] = {}
    for cid, keys in by_conc.items():
        conc = cands[keys[0]].action.concurroid
        flipped: list = []
        for i, s in enumerate(states):
            if len(flipped) == len(keys):
                break
            try:
                t = conc._transpose_own(s)
            except Exception:  # noqa: BLE001 - untransposable state
                continue
            for key in keys:
                if key in flipped:
                    continue
                node = cands[key]
                if safe_of(key, i) != _safe(node.action, t, node.args):
                    flipped.append(key)
        if flipped:
            guarded[cid] = sorted(flipped, key=repr)
    return guarded


def _self_changed(s: State, post: State, labels: Iterable) -> bool:
    """Did the step change any of its own labels' subjective components?"""
    for lbl in labels:
        try:
            if post[lbl].self_ != s[lbl].self_:
                return True
        except Exception:  # noqa: BLE001 - label absent on one side
            continue
    return False


def _classify_program(
    col: CollectedProgram, states: Sequence[State], name: str
) -> _ProgramFacts:
    """Derive this program's acquire and release instances with flip-sets."""
    cands = _candidates(col)
    safe_cache: dict = {}

    def safe_of(key, i: int) -> bool:
        mark = (key, i)
        if mark not in safe_cache:
            node = cands[key]
            safe_cache[mark] = _safe(node.action, states[i], node.args)
        return safe_cache[mark]

    guarded = _self_guarded(cands, states, safe_of)
    acquires: dict = {}
    releases: dict = {}
    for key, node in sorted(cands.items(), key=lambda kv: repr(kv[0])):
        watched = guarded.get(id(node.action.concurroid), ())
        if not watched:
            continue
        own = tuple(node.action.concurroid.labels)
        for i, s in enumerate(states):
            if not safe_of(key, i):
                continue
            try:
                __, post = node.action.step(s, *node.args)
            except Exception:  # noqa: BLE001 - crashing step: no claim
                continue
            if post == s or not _self_changed(s, post, own):
                continue  # no capability moved: not lock-shaped
            for y in watched:
                ynode = cands[y]
                before = safe_of(y, i)
                after = _safe(ynode.action, post, ynode.args)
                if after and not before:
                    acquires.setdefault(key, set()).add(y)
                elif before and not after:
                    releases.setdefault(key, set()).add(y)
    return _ProgramFacts(name=name, collected=col, acquires=acquires, releases=releases)


# -- lock identity: union-find over flip-set overlap ---------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb, key=repr)] = min(ra, rb, key=repr)


def _lock_groups(
    acq_flips: Mapping, rel_flips: Mapping
) -> tuple[dict, dict]:
    """Group acquires+releases whose flip-sets overlap.

    Returns ``(group_of_key, members_of_group)``; group ids are the
    lexicographically-least member key.
    """
    uf = _UnionFind()
    keys = sorted(set(acq_flips) | set(rel_flips), key=repr)
    for k in keys:
        uf.find(k)
    flips = {k: acq_flips.get(k, set()) | rel_flips.get(k, set()) for k in keys}
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if flips[a] & flips[b]:
                uf.union(a, b)
    group_of = {k: uf.find(k) for k in keys}
    members: dict = {}
    for k, g in group_of.items():
        members.setdefault(g, []).append(k)
    return group_of, members


def _node_names(
    members: Mapping,
    acq_flips: Mapping,
    nodes_by_key: Mapping,
) -> dict:
    """group id -> display node name.

    The name is the group's concurroid label when it is the only lock
    under that label, else ``label/<first acquire>`` (two mutexes of one
    concurroid — e.g. a slot lock vs a combiner lock — stay distinct).
    """
    label_of: dict = {}
    for gid, keys in members.items():
        acq = [k for k in keys if k in acq_flips]
        pool = acq or list(keys)
        labels = sorted(
            {lbl for k in pool for lbl in nodes_by_key[k].action.concurroid.labels},
            key=repr,
        )
        label_of[gid] = str(labels[0]) if labels else UNATTRIBUTED
    # only acquire-bearing groups become graph nodes, so only they compete
    # for the bare label name; release-only groups never force a suffix
    counts: dict = {}
    for gid, keys in members.items():
        if any(k in acq_flips for k in keys):
            counts[label_of[gid]] = counts.get(label_of[gid], 0) + 1
    for gid in members:
        counts.setdefault(label_of[gid], 1)
    names: dict = {}
    for gid, keys in sorted(members.items(), key=lambda kv: repr(kv[0])):
        label = label_of[gid]
        if counts[label] == 1:
            names[gid] = label
        else:
            acq = sorted(
                (_display_name(nodes_by_key[k]) for k in keys if k in acq_flips)
            ) or sorted(_display_name(nodes_by_key[k]) for k in keys)
            names[gid] = f"{label}/{acq[0]}"
    return names


# -- the builder ---------------------------------------------------------------------------


def build_lock_order(target: LintTarget) -> tuple[LockOrderGraph, list[Diagnostic]]:
    """Derive the lock-order graph of one target plus the path-shaped
    FCSL051/052/053/057 diagnostics (cycle detection is separate — see
    :func:`cycle_diagnostics` — so the mutation hook exercises it)."""
    out: list[Diagnostic] = []
    states = _sample_states(target.states)
    facts: list[_ProgramFacts] = []
    complete = True
    for prog, name, __ in target.programs:
        col, __fps = _concolic_collect(
            lambda pool, prog=prog: collect_program(prog, probe_pool=pool),
            states,
        )
        if not col.complete:
            complete = False
            out.append(
                diag(
                    "FCSL057",
                    f"{name}: instance collection did not complete; lock-order "
                    "facts for this program are partial and cycle absence is "
                    "not established",
                    subject=target.program,
                    obj=name,
                )
            )
        if states:
            facts.append(_classify_program(col, states, name))

    # pooled identity: same action objects appear across a target's programs
    acq_flips: dict = {}
    rel_flips: dict = {}
    nodes_by_key: dict = {}
    for f in facts:
        for key, flips in f.acquires.items():
            acq_flips.setdefault(key, set()).update(flips)
            nodes_by_key[key] = f.collected.instances[key]
        for key, flips in f.releases.items():
            rel_flips.setdefault(key, set()).update(flips)
            nodes_by_key[key] = f.collected.instances[key]
    group_of, members = _lock_groups(acq_flips, rel_flips)
    names = _node_names(members, acq_flips, nodes_by_key)

    acquires_out: dict = {}
    releases_out: dict = {}
    for gid, keys in members.items():
        node = names[gid]
        acq = sorted({_display_name(nodes_by_key[k]) for k in keys if k in acq_flips})
        rel = sorted({_display_name(nodes_by_key[k]) for k in keys if k in rel_flips})
        if acq:
            acquires_out[node] = tuple(acq)
            releases_out[node] = tuple(rel)

    # groups that have a release anywhere in the target (FCSL051's gate)
    released_groups = {group_of[k] for k in rel_flips}

    edge_candidates: dict = {}
    for f in facts:
        seq = f.collected.seq_pairs
        prog_releases = sorted(f.releases, key=repr)

        def released_between(a, b, gid) -> bool:
            return any(
                group_of[r] == gid and (a, r) in seq and (r, b) in seq
                for r in prog_releases
            )

        for a, b in sorted(seq, key=repr):
            if a not in f.acquires or b not in f.acquires or a == b:
                continue
            ga, gb = group_of[a], group_of[b]
            if ga == gb:
                continue
            if released_between(a, b, ga):
                continue
            src, dst = names[ga], names[gb]
            via = (
                f.name,
                f"{_display_name(nodes_by_key[a])} then "
                f"{_display_name(nodes_by_key[b])}",
            )
            prev = edge_candidates.get((src, dst))
            if prev is None or via < prev:
                edge_candidates[(src, dst)] = via

        # FCSL051 / FCSL052 need the complete per-program picture
        if not f.collected.complete or f.collected.unresolved:
            continue
        for a in sorted(f.acquires, key=repr):
            ga = group_of[a]
            node = nodes_by_key[a]
            if ga in released_groups and not any(
                group_of[r] == ga and (a, r) in seq for r in prog_releases
            ):
                out.append(
                    diag(
                        "FCSL051",
                        f"{f.name}: {_display_name(node)!r} acquires lock "
                        f"{names[ga]!r} and no sequentially later action on "
                        "this path releases it",
                        subject=target.program,
                        obj=_display_name(node),
                        loc=loc_of(type(node.action).step),
                    )
                )
            if (a, a) in seq and not released_between(a, a, ga):
                out.append(
                    diag(
                        "FCSL052",
                        f"{f.name}: {_display_name(node)!r} re-acquires lock "
                        f"{names[ga]!r} it may already hold, with no release "
                        "in between — self-deadlock for a non-reentrant lock",
                        subject=target.program,
                        obj=_display_name(node),
                        loc=loc_of(type(node.action).step),
                    )
                )

    edges = tuple(
        LockEdge(src, dst, program, via)
        for (src, dst), (program, via) in sorted(edge_candidates.items())
    )
    graph = LockOrderGraph(
        target=target.program,
        acquires=acquires_out,
        releases=releases_out,
        edges=edges,
        complete=complete,
    )

    # FCSL053: parallel acquires of two locks with no nesting edge either way
    pairs = graph.edge_pairs()
    seen_unordered: set = set()
    for f in facts:
        for pair in sorted(f.collected.par_pairs, key=repr):
            keys = sorted(pair, key=repr)
            if len(keys) != 2:
                continue
            a, b = keys
            if a not in f.acquires or b not in f.acquires:
                continue
            ga, gb = group_of[a], group_of[b]
            if ga == gb:
                continue
            na, nb = sorted((names[ga], names[gb]))
            if (na, nb) in pairs or (nb, na) in pairs:
                continue
            if (na, nb) in seen_unordered:
                continue
            seen_unordered.add((na, nb))
            out.append(
                diag(
                    "FCSL053",
                    f"{f.name}: parallel branches acquire {na!r} and {nb!r} "
                    "with no nesting edge either way — deadlock-free, but no "
                    "ordering discipline is established",
                    subject=target.program,
                    obj=f"{na},{nb}",
                )
            )
    return graph, out


def cycle_diagnostics(graph: LockOrderGraph) -> list[Diagnostic]:
    """FCSL050 for every cycle of the (possibly mutated) graph."""
    out = []
    for cycle in graph.cycles():
        witnesses = sorted(
            (e for e in graph.edges if e.src in cycle and e.dst in cycle),
            key=lambda e: (e.src, e.dst),
        )
        shown = "; ".join(f"{e.src}->{e.dst} ({e.program})" for e in witnesses)
        out.append(
            diag(
                "FCSL050",
                f"lock-order cycle through {', '.join(cycle)}: {shown} — a "
                "schedule exists where each thread holds one lock of the "
                "cycle while acquiring the next",
                subject=graph.target,
                obj="->".join(cycle),
            )
        )
    return out


# -- FCSL054: non-progressing loops --------------------------------------------------------


def _knot_stalls(
    target: LintTarget, acts: Sequence[ActCall], states: Sequence[State]
) -> tuple[bool, list]:
    """Can this recursive knot's condition ever change once entered?

    Flags (returns ``True``) only when every action in the knot is
    observably pure and everything it reads — at every modelled state
    where it is enabled — is beyond the environment's reach *and* fully
    determines its behaviour.  Any unprobeable corner answers ``False``.
    """
    concs = _target_concurroids(target, (n.action for n in acts))
    if not concs or not states:
        return False, []
    cells_shown: list = []
    for node in acts:
        if _has_probe(node.args):
            return False, []
        fp, __ = action_footprint(node.action, node.args, states)
        if not fp.runs or not fp.pure:
            return False, []
        cells = sorted(fp.reads | fp.guard_reads, key=repr)
        if any(cell[0] == UNATTRIBUTED for cell in cells):
            return False, []
        live = [s for s in states if _safe(node.action, s, node.args)]
        if not live:
            return False, []
        for cell in cells:
            if any(_env_changes_cell(concs, s, cell) for s in live):
                return False, []
        # behaviour must be a function of (selfs, read cells): otherwise the
        # act reads protocol state (joint aux, other) the env *can* change
        groups: dict = {}
        for s in states:
            selfs = tuple(
                (repr(lbl), repr(s[lbl].self_))
                for lbl in sorted(s.labels(), key=repr)
            )
            vals = tuple(
                (repr(cell), repr(_cell_values(s, cell[0], cell[1])))
                for cell in cells
            )
            if _safe(node.action, s, node.args):
                try:
                    value, __post = node.action.step(s, *node.args)
                    obs = (True, repr(value))
                except Exception:  # noqa: BLE001 - unprobeable step
                    return False, []
            else:
                obs = (False, "")
            if groups.setdefault((selfs, vals), obs) != obs:
                return False, []
        cells_shown.extend(c for c in cells if c not in cells_shown)
    return True, cells_shown


def progress_rules(target: LintTarget) -> list[Diagnostic]:
    """FCSL054 over every program of the target: recursive knots that
    spin on environment-immutable cells."""
    out: list[Diagnostic] = []
    states = _sample_states(target.states)
    for prog, name, __ in target.programs:
        budget = [MAX_NODES]
        expanded: dict[tuple, tuple[dict, frozenset]] = {}
        stack: list[tuple] = []
        flagged: set[tuple] = set()

        def walk(node: Prog) -> tuple[dict, frozenset]:
            """(act nodes of the subtree by id, open recursive knots)."""
            if budget[0] <= 0:
                return {}, frozenset()
            budget[0] -= 1
            if isinstance(node, Ret):
                return {}, frozenset()
            if isinstance(node, ActCall):
                return {id(node): node}, frozenset()
            if isinstance(node, Bind):
                acts, rec = walk(node.first)
                for value in PROBE_VALUES:
                    result = try_kont(node.cont, value)
                    if isinstance(result, Prog):
                        a, r = walk(result)
                        acts.update(a)
                        rec = rec | r
                return acts, rec
            if isinstance(node, Par):
                la, lr = walk(node.left)
                ra, rr = walk(node.right)
                la.update(ra)
                return la, lr | rr
            if isinstance(node, HideProg):
                return walk(node.body)
            if isinstance(node, Call):
                try:
                    key = _call_key(node)
                except Exception:  # noqa: BLE001 - unkeyable call: silent
                    return {}, frozenset()
                if key in stack:
                    return {}, frozenset((key,))
                if key in expanded:
                    return expanded[key]
                try:
                    body = node.expand()
                except Exception:  # noqa: BLE001 - unexpandable: silent
                    return {}, frozenset()
                stack.append(key)
                try:
                    acts, rec = walk(body)
                finally:
                    stack.pop()
                if key in rec and acts and key not in flagged:
                    stalls, cells = _knot_stalls(
                        target, list(acts.values()), states
                    )
                    if stalls:
                        flagged.add(key)
                        label = getattr(node, "label", None) or "<call>"
                        shown = ", ".join(
                            f"{lbl}:{p!r}" for lbl, p in cells
                        ) or "nothing"
                        out.append(
                            diag(
                                "FCSL054",
                                f"{name}: recursive knot {label!r} spins on "
                                f"cells ({shown}) no environment transition "
                                "can change while it is enabled — entered "
                                "unsatisfied, it can never exit",
                                subject=target.program,
                                obj=label,
                                loc=loc_of(node.fn),
                            )
                        )
                result = (acts, rec - {key})
                expanded[key] = result
                return result
            return {}, frozenset()  # unknown node kind: silent

        walk(prog)
    return out


def lockorder_target(target: LintTarget) -> tuple[LockOrderGraph, list[Diagnostic]]:
    """The full static layer for one target: graph + FCSL050-054/057."""
    graph, diags = build_lock_order(target)
    diags = cycle_diagnostics(graph) + diags + progress_rules(target)
    return graph, diags
