"""Structural validators for machine pairs and observer inference.

Pairs at lean equilibrium under the normal-state or normal-transition
measures are highly constrained: the first state either player ever reuses
must recur forever, both machines play exactly as many states as their
measure, the four time equivalences collapse into one, every reachable
normal state has a unique normal successor, and the machines' played parts
can be reconstructed from the action sequence alone.  The validators here
check those conclusions on a raw pair and report the hypothesis status
alongside, so a violation doubles as a refutation of leanness.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .games import PlayerId, StageGame, is_strictly_enforceable, opponent
from .machines import (
    EquivalenceClasses,
    Machine,
    Play,
    Relation,
    classify_states,
    equivalence_relation,
    limit_mean_payoff,
    _first_visits,
    played_states,
    simulate,
)


@dataclass(frozen=True)
class FirstReuseReport:
    """Whether the first reused state recurs infinitely often for both players."""

    ok: bool
    first_reuse_time: int
    recurrent: tuple[bool, bool]
    strictly_enforceable: bool
    note: str


def check_first_reuse(m1: Machine, m2: Machine, game: StageGame) -> FirstReuseReport:
    play = simulate(m1, m2)
    enforceable = is_strictly_enforceable(game, limit_mean_payoff(play, game))
    pre, steps = len(play.preperiod), play.preperiod + play.cycle
    # each player's states, mapped to the last time 1..horizon they are played
    last = [{q[i]: t for t, (q, _) in enumerate(steps, 1)} for i in (0, 1)]
    # a cycle state recurs forever; a preperiod state is reused when it is
    # played again later
    reuse_time = next(
        t
        for t, (q, _) in enumerate(steps, 1)
        if t > pre or last[0][q[0]] > t or last[1][q[1]] > t
    )
    q = play.state_at(reuse_time)
    recurrent = (last[0][q[0]] > pre, last[1][q[1]] > pre)
    ok = all(recurrent)
    note = (
        "first reused state recurs forever for both players"
        if ok
        else "structure violated: a transient state is reused, so the pair is not lean "
        "under the normal-state or normal-transition measures (given a strictly "
        "enforceable profile)"
    )
    return FirstReuseReport(ok, reuse_time, recurrent, enforceable, note)


@dataclass(frozen=True)
class CountingReport:
    """Measure values versus played-state counts for both machines."""

    ok: bool
    measure_values: tuple[int, int]
    played_counts: tuple[int, int]
    strictly_enforceable: bool


def check_counting(
    m1: Machine, m2: Machine, game: StageGame, use_transitions: bool
) -> CountingReport:
    """Both machines' measure (normal states, or normal transitions when
    `use_transitions`) must equal both played-state counts."""
    play = simulate(m1, m2)
    enforceable = is_strictly_enforceable(game, limit_mean_payoff(play, game))
    values = []
    for m in (m1, m2):
        report = classify_states(m, game)
        values.append(report.normal_transitions if use_transitions else len(report.normal_states))
    played = [len(played_states(play, i)) for i in (1, 2)]
    numbers = values + played
    return CountingReport(
        len(set(numbers)) == 1, tuple(values), tuple(played), enforceable
    )


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    partitions: Mapping[Relation, EquivalenceClasses]
    strictly_enforceable: bool
    # per player: if the own-state relation sits inside the suffix relation,
    # the two must coincide
    contained_equal: tuple[bool, bool]


def check_relation_equalities(m1: Machine, m2: Machine, game: StageGame) -> RelationReport:
    play = simulate(m1, m2)
    enforceable = is_strictly_enforceable(game, limit_mean_payoff(play, game))
    parts = {rel: equivalence_relation(play, rel) for rel in Relation}
    suffix = parts[Relation.SUFFIX]
    ok = all(parts[rel].same_partition(suffix) for rel in Relation)
    contained_equal = tuple(
        (not parts[rel].refines(suffix)) or parts[rel].same_partition(suffix)
        for rel in (Relation.STATE_1, Relation.STATE_2)
    )
    return RelationReport(ok, MappingProxyType(parts), enforceable, contained_equal)


@dataclass(frozen=True)
class ChainDecomposition:
    """Unique-normal-successor structure of one machine.

    Defined when every reachable normal state has exactly one transition to
    a normal state; walking that successor map from the initial state splits
    the reachable normal states into a transient tail and a recurrent head.
    """

    successor: Mapping[str, str]
    tail: tuple[str, ...]
    head: tuple[str, ...]


def chain_decompose(machine: Machine, game: StageGame) -> ChainDecomposition | None:
    report = classify_states(machine, game)
    if machine.initial not in report.normal_states:
        return None
    states, nxt, d = machine.states, machine._nxt, len(machine.input_actions)
    normal = [q in report.normal_states for q in states]
    slots, via = _first_visits(machine, game)
    successor = {}
    for q in via:
        if not normal[q]:
            continue
        targets = [nxt[q * d + k] for k in slots if normal[nxt[q * d + k]]]
        if len(targets) != 1:
            return None
        successor[states[q]] = states[targets[0]]
    walk = [machine.initial]
    seen = {machine.initial: 0}
    while True:
        nxt = successor[walk[-1]]
        if nxt in seen:
            cut = seen[nxt]
            return ChainDecomposition(
                MappingProxyType(successor), tuple(walk[:cut]), tuple(walk[cut:])
            )
        seen[nxt] = len(walk)
        walk.append(nxt)


@dataclass(frozen=True)
class InferredSkeleton:
    """Machine structure reconstructed from the action sequence alone.

    One abstract state per suffix class; outputs and transitions read off
    the class's own action and the class of the following time point.
    """

    player: PlayerId
    states: tuple[str, ...]
    initial: str
    output: Mapping[str, str]
    transition: Mapping[tuple[str, str], str]


@dataclass(frozen=True)
class InferenceReport:
    skeletons: tuple[InferredSkeleton, InferredSkeleton]
    isomorphic: tuple[bool, bool]
    notes: tuple[str, str]


def _skeleton(play: Play, suffix: EquivalenceClasses, player: PlayerId) -> InferredSkeleton:
    own, seen = player - 1, opponent(player) - 1
    names: list[str] = []  # by class label: "c" and the class's first time point
    output: dict[str, str] = {}
    moves: dict[tuple[int, str], int] = {}  # (label, observed action) to next label
    for t in range(1, suffix.horizon + 1):
        label, action = suffix.at(t), play.action_at(t)
        if label == len(names):
            names.append(f"c{t}")
            output[names[label]] = action[own]
        elif output[names[label]] != action[own]:
            raise AssertionError("suffix class members disagree on the current action")
        nxt = suffix.at(t + 1)
        if moves.setdefault((label, action[seen]), nxt) != nxt:
            raise AssertionError("suffix class members disagree on the next class")
    transition = {(names[label], observed): names[nxt] for (label, observed), nxt in moves.items()}
    return InferredSkeleton(
        player, tuple(names), names[0], MappingProxyType(output), MappingProxyType(transition)
    )


def infer_machines(m1: Machine, m2: Machine, game: StageGame) -> InferenceReport:
    """Rebuild both machines' played parts from the action sequence alone.

    A skeleton is isomorphic to its machine's played part (played states
    with outputs, plus transitions on the inputs actually observed; off-play
    transitions are not the observer's to know) exactly when the suffix
    classes and the player's states at times 1..horizon partition the time
    points alike.  That bijection is all there is to check: the state at t
    fixes the output at t, with the observed action it fixes the state at
    t + 1, and time 1 holds the initial state.

    The reconstruction is faithful for pairs that are lean under the
    normal-transition measure with a strictly enforceable profile; on other
    pairs the isomorphism check may fail, which is itself evidence against
    leanness.
    """
    play = simulate(m1, m2)
    suffix = equivalence_relation(play, Relation.SUFFIX)
    skeletons = tuple(_skeleton(play, suffix, player) for player in (1, 2))
    matches = tuple(
        equivalence_relation(play, rel).same_partition(suffix)
        for rel in (Relation.STATE_1, Relation.STATE_2)
    )
    notes = tuple(
        "skeleton is isomorphic to the played substructure"
        if ok
        else "suffix classes and played states are not in bijection"
        for ok in matches
    )
    return InferenceReport(skeletons, matches, notes)


@dataclass(frozen=True)
class StructureAudit:
    first_reuse_ok: bool
    counting_states_ok: bool
    counting_transitions_ok: bool
    relations_ok: bool
    chains: tuple[ChainDecomposition | None, ChainDecomposition | None]
    inference_ok: tuple[bool, bool]

    @property
    def chains_ok(self) -> tuple[bool, bool]:
        return tuple(chain is not None for chain in self.chains)


def audit_pair(m1: Machine, m2: Machine, game: StageGame) -> StructureAudit:
    """Run every structural validator on a pair; one record per pair."""
    return StructureAudit(
        check_first_reuse(m1, m2, game).ok,
        check_counting(m1, m2, game, use_transitions=False).ok,
        check_counting(m1, m2, game, use_transitions=True).ok,
        check_relation_equalities(m1, m2, game).ok,
        (chain_decompose(m1, game), chain_decompose(m2, game)),
        infer_machines(m1, m2, game).isomorphic,
    )
