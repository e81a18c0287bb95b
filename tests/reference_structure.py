"""Reference structure code: what `leanfa.structure` and the time-point
partitions did before they changed.

`skeleton_matches` is the skeleton-to-machine isomorphism that
`infer_machines` decided before it compared the suffix and state
partitions: it maps each suffix class to the one machine state played at
its time points, checks that the map is injective, and then checks the
initial state, every output and every observed transition by hand.

`GroupedClasses` is the partition as grouped tuples of time points, whose
`class_of` scans every class; `relations` builds all four of a play's.
`check_first_reuse` is the backward scan over the preperiod, and
`build_skeleton` the per-class loop that reads each class's next class
through `class_of`.  `tests/test_structure_differential.py` compares the
library with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from reference_certificates import _group_by_key, suffix_partition

from leanfa.games import PlayerId, StageGame, is_strictly_enforceable, opponent
from leanfa.machines import EquivalenceClasses, Machine, Play, Relation, limit_mean_payoff, simulate
from leanfa.structure import FirstReuseReport, InferredSkeleton


def skeleton_matches(
    skeleton: InferredSkeleton, machine: Machine, play: Play, suffix: EquivalenceClasses
) -> tuple[bool, str]:
    """Isomorphism between the skeleton and the machine's played substructure.

    Played substructure means played states with outputs, plus transitions on
    the inputs actually observed in the play; off-play transitions are not
    the observer's to know.
    """
    player = skeleton.player
    mapping: dict[str, str] = {}
    for cls in suffix.classes:
        name = f"c{cls[0]}"
        actual = {play.state_at(t)[player - 1] for t in cls}
        if len(actual) != 1:
            return False, f"class {name} is played by several machine states {sorted(actual)}"
        state = actual.pop()
        mapping[name] = state
    if len(set(mapping.values())) != len(mapping):
        return False, "two classes map to the same machine state"
    if mapping[skeleton.initial] != machine.initial:
        return False, "initial states do not correspond"
    for name, state in mapping.items():
        if machine.output[state] != skeleton.output[name]:
            return False, f"output mismatch at {name}"
    for (name, observed), nxt in skeleton.transition.items():
        if machine.transition[(mapping[name], observed)] != mapping[nxt]:
            return False, f"transition mismatch at ({name},{observed})"
    return True, "skeleton is isomorphic to the played substructure"


@dataclass(frozen=True)
class GroupedClasses:
    """A partition of the time points 1..horizon as grouped tuples, with a
    cyclic extension."""

    preperiod_len: int
    cycle_len: int
    classes: tuple[tuple[int, ...], ...]

    def reduce(self, t: int) -> int:
        if t <= self.preperiod_len + self.cycle_len:
            return t
        return self.preperiod_len + 1 + (t - self.preperiod_len - 1) % self.cycle_len

    def class_of(self, t: int) -> tuple[int, ...]:
        t = self.reduce(t)
        for cls in self.classes:
            if t in cls:
                return cls
        raise AssertionError("unpartitioned time point")

    def same_partition(self, other: "GroupedClasses") -> bool:
        return {frozenset(c) for c in self.classes} == {frozenset(c) for c in other.classes}

    def refines(self, other: "GroupedClasses") -> bool:
        coarse = {t: i for i, cls in enumerate(other.classes) for t in cls}
        return all(len({coarse[t] for t in cls}) == 1 for cls in self.classes)


def relations(play: Play) -> dict[Relation, GroupedClasses]:
    pre, cyc = len(play.preperiod), len(play.cycle)
    times = range(1, pre + cyc + 1)
    keys = {
        Relation.STATE_PAIR: lambda t: play.state_at(t),
        Relation.STATE_1: lambda t: play.state_at(t)[0],
        Relation.STATE_2: lambda t: play.state_at(t)[1],
    }
    parts = {rel: _group_by_key({t: key(t) for t in times}) for rel, key in keys.items()}
    parts[Relation.SUFFIX] = suffix_partition(play)
    return {rel: GroupedClasses(pre, cyc, classes) for rel, classes in parts.items()}


def check_first_reuse(m1: Machine, m2: Machine, game: StageGame) -> FirstReuseReport:
    play = simulate(m1, m2)
    enforceable = is_strictly_enforceable(game, limit_mean_payoff(play, game))
    cycle_states = [{q[i] for q, _ in play.cycle} for i in (0, 1)]
    later: list[set[str]] = [set(cycle_states[0]), set(cycle_states[1])]
    # states seen strictly after time t, walking backwards over the preperiod
    reuse_time = None
    for t in range(play.horizon, 0, -1):
        q = play.state_at(t)
        if q[0] in later[0] or q[1] in later[1]:
            reuse_time = t
        later[0].add(q[0])
        later[1].add(q[1])
    q = play.state_at(reuse_time)
    recurrent = (q[0] in cycle_states[0], q[1] in cycle_states[1])
    ok = all(recurrent)
    note = (
        "first reused state recurs forever for both players"
        if ok
        else "structure violated: a transient state is reused, so the pair is not lean "
        "under the normal-state or normal-transition measures (given a strictly "
        "enforceable profile)"
    )
    return FirstReuseReport(ok, reuse_time, recurrent, enforceable, note)


def build_skeleton(play: Play, suffix: GroupedClasses, player: PlayerId) -> InferredSkeleton:
    j = opponent(player)
    names = {cls: f"c{cls[0]}" for cls in suffix.classes}
    output: dict[str, str] = {}
    transition: dict[tuple[str, str], str] = {}
    for cls in suffix.classes:
        name = names[cls]
        outs = {play.action_at(t)[player - 1] for t in cls}
        if len(outs) != 1:
            raise AssertionError("suffix class members disagree on the current action")
        output[name] = outs.pop()
        moves = {}
        for t in cls:
            observed = play.action_at(t)[j - 1]
            nxt = names[suffix.class_of(t + 1)]
            if moves.setdefault(observed, nxt) != nxt:
                raise AssertionError("suffix class members disagree on the next class")
        for observed, nxt in moves.items():
            transition[(name, observed)] = nxt
    return InferredSkeleton(
        player,
        tuple(names[cls] for cls in suffix.classes),
        names[suffix.class_of(1)],
        MappingProxyType(output),
        MappingProxyType(transition),
    )
