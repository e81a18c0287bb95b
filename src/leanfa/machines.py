"""Strategy machines, pair simulation, complexity measures, time equivalences.

A machine is a deterministic Moore-style transducer: it outputs its own
action from its current state and transitions on the opponent's observed
action.  A pair of machines induces an ultimately periodic play, stored
canonically as a minimal preperiod plus a minimal cycle; every long-run
quantity (limit-of-means payoff, played states, time equivalences) is read
off that finite object.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .games import ParseError, PayoffProfile, PlayerId, StageGame, forcing_actions, opponent

Step = tuple[tuple[str, str], tuple[str, str]]  # ((q1, q2), (a1, a2))


@dataclass(frozen=True, eq=False)
class Machine:
    """A finite deterministic strategy machine for one player.

    `output` maps each state to an own action; `transition` maps each
    (state, opponent action) pair to a state, totally.  Equality and
    hashing ignore the name.  Both maps are read-only views of private
    copies, so the equality key built from them cannot go stale.
    """

    player: PlayerId
    states: tuple[str, ...]
    initial: str
    output: Mapping[str, str]
    transition: Mapping[tuple[str, str], str]
    name: str = "m"

    def __post_init__(self):
        object.__setattr__(self, "output", MappingProxyType(dict(self.output)))
        object.__setattr__(self, "transition", MappingProxyType(dict(self.transition)))
        if self.player not in (1, 2):
            raise ValueError(f"bad player {self.player!r}")
        if not self.states:
            raise ValueError("machine needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if self.initial not in self.states:
            raise ValueError(f"initial state {self.initial!r} not declared")
        if set(self.output) != set(self.states):
            raise ValueError("output map must be total over the states")
        inputs = sorted({a for (_, a) in self.transition})
        expected = {(q, a) for q in self.states for a in inputs}
        if set(self.transition) != expected or not inputs:
            holes = sorted(expected - set(self.transition))
            raise ValueError(f"transition map not total; missing {holes[:3]}")
        for (q, a), dst in self.transition.items():
            if dst not in self.states:
                raise ValueError(f"transition ({q},{a}) targets unknown state {dst!r}")
        object.__setattr__(self, "input_actions", tuple(inputs))
        key = (
            self.player,
            self.states,
            self.initial,
            tuple(self.output[q] for q in self.states),
            tuple(self.transition[(q, a)] for q in self.states for a in inputs),
        )
        object.__setattr__(self, "_key", key)

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuild from plain dicts
        return (
            Machine,
            (self.player, self.states, self.initial, dict(self.output),
             dict(self.transition), self.name),
        )

    def __eq__(self, other):
        return isinstance(other, Machine) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Machine({self.name!r}, player={self.player}, states={len(self.states)})"


def validate_machine(machine: Machine, game: StageGame) -> None:
    """Check a machine against a game's action sets."""
    own = set(game.actions(machine.player))
    opp = set(game.actions(opponent(machine.player)))
    bad_out = sorted(set(machine.output.values()) - own)
    if bad_out:
        raise ValueError(f"machine outputs {bad_out} not in player {machine.player}'s actions")
    if set(machine.input_actions) != opp:
        raise ValueError(
            f"machine reads actions {sorted(machine.input_actions)}, "
            f"opponent's actions are {sorted(opp)}"
        )


@dataclass(frozen=True)
class Play:
    """Ultimately periodic play of a machine pair: minimal preperiod + cycle.

    Position t (1-based) reads from the preperiod while t <= |preperiod|,
    then cyclically from the cycle.
    """

    preperiod: tuple[Step, ...]
    cycle: tuple[Step, ...]

    @property
    def horizon(self) -> int:
        return len(self.preperiod) + len(self.cycle)

    def step_at(self, t: int) -> Step:
        if t < 1:
            raise ValueError("time points are 1-based")
        p = len(self.preperiod)
        if t <= p:
            return self.preperiod[t - 1]
        return self.cycle[(t - p - 1) % len(self.cycle)]

    def state_at(self, t: int) -> tuple[str, str]:
        return self.step_at(t)[0]

    def action_at(self, t: int) -> tuple[str, str]:
        return self.step_at(t)[1]

    @property
    def cycle_actions(self) -> tuple[tuple[str, str], ...]:
        return tuple(a for _, a in self.cycle)

    @property
    def preperiod_actions(self) -> tuple[tuple[str, str], ...]:
        return tuple(a for _, a in self.preperiod)


def simulate(m1: Machine, m2: Machine) -> Play:
    """Run a machine pair to its ultimately periodic play.

    Cycle detection is by first repetition of a state pair; since a state
    pair determines the whole future, that repetition point yields the
    minimal preperiod and a minimal cycle of pairwise-distinct state pairs.
    """
    if m1.player != 1 or m2.player != 2:
        raise ValueError("simulate expects (player-1 machine, player-2 machine)")
    if not set(m2.output.values()) <= set(m1.input_actions) or not set(
        m1.output.values()
    ) <= set(m2.input_actions):
        raise ValueError("alphabet mismatch: machines built for different action sets")
    seen: dict[tuple[str, str], int] = {}
    steps: list[Step] = []
    q1, q2 = m1.initial, m2.initial
    while (q1, q2) not in seen:
        seen[(q1, q2)] = len(steps)
        a1, a2 = m1.output[q1], m2.output[q2]
        steps.append(((q1, q2), (a1, a2)))
        q1, q2 = m1.transition[(q1, a2)], m2.transition[(q2, a1)]
    start = seen[(q1, q2)]
    return Play(tuple(steps[:start]), tuple(steps[start:]))


def limit_mean_payoff(play: Play, game: StageGame) -> PayoffProfile:
    """Limit-of-means payoff profile; the preperiod vanishes in the limit."""
    n = len(play.cycle)
    p1 = sum((game.u(1, *a) for _, a in play.cycle), Fraction(0)) / n
    p2 = sum((game.u(2, *a) for _, a in play.cycle), Fraction(0)) / n
    return PayoffProfile(p1, p2)


def finite_mean_payoff(play: Play, game: StageGame, horizon: int) -> PayoffProfile:
    """Exact average payoff over the first `horizon` steps."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    total1 = Fraction(0)
    total2 = Fraction(0)
    pre = len(play.preperiod)
    cyc = len(play.cycle)
    upto_pre = min(horizon, pre)
    for _, a in play.preperiod[:upto_pre]:
        total1 += game.u(1, *a)
        total2 += game.u(2, *a)
    remaining = horizon - upto_pre
    if remaining:
        cyc_sum1 = sum((game.u(1, *a) for _, a in play.cycle), Fraction(0))
        cyc_sum2 = sum((game.u(2, *a) for _, a in play.cycle), Fraction(0))
        full, part = divmod(remaining, cyc)
        total1 += full * cyc_sum1
        total2 += full * cyc_sum2
        for _, a in play.cycle[:part]:
            total1 += game.u(1, *a)
            total2 += game.u(2, *a)
    return PayoffProfile(total1 / horizon, total2 / horizon)


@dataclass(frozen=True)
class ComplexityReport:
    """State counts of one machine: threat states versus normal states.

    A threat state self-loops on every input and its output holds the
    opponent to minmax; `normal_transitions` counts transitions that stay
    within the normal states.  Unreachable states count like any others.
    """

    total_states: int
    threat_states: frozenset[str]
    normal_states: frozenset[str]
    normal_transitions: int


@lru_cache(maxsize=None)
def classify_states(machine: Machine, game: StageGame) -> ComplexityReport:
    force = set(forcing_actions(game, machine.player))
    inputs = game.actions(opponent(machine.player))
    threat = frozenset(
        q
        for q in machine.states
        if machine.output[q] in force
        and all(machine.transition[(q, a)] == q for a in inputs)
    )
    normal = frozenset(q for q in machine.states if q not in threat)
    count = sum(
        1
        for q in normal
        for a in inputs
        if machine.transition[(q, a)] in normal
    )
    return ComplexityReport(len(machine.states), threat, normal, count)


def played_states(play: Play, player: PlayerId) -> frozenset[str]:
    idx = player - 1
    return frozenset(q[idx] for q, _ in play.preperiod) | frozenset(
        q[idx] for q, _ in play.cycle
    )


class Relation(enum.Enum):
    """Which time-point equivalence to compute."""

    SUFFIX = "suffix"        # equal action suffixes
    STATE_PAIR = "state-pair"  # equal state pairs
    STATE_1 = "state-1"      # equal player-1 states
    STATE_2 = "state-2"      # equal player-2 states


@dataclass(frozen=True)
class EquivalenceClasses:
    """A partition of the time points 1..horizon, with a cyclic extension.

    A time point beyond the horizon belongs to the class of its
    cycle-reduced representative.
    """

    relation: Relation
    preperiod_len: int
    cycle_len: int
    classes: tuple[tuple[int, ...], ...]

    @property
    def horizon(self) -> int:
        return self.preperiod_len + self.cycle_len

    def reduce(self, t: int) -> int:
        if t < 1:
            raise ValueError("time points are 1-based")
        if t <= self.horizon:
            return t
        return self.preperiod_len + 1 + (t - self.preperiod_len - 1) % self.cycle_len

    def class_of(self, t: int) -> tuple[int, ...]:
        t = self.reduce(t)
        for cls in self.classes:
            if t in cls:
                return cls
        raise AssertionError("unpartitioned time point")

    def as_partition(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(c) for c in self.classes)

    def same_partition(self, other: "EquivalenceClasses") -> bool:
        return self.as_partition() == other.as_partition()

    def refines(self, other: "EquivalenceClasses") -> bool:
        """Every class of self lies inside a class of other."""
        coarse = {t: i for i, cls in enumerate(other.classes) for t in cls}
        return all(len({coarse[t] for t in cls}) == 1 for cls in self.classes)


def _group_by_key(keys: dict[int, object]) -> tuple[tuple[int, ...], ...]:
    groups: dict[object, list[int]] = {}
    for t in sorted(keys):
        groups.setdefault(keys[t], []).append(t)
    return tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))


def suffix_partition(
    pre_actions: tuple[tuple[str, str], ...], cyc_actions: tuple[tuple[str, str], ...]
) -> tuple[tuple[int, ...], ...]:
    """Partition times 1..H by equality of their infinite action suffixes.

    Comparing windows of length H = |preperiod| + |cycle| suffices: past the
    preperiod both suffixes are periodic, and agreement over a full period
    there implies agreement forever.
    """
    horizon = len(pre_actions) + len(cyc_actions)
    pre = len(pre_actions)
    cyc = len(cyc_actions)

    def action_at(t: int) -> tuple[str, str]:
        if t <= pre:
            return pre_actions[t - 1]
        return cyc_actions[(t - pre - 1) % cyc]

    keys = {
        t: tuple(action_at(t + n) for n in range(horizon)) for t in range(1, horizon + 1)
    }
    return _group_by_key(keys)


def equivalence_relation(play: Play, which: Relation) -> EquivalenceClasses:
    pre, cyc = len(play.preperiod), len(play.cycle)
    if which is Relation.SUFFIX:
        classes = suffix_partition(play.preperiod_actions, play.cycle_actions)
    else:
        if which is Relation.STATE_PAIR:
            key = lambda t: play.state_at(t)
        elif which is Relation.STATE_1:
            key = lambda t: play.state_at(t)[0]
        else:
            key = lambda t: play.state_at(t)[1]
        classes = _group_by_key({t: key(t) for t in range(1, pre + cyc + 1)})
    return EquivalenceClasses(which, pre, cyc, classes)


def reachable_states(machine: Machine, inputs: tuple[str, ...] | None = None) -> tuple[str, ...]:
    """States reachable from the initial state, in first-visit order."""
    if inputs is None:
        inputs = machine.input_actions
    order = [machine.initial]
    seen = {machine.initial}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for a in inputs:
            dst = machine.transition[(q, a)]
            if dst not in seen:
                seen.add(dst)
                order.append(dst)
    return tuple(order)


def canonical_form(machine: Machine, game: StageGame) -> Machine:
    """Prune unreachable states and relabel by first-visit order.

    Two machines are isomorphic on their reachable parts exactly when their
    canonical forms are equal.  Input order is the game's declared order for
    the opponent's actions.
    """
    inputs = game.actions(opponent(machine.player))
    order = reachable_states(machine, inputs)
    rename = {q: str(i) for i, q in enumerate(order)}
    output = {rename[q]: machine.output[q] for q in order}
    transition = {
        (rename[q], a): rename[machine.transition[(q, a)]] for q in order for a in inputs
    }
    return Machine(
        machine.player,
        tuple(rename[q] for q in order),
        "0",
        output,
        transition,
        name=machine.name,
    )


_TRANSITION_RE = re.compile(r"^(\S+)\s*--(\S+)-->\s*(\S+)$")
_MACHINE_RE = re.compile(r"^machine\s+(\S+)\s+player=([12])$")


def parse_machine(text: str) -> Machine:
    """Parse the line-oriented machine text format.

    machine <name> player=<1|2>
    start <state>
    state <state> out=<action>
    <state> --<opponent-action>--> <state>
    """
    name = None
    player = None
    start = None
    states: list[str] = []
    output: dict[str, str] = {}
    transitions: dict[tuple[str, str], str] = {}
    transition_lines: dict[tuple[str, str], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("machine"):
            m = _MACHINE_RE.match(line)
            if not m:
                raise ParseError("expected: machine <name> player=<1|2>", lineno)
            if name is not None:
                raise ParseError("duplicate machine line", lineno)
            name, player = m.group(1), int(m.group(2))
        elif line.startswith("start"):
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError("expected: start <state>", lineno)
            if start is not None:
                raise ParseError("duplicate start line", lineno)
            start = tokens[1]
        elif line.startswith("state"):
            tokens = line.split()
            if len(tokens) != 3 or not tokens[2].startswith("out="):
                raise ParseError("expected: state <state> out=<action>", lineno)
            q = tokens[1]
            if q in output:
                raise ParseError(f"duplicate state {q!r}", lineno)
            states.append(q)
            output[q] = tokens[2][len("out="):]
        else:
            m = _TRANSITION_RE.match(line)
            if not m:
                raise ParseError(f"unrecognized line {line!r}", lineno)
            src, action, dst = m.groups()
            if (src, action) in transitions:
                raise ParseError(
                    f"duplicate transition for ({src},{action}), "
                    f"first given on line {transition_lines[(src, action)]}",
                    lineno,
                )
            transitions[(src, action)] = dst
            transition_lines[(src, action)] = lineno
    if name is None or player is None:
        raise ParseError("missing machine line")
    if start is None:
        raise ParseError("missing start line")
    if not states:
        raise ParseError("machine declares no states")
    inputs = sorted({a for (_, a) in transitions})
    for q in states:
        for a in inputs:
            if (q, a) not in transitions:
                raise ParseError(f"missing transition for state {q!r} on action {a!r}")
    for (src, action), dst in transitions.items():
        ln = transition_lines[(src, action)]
        if src not in output:
            raise ParseError(f"transition from undeclared state {src!r}", ln)
        if dst not in output:
            raise ParseError(f"transition to undeclared state {dst!r}", ln)
    try:
        return Machine(player, tuple(states), start, output, transitions, name=name)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def machine_to_text(machine: Machine) -> str:
    lines = [f"machine {machine.name} player={machine.player}"]
    lines.append(f"start {machine.initial}")
    for q in machine.states:
        lines.append(f"state {q} out={machine.output[q]}")
    for q in machine.states:
        for a in machine.input_actions:
            lines.append(f"{q} --{a}--> {machine.transition[(q, a)]}")
    return "\n".join(lines) + "\n"


def machine_to_dot(machine: Machine, game: StageGame) -> str:
    """Deterministic DOT export: threat states double-circled, start marked."""
    validate_machine(machine, game)
    report = classify_states(machine, game)
    inputs = game.actions(opponent(machine.player))

    def quote(s: str) -> str:
        return '"' + s.replace('"', '\\"') + '"'

    lines = [f"digraph {quote(machine.name)} {{", "  rankdir=LR;"]
    lines.append("  __start [shape=point];")
    for q in machine.states:
        shape = "doublecircle" if q in report.threat_states else "circle"
        lines.append(
            f"  {quote(q)} [label={quote(q + '/' + machine.output[q])} shape={shape}];"
        )
    lines.append(f"  __start -> {quote(machine.initial)};")
    for q in machine.states:
        for a in inputs:
            dst = machine.transition[(q, a)]
            lines.append(f"  {quote(q)} -> {quote(dst)} [label={quote(a)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def grim_trigger(player: PlayerId) -> Machine:
    """The two-state cooperate-until-crossed machine for the PD action names."""
    states = ("g0", "g1")
    output = {"g0": "C", "g1": "D"}
    transition = {
        ("g0", "C"): "g0",
        ("g0", "D"): "g1",
        ("g1", "C"): "g1",
        ("g1", "D"): "g1",
    }
    return Machine(player, states, "g0", output, transition, name="grim")


def constant_machine(player: PlayerId, action: str, inputs: tuple[str, ...]) -> Machine:
    """One-state machine that always plays `action`."""
    transition = {("q0", a): "q0" for a in inputs}
    return Machine(player, ("q0",), "q0", {"q0": action}, transition, name=f"always-{action}")
