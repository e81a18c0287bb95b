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
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .games import ParseError, PayoffProfile, PlayerId, StageGame, forcing_actions, opponent

Step = tuple[tuple[str, str], tuple[str, str]]  # ((q1, q2), (a1, a2))


class Machine:
    """A finite deterministic strategy machine for one player, held as one
    integer table.

    States are indexed by their position in `states`: `_start` is the
    initial state's index, `_outs[q]` is state q's output action and
    `_nxt[q * d + k]` the index of the state that q moves to on the k-th of
    the d `input_actions`, which are sorted by name.  `output` (state to
    action) and `transition` ((state, opponent action) to state) are
    read-only name-keyed views of the table, built the first time something
    reads them.

    `Machine(player, states, initial, output, transition, name)` builds and
    validates the table from name-keyed maps; `Machine._of_table` takes a
    table its caller guarantees valid.  Either way `__post_init__` sets the
    fields.  Equality and hashing ignore the name but not the input
    actions, so a game's memo keyed by machine never answers for a machine
    of another game.  A machine is immutable, so neither can go stale.
    """

    def __init__(
        self,
        player: PlayerId,
        states: tuple[str, ...],
        initial: str,
        output: Mapping[str, str],
        transition: Mapping[tuple[str, str], str],
        name: str = "m",
    ):
        states = tuple(states)
        if player not in (1, 2):
            raise ValueError(f"bad player {player!r}")
        if not states:
            raise ValueError("machine needs at least one state")
        index = {q: i for i, q in enumerate(states)}
        if len(index) != len(states):
            raise ValueError("duplicate state names")
        if initial not in index:
            raise ValueError(f"initial state {initial!r} not declared")
        if len(output) != len(index) or not all(q in output for q in index):
            raise ValueError("output map must be total over the states")
        if not transition:
            raise ValueError("machine reads no actions: its transition map is empty")
        inputs = tuple(sorted({a for (_, a) in transition}))
        try:
            nxt = tuple(index[transition[(q, a)]] for q in states for a in inputs)
        except KeyError:
            nxt = ()
        if len(nxt) != len(transition):  # find the first fault to report
            for q, a in transition:
                if q not in index:
                    raise ValueError(f"transition ({q},{a}) leaves undeclared state {q!r}")
            holes = sorted({(q, a) for q in states for a in inputs} - set(transition))
            if holes:
                raise ValueError(f"transition map not total; missing {holes[:3]}")
            (q, a), dst = next(item for item in transition.items() if item[1] not in index)
            raise ValueError(f"transition ({q},{a}) targets unknown state {dst!r}")
        outs = tuple(output[q] for q in states)
        self.__post_init__(player, states, index[initial], outs, inputs, nxt, name)

    @classmethod
    def _of_table(cls, player, states, start, outs, inputs, nxt, name="m") -> "Machine":
        machine = cls.__new__(cls)
        machine.__post_init__(player, states, start, outs, inputs, nxt, name)
        return machine

    def __post_init__(self, player, states, start, outs, inputs, nxt, name):
        key = (player, states, states[start], outs, inputs, tuple(map(states.__getitem__, nxt)))
        self.__dict__.update(
            player=player, states=states, _start=start, _outs=outs, input_actions=inputs,
            _nxt=nxt, name=name, _key=key, _hash=hash(key),
        )

    @property
    def initial(self) -> str:
        return self.states[self._start]

    @cached_property
    def output(self) -> Mapping[str, str]:
        return MappingProxyType(dict(zip(self.states, self._outs)))

    @cached_property
    def transition(self) -> Mapping[tuple[str, str], str]:
        states, inputs, nxt = self.states, self.input_actions, iter(self._nxt)
        return MappingProxyType({(q, a): states[next(nxt)] for q in states for a in inputs})

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot change {name!r}: a Machine is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        table = (self._start, self._outs, self.input_actions, self._nxt)
        return Machine._of_table, (self.player, self.states, *table, self.name)

    def __eq__(self, other):
        return isinstance(other, Machine) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Machine({self.name!r}, player={self.player}, states={len(self.states)})"


def validate_machine(machine: Machine, game: StageGame) -> None:
    """Check a machine against a game's action sets."""
    own = set(game.actions(machine.player))
    opp = set(game.actions(opponent(machine.player)))
    bad_out = sorted(set(machine._outs) - own)
    if bad_out:
        raise ValueError(f"machine outputs {bad_out} not in player {machine.player}'s actions")
    if set(machine.input_actions) != opp:
        raise ValueError(
            f"machine reads actions {sorted(machine.input_actions)}, "
            f"opponent's actions are {sorted(opp)}"
        )


class PeriodicWord:
    """An ultimately periodic word: `preperiod` once, then `cycle` forever.

    Subclasses supply the two tuples.  Position t (1-based) reads from the
    preperiod while t <= |preperiod|, then cyclically from the cycle.
    `action_at` reads the action pair at a position; a word of action pairs
    is its own action word.  `unrolled(n)` lists the action pairs at
    positions 1..n, so a scan can slice windows out of one list.
    """

    preperiod: tuple
    cycle: tuple

    @property
    def horizon(self) -> int:
        return len(self.preperiod) + len(self.cycle)

    def at(self, t: int):
        if t < 1:
            raise ValueError("time points are 1-based")
        p = len(self.preperiod)
        if t <= p:
            return self.preperiod[t - 1]
        return self.cycle[(t - p - 1) % len(self.cycle)]

    def action_at(self, t: int) -> tuple[str, str]:
        return self.at(t)

    def unrolled(self, n: int) -> list[tuple[str, str]]:
        return [self.action_at(t) for t in range(1, n + 1)]


@dataclass(frozen=True)
class Play(PeriodicWord):
    """Ultimately periodic play of a machine pair: minimal preperiod + cycle."""

    preperiod: tuple[Step, ...]
    cycle: tuple[Step, ...]

    def state_at(self, t: int) -> tuple[str, str]:
        return self.at(t)[0]

    def action_at(self, t: int) -> tuple[str, str]:
        return self.at(t)[1]

    @property
    def cycle_actions(self) -> tuple[tuple[str, str], ...]:
        return tuple(a for _, a in self.cycle)


def _walk(m1: Machine, m2: Machine) -> tuple[list[int], int]:
    """A machine pair's run on the integer tables, up to its first repeat.

    Returns the state-pair codes `q1 * n2 + q2` of the distinct steps, in
    order, and the step at which the cycle starts.  Each machine's outputs
    are first translated to indices of the other's inputs, which is also
    the alphabet check.
    """
    if m1.player != 1 or m2.player != 2:
        raise ValueError("simulate expects (player-1 machine, player-2 machine)")
    try:
        reads1 = list(map(m1.input_actions.index, m2._outs))
        reads2 = list(map(m2.input_actions.index, m1._outs))
    except ValueError:
        raise ValueError("alphabet mismatch: machines built for different action sets") from None
    n2 = len(m2.states)
    d1, d2 = len(m1.input_actions), len(m2.input_actions)
    nxt1, nxt2 = m1._nxt, m2._nxt
    # a set of the codes seen so far, not a table of all n1 * n2 codes:
    # the walk is usually far shorter than that
    seen: set[int] = set()
    codes: list[int] = []
    q1, q2 = m1._start, m2._start
    code = q1 * n2 + q2
    while code not in seen:
        seen.add(code)
        codes.append(code)
        q1, q2 = nxt1[q1 * d1 + reads1[q2]], nxt2[q2 * d2 + reads2[q1]]
        code = q1 * n2 + q2
    return codes, codes.index(code)


def simulate(m1: Machine, m2: Machine) -> Play:
    """Run a machine pair to its ultimately periodic play.

    Cycle detection is by first repetition of a state pair; since a state
    pair determines the whole future, that repetition point yields the
    minimal preperiod and a minimal cycle of pairwise-distinct state pairs.
    """
    codes, start = _walk(m1, m2)
    n2 = len(m2.states)
    states1, states2, outs1, outs2 = m1.states, m2.states, m1._outs, m2._outs
    steps: list[Step] = []
    for code in codes:
        q1, q2 = divmod(code, n2)
        steps.append(((states1[q1], states2[q2]), (outs1[q1], outs2[q2])))
    return Play(tuple(steps[:start]), tuple(steps[start:]))


def cycle_totals(m1: Machine, m2: Machine, game: StageGame) -> tuple[int, int, int]:
    """Both players' payoff totals over the pair's cycle, times `game.scale`,
    and the cycle's length: the limit-of-means payoff without a `Fraction`.

    This is the Nash screen's inner loop, so it sums the game's `scaled`
    table directly rather than through `payoff_totals`' running totals.
    """
    codes, start = _walk(m1, m2)
    n2 = len(m2.states)
    outs1, outs2 = m1._outs, m2._outs
    scaled = game.scaled
    t1 = t2 = 0
    for code in codes[start:]:
        x1, x2 = scaled[outs1[code // n2], outs2[code % n2]]
        t1 += x1
        t2 += x2
    return t1, t2, len(codes) - start


def limit_mean_payoff(play: Play, game: StageGame) -> PayoffProfile:
    """Limit-of-means payoff profile; the preperiod vanishes in the limit."""
    return game.mean_payoff(a for _, a in play.cycle)


def finite_mean_payoff(play: Play, game: StageGame, horizon: int) -> PayoffProfile:
    """Exact average payoff over the first `horizon` steps."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    pre = len(play.preperiod)
    totals = [(0, 0), *game.payoff_totals(a for _, a in play.preperiod + play.cycle)]
    # the first min(horizon, pre) + part steps, plus `full` whole cycles
    upto_pre = min(horizon, pre)
    full, part = divmod(horizon - upto_pre, len(play.cycle))
    (h1, h2), (e1, e2), (s1, s2) = totals[upto_pre + part], totals[-1], totals[pre]
    return game.profile_of((h1 + full * (e1 - s1), h2 + full * (e2 - s2)), horizon)


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


def classify_states(machine: Machine, game: StageGame) -> ComplexityReport:
    """Split a machine's states into threat and normal states, once per
    (machine, game): the machine is validated against the game, and the
    report is kept in the game's memo."""
    report = game._memo.classes.get(machine)
    if report is not None:
        return report
    validate_machine(machine, game)
    force = set(forcing_actions(game, machine.player))
    d, nxt = len(machine.input_actions), machine._nxt
    threat = {
        q
        for q, out in enumerate(machine._outs)
        if out in force and nxt[q * d : (q + 1) * d] == (q,) * d
    }
    # a threat state only loops to itself, so every arc into a normal state
    # leaves a normal state
    count = sum(1 for dst in nxt if dst not in threat)
    names = frozenset(machine.states[q] for q in threat)
    report = ComplexityReport(len(machine.states), names, frozenset(machine.states) - names, count)
    game._memo.classes[machine] = report
    return report


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
class EquivalenceClasses(PeriodicWord):
    """A partition of a play's time points, as the word of their class labels.

    Labels count from 0 in order of each class's first time point, so two
    partitions of one play are equal exactly when their words are.  A time
    point beyond the horizon belongs to the class of its cycle position.
    """

    relation: Relation
    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The time points 1..horizon of each class, in label order."""
        groups: dict[int, list[int]] = {}
        for t, label in enumerate(self.preperiod + self.cycle, 1):
            groups.setdefault(label, []).append(t)
        return tuple(map(tuple, groups.values()))

    def class_of(self, t: int) -> tuple[int, ...]:
        return self.classes[self.at(t)]

    def as_partition(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(c) for c in self.classes)

    def same_partition(self, other: "EquivalenceClasses") -> bool:
        return (self.preperiod, self.cycle) == (other.preperiod, other.cycle)

    def refines(self, other: "EquivalenceClasses") -> bool:
        """Every class of self lies inside a class of other: the label
        pairs at each time point form a function."""
        labels = self.preperiod + self.cycle
        return len(set(zip(labels, other.preperiod + other.cycle))) == len(set(labels))


def _partition(word: PeriodicWord, which: Relation, keys) -> EquivalenceClasses:
    """The partition of times 1..horizon of `word` by equal keys, one key
    per time point."""
    seen: dict = {}
    labels = tuple(seen.setdefault(key, len(seen)) for key in keys)
    pre = len(word.preperiod)
    return EquivalenceClasses(which, labels[:pre], labels[pre:])


def _suffix_windows(word: PeriodicWord) -> list[tuple]:
    """The action window of length H = |preperiod| + |cycle| at each time
    1..H, sliced out of one word unrolled to position 2H - 1.

    Equal windows mean equal infinite action suffixes: past the preperiod
    both suffixes are periodic, and agreement over a full period there
    implies agreement forever.
    """
    horizon = word.horizon
    unrolled = word.unrolled(2 * horizon - 1)
    return [tuple(unrolled[t : t + horizon]) for t in range(horizon)]


def suffix_partition(word: PeriodicWord) -> tuple[tuple[int, ...], ...]:
    """Partition times 1..H by equality of their infinite action suffixes."""
    return _partition(word, Relation.SUFFIX, _suffix_windows(word)).classes


def equivalence_relation(play: Play, which: Relation) -> EquivalenceClasses:
    if which is Relation.SUFFIX:
        return _partition(play, which, _suffix_windows(play))
    states = [q for q, _ in play.preperiod + play.cycle]
    if which is Relation.STATE_1:
        states = [q1 for q1, _ in states]
    elif which is Relation.STATE_2:
        states = [q2 for _, q2 in states]
    return _partition(play, which, states)


def _first_visits(machine: Machine, game: StageGame) -> tuple[list[int], dict[int, int]]:
    """The responder's input slots in the game's action order, and the
    states reachable from the start, in first-visit order along those
    slots, each mapped to the code `q * d + k` of the arc that first
    reached it (the start to -1)."""
    inputs, nxt = machine.input_actions, machine._nxt
    d = len(inputs)
    slots = [inputs.index(a) for a in game.actions(opponent(machine.player))]
    order = [machine._start]
    via = {machine._start: -1}
    for q in order:
        for k in slots:
            dst = nxt[q * d + k]
            if dst not in via:
                via[dst] = q * d + k
                order.append(dst)
    return slots, via


def canonical_form(machine: Machine, game: StageGame) -> Machine:
    """Prune unreachable states and relabel by first-visit order.

    Two machines are isomorphic on their reachable parts exactly when their
    canonical forms are equal.  Input order is the game's declared order for
    the opponent's actions.
    """
    validate_machine(machine, game)
    _, via = _first_visits(machine, game)
    rank = {q: r for r, q in enumerate(via)}
    d, nxt = len(machine.input_actions), machine._nxt
    return Machine._of_table(
        machine.player,
        tuple(map(str, range(len(via)))),
        0,
        tuple(machine._outs[q] for q in via),
        machine.input_actions,
        tuple(rank[nxt[c]] for q in via for c in range(q * d, q * d + d)),
        machine.name,
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
        tokens = line.split()
        # a transition line may start with a state named "machine", "start" or "state"
        transition = _TRANSITION_RE.match(line)
        keyword = None if transition else tokens[0]
        if keyword == "machine":
            m = _MACHINE_RE.match(line)
            if not m:
                raise ParseError("expected: machine <name> player=<1|2>", lineno)
            if name is not None:
                raise ParseError("duplicate machine line", lineno)
            name, player = m.group(1), int(m.group(2))
        elif keyword == "start":
            if len(tokens) != 2:
                raise ParseError("expected: start <state>", lineno)
            if start is not None:
                raise ParseError("duplicate start line", lineno)
            start = tokens[1]
        elif keyword == "state":
            if len(tokens) != 3 or not tokens[2].startswith("out="):
                raise ParseError("expected: state <state> out=<action>", lineno)
            q = tokens[1]
            if q in output:
                raise ParseError(f"duplicate state {q!r}", lineno)
            states.append(q)
            output[q] = tokens[2][len("out="):]
        else:
            if not transition:
                raise ParseError(f"unrecognized line {line!r}", lineno)
            src, action, dst = transition.groups()
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
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

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
