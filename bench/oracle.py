"""Exact reference answers for the benchmark, written apart from leanfa.

Nothing here imports leanfa. Machines are plain tables, plays come from a
state-pair simulation of their own, the best-response value is the maximum
mean over *all* simple cycles of the response graph (no Karp, no
potentials), and the complexity measures Q, R and delta are counted from
the tables directly. Every quantity is a `Fraction` or an int.

The benchmark runs these checks outside every timed region.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

ACTIONS = ("C", "D")

# Prisoner's dilemma, (row payoff, column payoff) per (row action, column action).
PD = {
    ("C", "C"): (Fraction(2), Fraction(2)),
    ("C", "D"): (Fraction(-1), Fraction(3)),
    ("D", "C"): (Fraction(3), Fraction(-1)),
    ("D", "D"): (Fraction(0), Fraction(0)),
}


def u(player: int, a1: str, a2: str) -> Fraction:
    return PD[(a1, a2)][player - 1]


def cell(player: int, own: str, other: str) -> tuple[str, str]:
    """The (row, column) action pair when `player` plays `own`."""
    return (own, other) if player == 1 else (other, own)


def minmax(player: int) -> Fraction:
    """The lowest payoff the opponent can hold `player` to with a pure action."""
    return min(max(u(player, *cell(player, a, b)) for a in ACTIONS) for b in ACTIONS)


def forcing(player: int) -> frozenset[str]:
    """Actions of `player` after which the opponent's best reply earns its minmax."""
    j = 3 - player
    return frozenset(
        a for a in ACTIONS if max(u(j, *cell(player, a, b)) for b in ACTIONS) == minmax(j)
    )


@dataclass(frozen=True)
class Table:
    """A strategy machine: output per state, next state per (state, opponent action)."""

    player: int
    states: tuple[str, ...]
    start: str
    out: dict
    nxt: dict

    def key(self):
        return (
            self.player,
            self.states,
            self.start,
            tuple(self.out[q] for q in self.states),
            tuple(self.nxt[(q, a)] for q in self.states for a in ACTIONS),
        )


_EDGE = re.compile(r"^(\S+)\s*--(\S+)-->\s*(\S+)$")


def parse_machine(text: str) -> Table:
    """Read the `machine ... / start / state / edge` text format."""
    player = start = None
    states, out, nxt = [], {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "machine":
            player = int(words[2].removeprefix("player="))
        elif words[0] == "start":
            start = words[1]
        elif words[0] == "state":
            states.append(words[1])
            out[words[1]] = words[2].removeprefix("out=")
        else:
            src, a, dst = _EDGE.match(line).groups()
            nxt[(src, a)] = dst
    return Table(player, tuple(states), start, out, nxt)


def brief(m: Table) -> str:
    return ";".join(
        f"{q}:{m.out[q]}[" + ",".join(f"{a}>{m.nxt[(q, a)]}" for a in ACTIONS) + "]"
        for q in m.states
    )


def play(m1: Table, m2: Table) -> tuple[list, list]:
    """(preperiod, cycle) of action pairs, cut at the first repeated state pair."""
    seen: dict[tuple[str, str], int] = {}
    steps = []
    q = (m1.start, m2.start)
    while q not in seen:
        seen[q] = len(steps)
        a = (m1.out[q[0]], m2.out[q[1]])
        steps.append(a)
        q = (m1.nxt[(q[0], a[1])], m2.nxt[(q[1], a[0])])
    return steps[: seen[q]], steps[seen[q]:]


def payoff(m1: Table, m2: Table) -> tuple[Fraction, Fraction]:
    """Limit-of-means payoffs: the mean over the play's cycle."""
    _, cycle = play(m1, m2)
    return tuple(sum((u(p, *a) for a in cycle), Fraction(0)) / len(cycle) for p in (1, 2))


def simple_cycles(succ: dict) -> list[list]:
    """Every simple cycle of a graph given as node -> [(label, node), ...].

    A cycle is listed once, from its least node in the dict's order, as the
    list of (node, label) steps along it.
    """
    rank = {v: i for i, v in enumerate(succ)}
    cycles = []

    def extend(root, node, path, on_path):
        for label, dst in succ[node]:
            step = path + [(node, label)]
            if dst == root:
                cycles.append(step)
            elif rank[dst] > rank[root] and dst not in on_path:
                extend(root, dst, step, on_path | {dst})

    for root in succ:
        extend(root, root, [], {root})
    return cycles


def reachable(m: Table) -> list[str]:
    order, i = [m.start], 0
    while i < len(order):
        for a in ACTIONS:
            dst = m.nxt[(order[i], a)]
            if dst not in order:
                order.append(dst)
        i += 1
    return order


def br_value(m: Table) -> Fraction:
    """Best limit-of-means payoff against `m`: the best simple-cycle mean."""
    resp = 3 - m.player
    succ = {q: [(a, m.nxt[(q, a)]) for a in ACTIONS] for q in reachable(m)}
    return max(
        sum((u(resp, *cell(resp, a, m.out[q])) for q, a in cyc), Fraction(0)) / len(cyc)
        for cyc in simple_cycles(succ)
    )


class Oracle:
    """Nash decisions with the best-response value of each machine memoised."""

    def __init__(self):
        self._br: dict = {}

    def br(self, m: Table) -> Fraction:
        k = m.key()
        if k not in self._br:
            self._br[k] = br_value(m)
        return self._br[k]

    def is_nash(self, m1: Table, m2: Table) -> bool:
        p = payoff(m1, m2)
        return p[0] == self.br(m2) and p[1] == self.br(m1)


def measures(m: Table) -> dict[str, int]:
    """Q (all states), R (states that are not threats), delta (normal-to-normal edges).

    A threat state outputs a forcing action and stays put on every input.
    """
    force = forcing(m.player)
    threat = {
        q for q in m.states if m.out[q] in force and all(m.nxt[(q, a)] == q for a in ACTIONS)
    }
    normal = [q for q in m.states if q not in threat]
    delta = sum(1 for q in normal for a in ACTIONS if m.nxt[(q, a)] not in threat)
    return {"Q": len(m.states), "R": len(normal), "delta": delta}


def canonical_machines(player: int, max_states: int, max_threat: int) -> list[Table]:
    """The enumeration order of `enumerate --states N --threat T`, rebuilt from its rules.

    Sizes ascend. Within a size, transition tables ascend lexicographically
    (rows by state, inputs in game order), keeping those whose states are
    numbered in order of first appearance and all reachable. Outputs then
    ascend in product order. A machine is dropped when two absorbing states
    share an output, or when more than `max_threat` absorbing states output
    a forcing action.
    """
    force = forcing(player)
    pool = []
    for n in range(1, max_states + 1):
        names = tuple(str(i) for i in range(n))
        for flat in itertools.product(range(n), repeat=n * len(ACTIONS)):
            first_seen = [0]
            for target in flat:
                if target not in first_seen:
                    first_seen.append(target)
            if first_seen != list(range(n)):
                continue
            rows = [flat[i * len(ACTIONS):(i + 1) * len(ACTIONS)] for i in range(n)]
            # a row may be read only once its state has appeared in earlier rows
            if any(i > 0 and i not in {t for r in rows[:i] for t in r} for i in range(n)):
                continue
            absorbing = [i for i in range(n) if all(t == i for t in rows[i])]
            nxt = {(names[i], a): names[rows[i][k]] for i in range(n) for k, a in enumerate(ACTIONS)}
            for outs in itertools.product(ACTIONS, repeat=n):
                absorbing_outs = [outs[i] for i in absorbing]
                if len(set(absorbing_outs)) < len(absorbing_outs):
                    continue
                if sum(1 for o in absorbing_outs if o in force) > max_threat:
                    continue
                pool.append(Table(player, names, "0", dict(zip(names, outs)), nxt))
    return pool


# --- action sequences -----------------------------------------------------------

def seq_mean(seq, player: int) -> Fraction:
    return sum((u(player, *a) for a in seq), Fraction(0)) / len(seq)


def strictly_enforceable(seq) -> bool:
    return all(seq_mean(seq, p) > minmax(p) for p in (1, 2))


def incompatible(seq, t1: int, t2: int, player: int) -> bool:
    """In the repeated sequence, own actions split before the opponent's do."""
    own, other, k = player - 1, 2 - player, len(seq)
    for n in range(k):
        a, b = seq[(t1 + n) % k], seq[(t2 + n) % k]
        if a[own] != b[own]:
            return True
        if a[other] != b[other]:
            return False
    return False


def irreducible(seq, player: int) -> bool:
    k = len(seq)
    return all(incompatible(seq, s, t, player) for s in range(k) for t in range(s + 1, k))


def foolable(seq, player: int) -> bool:
    """Some rotation and opponent action s' beat the sequence mean on every tail.

    The tail from position n of the rotation is its entries n..k-1 followed
    by the last entry with the opponent's action replaced by s'.
    """
    j, k = 3 - player, len(seq)
    target = seq_mean(seq, j)
    for r in range(k):
        rot = seq[r:] + seq[:r]
        for s in ACTIONS:
            bonus = u(j, *cell(player, rot[-1][player - 1], s))
            if all(
                (sum((u(j, *a) for a in rot[n:k - 1]), Fraction(0)) + bonus) / (k - n) > target
                for n in range(k)
            ):
                return True
    return False


def trigger_sequences(lengths=range(4, 9)) -> list[tuple]:
    """Strictly enforceable sequences irreducible for both players, in product order."""
    pairs = [(a, b) for a in ACTIONS for b in ACTIONS]
    return [
        seq
        for k in lengths
        for seq in itertools.product(pairs, repeat=k)
        if strictly_enforceable(seq) and irreducible(seq, 1) and irreducible(seq, 2)
    ]


def seq_text(seq) -> str:
    return " ".join(f"({a},{b})" for a, b in seq)


def parse_seq_text(text: str) -> tuple:
    return tuple(tuple(term.strip("()").split(",")) for term in text.split())
