"""Cycle analysis inside a single machine: best responses and their values.

A responder playing against a fixed machine walks a graph whose nodes are
the machine's reachable states and whose edges are the responder's action
choices.  Under limit-of-means the best achievable payoff is the maximum
mean weight over cycles of that graph, attained on a simple cycle, so best
responses reduce to an exact maximum-cycle-mean computation plus a walk
into the maximizing cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .games import PlayerId, StageGame, opponent
from .machines import Machine, _first_visits, validate_machine
from .sequences import ActionSeq, validate_sequence


@dataclass(frozen=True)
class MachinePath:
    """An alternating walk q1 --a1--> q2 --a2--> ... through one machine."""

    machine: Machine
    states: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1 or not self.states:
            raise ValueError("path needs one more state than actions")
        if self.states[0] not in self.machine.output:
            raise ValueError(f"path starts at {self.states[0]}, not a state of the machine")
        for k, a in enumerate(self.actions):
            if self.machine.transition.get((self.states[k], a)) != self.states[k + 1]:
                raise ValueError(
                    f"step {k + 1} is not a transition: "
                    f"({self.states[k]},{a}) does not lead to {self.states[k + 1]}"
                )

    @property
    def is_cycle(self) -> bool:
        return len(self.actions) >= 1 and self.states[0] == self.states[-1]

    @property
    def is_simple_cycle(self) -> bool:
        inner = self.states[:-1]
        return self.is_cycle and len(set(inner)) == len(inner)

    def __str__(self) -> str:
        if not self.actions:
            return self.states[0]
        parts = [self.states[0]]
        for a, q in zip(self.actions, self.states[1:]):
            parts.append(f"--{a}--> {q}")
        return " ".join(parts)


def path_payoff(path: MachinePath, game: StageGame, for_player: PlayerId) -> Fraction:
    """Mean stage payoff to `for_player` along the path, exact."""
    if not path.actions:
        raise ValueError("empty path has no payoff")
    m = path.machine
    pairs = [
        (m.output[q], a) if m.player == 1 else (a, m.output[q])
        for q, a in zip(path.states, path.actions)
    ]
    return game.mean_payoff(pairs).for_player(for_player)


# --- exact maximum cycle mean -------------------------------------------------
#
# The responder's graph runs on the machine's integer table: node q is a
# state index, and the arc with code `q * d + k` is the responder's k-th
# input action, leading to `_nxt[q * d + k]` and weighted by the game's
# `scaled` payoffs.  So Karp's walk table and the potentials hold Python
# ints, a mean comes out as a pair (num, den) of ints standing for
# num / (den * game.scale), and only a reported value becomes a Fraction.

Arc = tuple[int, int, int, int]  # (code q * d + k, src, dst, integer weight)


def _scc_list(
    roots: Iterable[int], succ: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]
) -> list[list[int]]:
    """Tarjan's strongly connected components of the nodes reachable from
    `roots`, iterative, deterministic order.  `succ[v]` lists v's
    successors, in a list indexed by state or a dict.

    A component comes out only after every component it reaches, so the
    list runs sinks first.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    comps: list[list[int]] = []
    work: list[tuple[int, Iterator[int]]] = []  # the call stack of recursive Tarjan

    def visit(v: int) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ[v])))

    for root in roots:
        if root in index:
            continue
        visit(root)
        while work:
            v, children = work[-1]
            for w in children:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _karp(comp: list[int], arcs: list[Arc]) -> tuple[int, int]:
    """Karp's maximum cycle mean of one strongly connected component, as (num, den).

    D[k][v] is the best total weight of a k-edge walk from comp[0]; the
    answer is max over v of min over k of (D[n][v]-D[k][v])/(n-k).  A row
    holds only the nodes some k-edge walk reaches, so a ring of n states
    costs O(n) rather than O(n * edges).
    """
    n = len(comp)
    succ: dict[int, list[tuple[int, int]]] = {v: [] for v in comp}
    for _, src, dst, w in arcs:
        succ[src].append((dst, w))
    rows: list[dict[int, int]] = [{comp[0]: 0}]
    for _ in range(n):
        row: dict[int, int] = {}
        for u, du in rows[-1].items():
            for v, w in succ[u]:
                cand = du + w
                old = row.get(v)
                if old is None or cand > old:
                    row[v] = cand
        rows.append(row)
    # every node of a cyclic component has a walk of each length ending in
    # it, and one of length at most n-1 from the root, so no min is empty
    means = []
    for v, dn in rows[n].items():
        num, den = None, 1
        for k in range(n):
            dk = rows[k].get(v)
            if dk is not None and (num is None or (dn - dk) * den < num * (n - k)):
                num, den = dn - dk, n - k
        means.append((num, den))
    return _largest(means)


def _largest(means: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The largest of some means given as (num, den) pairs with den > 0."""
    best_num, best_den = None, 1
    for num, den in means:
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _potentials(comp: list[int], arcs: list[tuple[int, int, int]]) -> dict[int, int]:
    # longest walks from the root under the adjusted weights; finite because
    # no cycle has a positive adjusted weight once mu is the maximum cycle mean
    pot: dict[int, int | None] = {v: None for v in comp}
    pot[comp[0]] = 0
    for _ in range(len(comp) - 1):
        changed = False
        for src, dst, a in arcs:
            base = pot[src]
            if base is None:
                continue
            cand = base + a
            if pot[dst] is None or cand > pot[dst]:
                pot[dst] = cand
                changed = True
        if not changed:
            break
    return pot


def _critical_subgraph(arcs: list[Arc]) -> tuple[tuple[int, int], list[Arc]]:
    """Maximum cycle mean, as (num, den), plus the arcs of all cycles attaining it.

    Tarjan splits the graph into components and Karp scores each one that
    holds a cycle.  Within a maximizing component, an arc lies on a
    maximum-mean cycle exactly when it is tight for the longest-walk
    potentials; every cycle made of tight arcs has the maximum mean.  With
    mu = P / Q, the adjusted weight of an arc is its weight times Q minus
    P, an integer, so tightness is an integer equality.  A tight arc on no
    cycle lies inside no strongly connected component of the returned
    subgraph, so a second pass and the cycle search ignore it.
    """
    succ: dict[int, list[int]] = {}
    for _, src, dst, _ in arcs:
        succ.setdefault(dst, [])
        succ.setdefault(src, []).append(dst)
    comps = _scc_list(list(succ), succ)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    inner: list[list[Arc]] = [[] for _ in comps]
    for arc in arcs:
        c = comp_of[arc[1]]
        if c == comp_of[arc[2]]:
            inner[c].append(arc)
    scored = [(_karp(comp, own), comp, own) for comp, own in zip(comps, inner) if own]
    P, Q = _largest(mean for mean, _, _ in scored)
    critical: list[Arc] = []
    for (num, den), comp, own in scored:
        if num * Q != P * den:
            continue
        adjusted = [(src, dst, w * Q - P) for _, src, dst, w in own]
        pot = _potentials(comp, adjusted)
        critical.extend(
            arc for arc, (src, dst, a) in zip(own, adjusted) if pot[src] + a == pot[dst]
        )
    return (P, Q), critical


def _reaches(
    adj: dict[int, list[tuple[int, int]]], src: int, target: int, blocked: set[int]
) -> bool:
    seen = {src}
    queue = [src]
    for u in queue:
        for _, v in adj.get(u, ()):
            if v == target:
                return True
            if v not in blocked and v not in seen:
                seen.add(v)
                queue.append(v)
    return False


def _lex_min_simple_cycle(arcs: list[tuple[int, int, int]]) -> tuple[list[int], list[int]]:
    """Lexicographically smallest simple cycle of a nonempty cyclic subgraph.

    An arc is (src, step, dst): nodes and steps are ranks, compared as
    ints.  Smallest means: start at the least node lying on any cycle, then
    greedily take the least (step, successor) that can still be closed into
    a simple cycle.  Greedy is exact for lexicographic order because
    closing feasibility is checked before committing to a step.  Returns
    the cycle's nodes, first one repeated at the end, and its steps.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for src, step, dst in sorted(arcs):
        adj.setdefault(src, []).append((step, dst))
    for v0, out in adj.items():
        if not any(dst == v0 or _reaches(adj, dst, v0, set()) for _, dst in out):
            continue
        nodes = [v0]
        steps: list[int] = []
        visited = {v0}
        while True:
            for step, dst in adj[nodes[-1]]:
                if dst == v0:
                    return nodes + [v0], steps + [step]
                if dst not in visited and _reaches(adj, dst, v0, visited):
                    nodes.append(dst)
                    steps.append(step)
                    visited.add(dst)
                    break
            else:
                raise AssertionError("greedy cycle construction dead-ended")
    raise ValueError("subgraph has no cycle")


def _witness_cycle(machine: Machine, game: StageGame):
    """The value and the witness cycle of `max_mean_cycle`, on the table.

    Returns the value (P, Q) from `_best_reachable`, the first visits `via`
    of `_first_visits`, and the witness cycle's state indices (the first
    one repeated at the end) and input indices.  Only states whose best
    reachable mean is the value can lie on a maximum-mean cycle, and they
    make up whole components, so the first pass scores only those.
    """
    inputs, outs, nxt = machine.input_actions, machine._outs, machine._nxt
    d = len(inputs)
    best = _best_reachable(machine, game)
    P, Q = best[machine._start]
    slots, via = _first_visits(machine, game)
    top = {q for q in via if best[q][0] * Q == P * best[q][1]}
    resp = 2 - machine.player  # the responder's entry in a payoff pair

    def weight(code: int, who: int) -> int:
        o, a = outs[code // d], inputs[code % d]
        return game.scaled[(o, a) if machine.player == 1 else (a, o)][who]

    arcs = [
        (c, q, nxt[c], weight(c, resp))
        for q in via
        if q in top
        for c in range(q * d, q * d + d)
        if nxt[c] in top
    ]
    _, critical = _critical_subgraph(arcs)
    owner = [(c, q, dst, weight(c, 1 - resp)) for c, q, dst, _ in critical]
    _, critical = _critical_subgraph(owner)
    rank = {q: r for r, q in enumerate(via)}
    step = {k: s for s, k in enumerate(slots)}
    nodes, steps = _lex_min_simple_cycle(
        [(rank[q], step[c % d], rank[dst]) for c, q, dst, _ in critical]
    )
    order = list(via)
    return (P, Q), via, [order[r] for r in nodes], [slots[s] for s in steps]


def max_mean_cycle(machine: Machine, game: StageGame) -> tuple[Fraction, MachinePath]:
    """Best responder cycle mean plus a simple witness cycle.

    Ties among maximum-mean simple cycles are broken by the largest mean for
    the machine's owner, then by the lexicographically smallest walk, with
    states ranked by first visit from the start and actions by the game's
    order, so the witness is deterministic.
    """
    (P, Q), _, nodes, steps = _witness_cycle(machine, game)
    witness = MachinePath(
        machine,
        tuple(machine.states[q] for q in nodes),
        tuple(machine.input_actions[k] for k in steps),
    )
    return Fraction(P, Q * game.scale), witness


def _best_reachable(machine: Machine, game: StageGame) -> tuple[tuple[int, int] | None, ...]:
    """The best responder cycle mean reachable from each state of `machine`.

    This is the one analysis of the responder's graph, memoized on the
    game: the value, the Nash screen, sequence forcing and the witness all
    read it.  Tarjan from the start state finds the components it reaches
    sinks first, so one pass folds each component's own Karp mean (if it
    holds a cycle) with the best of the components it leads to.  A mean is
    (num, den) on the game's scaled payoffs, num / (den * game.scale); a
    state the start does not reach gets None.  The machine is validated
    first, so every memoized table belongs to a valid machine.
    """
    table = game._memo.best_reachable.get(machine)
    if table is not None:
        return table
    validate_machine(machine, game)
    inputs, outs, nxt = machine.input_actions, machine._outs, machine._nxt
    d = len(inputs)
    slot = 2 - machine.player  # the responder's entry in a payoff pair
    scaled = game.scaled
    succ = [nxt[q * d : (q + 1) * d] for q in range(len(outs))]
    comps = _scc_list((machine._start,), succ)
    comp_of = [-1] * len(outs)
    for c, comp in enumerate(comps):
        for q in comp:
            comp_of[q] = c
    best: list[tuple[int, int]] = []
    for c, comp in enumerate(comps):
        arcs: list[Arc] = []
        means = []
        for q in comp:
            o = outs[q]
            for k, dst in enumerate(succ[q]):
                if comp_of[dst] == c:
                    pair = (o, inputs[k]) if machine.player == 1 else (inputs[k], o)
                    arcs.append((q * d + k, q, dst, scaled[pair][slot]))
                else:
                    means.append(best[comp_of[dst]])
        if arcs:
            means.append(_karp(comp, arcs))
        best.append(_largest(means))
    table = tuple(best[c] if c >= 0 else None for c in comp_of)
    game._memo.best_reachable[machine] = table
    return table


def best_response_value(machine: Machine, game: StageGame) -> Fraction:
    """Best limit-of-means payoff achievable against `machine`."""
    num, den = _best_reachable(machine, game)[machine._start]
    return Fraction(num, den * game.scale)


def construct_best_response(machine: Machine, game: StageGame) -> Machine:
    """A machine that walks into a maximum-mean cycle and loops there forever.

    It plays a fixed action script (shortest path into the witness cycle,
    then the cycle), ignoring its observations, so its state count is path
    length plus cycle length.  The path ends at the cycle state first
    visited from the start, walking the responder's actions in the game's
    order.
    """
    _, via, nodes, steps = _witness_cycle(machine, game)
    cycle = nodes[:-1]
    entry = next(q for q in via if q in cycle)
    inputs = machine.input_actions
    d = len(inputs)
    path: list[str] = []
    q = entry
    while via[q] >= 0:
        path.append(inputs[via[q] % d])
        q = via[q] // d
    start = cycle.index(entry)
    script = path[::-1] + [inputs[k] for k in steps[start:] + steps[:start]]

    n, loop_start = len(script), len(path)
    states = tuple(f"w{i}" for i in range(n))
    reads = tuple(sorted(game.actions(machine.player)))
    nxt = tuple(i + 1 if i + 1 < n else loop_start for i in range(n) for _ in reads)
    responder = opponent(machine.player)
    return Machine._of_table(responder, states, 0, tuple(script), reads, nxt, f"br{responder}")


def is_sequence_forcing(
    machine: Machine, seq: ActionSeq, responder: PlayerId, game: StageGame
) -> tuple[bool, str]:
    """Decide whether every best response to `machine` replays `seq` forever.

    The test: (1) the walk through the machine that follows the sequence is
    output-consistent and its eventual cycle already pays the responder the
    best-response value, (2) no machine state on that walk would accept two
    different responder actions at different sequence phases, and (3) every
    reachable off-walk step leads somewhere whose best reachable cycle mean
    is strictly below the best-response value.  Under limit-of-means a play
    is payoff-maximal exactly when its eventual cycle attains that value, so
    (3) makes any single deviation forfeit optimality forever while (1)+(2)
    pin every non-deviating best response to the sequence itself.  The
    value and the off-walk steps' best reachable means are read from the
    machine's one memoized table, `_best_reachable`.

    The test runs on the machine's integer table: the walk visits codes
    `state index * k + phase`, the cycle is summed on the game's scaled
    payoffs, and names and `Fraction`s are built only for a failure note.
    """
    if machine.player == responder:
        raise ValueError("responder must be the machine owner's opponent")
    if not seq.entries:
        raise ValueError("empty action sequence")
    validate_sequence(seq, game)
    best = _best_reachable(machine, game)
    value_num, value_den = best[machine._start]
    k = len(seq)
    own = machine.player - 1
    resp = responder - 1
    inputs, outs, nxt = machine.input_actions, machine._outs, machine._nxt
    d = len(inputs)
    expect = [pair[own] for pair in seq.entries]  # the machine's output at each phase
    reads = [inputs.index(pair[resp]) for pair in seq.entries]  # its input slot

    q, phase = machine._start, 0
    seen: dict[int, int] = {}  # walk code -> step, in walk order
    code = q * k
    while code not in seen:
        seen[code] = len(seen)
        if outs[q] != expect[phase]:
            return False, (
                f"machine outputs {outs[q]} at step {len(seen)} where the "
                f"sequence expects {expect[phase]}"
            )
        q = nxt[q * d + reads[phase]]
        phase = (phase + 1) % k
        code = q * k + phase
    walk = list(seen)
    cycle = walk[seen[code] :]
    total = sum(game.scaled[seq.entries[c % k]][resp] for c in cycle)
    if total * value_den != value_num * len(cycle):
        return False, (
            f"following the sequence pays the responder "
            f"{Fraction(total, len(cycle) * game.scale)}, but the "
            f"best-response value is {Fraction(value_num, value_den * game.scale)}"
        )

    taken = [-1] * len(outs)  # the input slot the walk takes from each state
    for code in walk:
        q, ph = divmod(code, k)
        prior, slot = taken[q], reads[ph]
        if prior >= 0 and prior != slot:
            return False, (
                f"state {machine.states[q]} is visited at two phases expecting different "
                f"responder actions ({inputs[prior]} and {inputs[slot]}); a best response "
                "could switch phase there and leave the sequence"
            )
        taken[q] = slot

    # every step off the walk, from each reachable state in first-visit
    # order, must lead where the best reachable mean is below the value
    slots, via = _first_visits(machine, game)
    for q in via:
        for slot in slots:
            if slot == taken[q]:
                continue
            num, den = best[nxt[q * d + slot]]
            if num * value_den >= value_num * den:
                return False, (
                    f"deviating with {inputs[slot]} at state {machine.states[q]} still allows "
                    f"cycle mean {Fraction(num, den * game.scale)}; a best response may leave "
                    "the sequence"
                )
    return True, "every best response must replay the sequence from the first step"
