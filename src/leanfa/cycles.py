"""Cycle analysis inside a single machine: best responses and their values.

A responder playing against a fixed machine walks a graph whose nodes are
the machine's reachable states and whose edges are the responder's action
choices.  Under limit-of-means the best achievable payoff is the maximum
mean weight over cycles of that graph, attained on a simple cycle, so best
responses reduce to an exact maximum-cycle-mean computation plus a walk
into the maximizing cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .games import PlayerId, StageGame, opponent
from .machines import Machine, reachable_states, validate_machine
from .sequences import ActionSeq, validate_sequence


class REdge(NamedTuple):
    """One responder choice: from machine state `src`, playing `action`."""

    src: str
    action: str
    dst: str
    w_resp: Fraction
    w_other: Fraction


@dataclass(frozen=True, eq=False)
class ResponseGraph:
    """The responder's decision graph over an opponent machine.

    Every node has out-degree equal to the responder's action count; edge
    weights are exact payoffs from the stage-game table, one per player.
    """

    machine: Machine
    game: StageGame
    responder: PlayerId
    nodes: tuple[str, ...]
    adj: dict[str, tuple[REdge, ...]]

    @property
    def initial(self) -> str:
        return self.machine.initial

    def edges(self) -> list[REdge]:
        return [e for q in self.nodes for e in self.adj[q]]


def build_response_graph(machine: Machine, game: StageGame) -> ResponseGraph:
    validate_machine(machine, game)
    responder = opponent(machine.player)
    actions = game.actions(responder)
    nodes = reachable_states(machine, actions)
    adj: dict[str, tuple[REdge, ...]] = {}
    for q in nodes:
        out = machine.output[q]
        edges = []
        for a in actions:
            pair = (out, a) if machine.player == 1 else (a, out)
            edges.append(
                REdge(q, a, machine.transition[(q, a)], game.u(responder, *pair),
                      game.u(machine.player, *pair))
            )
        adj[q] = tuple(edges)
    return ResponseGraph(machine, game, responder, nodes, adj)


@dataclass(frozen=True)
class MachinePath:
    """An alternating walk q1 --a1--> q2 --a2--> ... through one machine."""

    machine: Machine
    states: tuple[str, ...]
    actions: tuple[str, ...]

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1 or not self.states:
            raise ValueError("path needs one more state than actions")
        for k, a in enumerate(self.actions):
            if self.machine.transition[(self.states[k], a)] != self.states[k + 1]:
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
# Karp runs on integer weights: every payoff is multiplied by the LCM of the
# denominators on the graph, so the walk table and the potentials hold Python
# ints, and a mean comes out as a pair (num, den) of ints.  Only the final
# value becomes a Fraction, num / (den * scale), so results stay exact.

Node = Hashable  # a state name, or a state index on a machine's integer table
Arc = tuple[int, Node, Node, int]  # (index into the edge list, src, dst, integer weight)


def _scc_list(nodes: Sequence[Node], succ: Mapping[Node, Sequence[Node]]) -> list[list[Node]]:
    """Tarjan's strongly connected components of the nodes reachable from
    `nodes`, iterative, deterministic order.  `succ[v]` lists v's
    successors; for integer nodes it may be a list.

    A component comes out only after every component it reaches, so the
    list runs sinks first.
    """
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    stack: list[Node] = []
    on_stack: set[Node] = set()
    comps: list[list[Node]] = []
    work: list[tuple[Node, Iterator[Node]]] = []  # the call stack of recursive Tarjan

    def visit(v: Node) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ[v])))

    for root in nodes:
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


def _karp(comp: list[Node], arcs: list[Arc]) -> tuple[int, int]:
    """Karp's maximum cycle mean of one strongly connected component, as (num, den).

    D[k][v] is the best total weight of a k-edge walk from comp[0]; the
    answer is max over v of min over k of (D[n][v]-D[k][v])/(n-k).  A row
    holds only the nodes some k-edge walk reaches, so a ring of n states
    costs O(n) rather than O(n * edges).
    """
    n = len(comp)
    succ: dict[Node, list[tuple[Node, int]]] = {v: [] for v in comp}
    for _, src, dst, w in arcs:
        succ[src].append((dst, w))
    rows: list[dict[Node, int]] = [{comp[0]: 0}]
    for _ in range(n):
        row: dict[Node, int] = {}
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


def _component_means(
    nodes: tuple[str, ...], edges: list[REdge], weight: Callable[[REdge], Fraction]
) -> tuple[int, list[tuple[tuple[int, int], list[str], list[Arc]]]]:
    """Scale the weights to ints, then Karp on each component that holds a cycle.

    Returns the scale and, per cyclic component in Tarjan order, its mean
    (num, den) on the scaled weights, its nodes and its internal arcs.
    """
    values = [weight(e) for e in edges]
    scale = lcm(*(x.denominator for x in values))
    succ: dict[str, list[str]] = {v: [] for v in nodes}
    for e in edges:
        succ[e.src].append(e.dst)
    comps = _scc_list(nodes, succ)
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    inner: list[list[Arc]] = [[] for _ in comps]
    for i, (e, x) in enumerate(zip(edges, values)):
        c = comp_of[e.src]
        if c == comp_of[e.dst]:
            inner[c].append((i, e.src, e.dst, x.numerator * (scale // x.denominator)))
    scored = [(_karp(comp, arcs), comp, arcs) for comp, arcs in zip(comps, inner) if arcs]
    if not scored:
        raise ValueError("graph has no cycle")
    return scale, scored


def _largest(means: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The largest of some means given as (num, den) pairs with den > 0."""
    best_num, best_den = None, 1
    for num, den in means:
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _potentials(comp: list[str], arcs: list[tuple[str, str, int]]) -> dict[str, int]:
    # longest walks from the root under the adjusted weights; finite because
    # no cycle has a positive adjusted weight once mu is the maximum cycle mean
    pot: dict[str, int | None] = {v: None for v in comp}
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


def _critical_subgraph(
    nodes: tuple[str, ...], edges: list[REdge], weight: Callable[[REdge], Fraction]
) -> tuple[Fraction, list[str], list[REdge]]:
    """Maximum cycle mean plus the union of all cycles attaining it.

    Within a maximizing component, an edge lies on a maximum-mean cycle
    exactly when it is tight for the longest-walk potentials; every cycle
    made of tight edges has the maximum mean.  With mu = P / (Q * scale),
    the adjusted weight of an edge is its scaled weight times Q minus P, an
    integer, so tightness is an integer equality.
    """
    scale, scored = _component_means(nodes, edges, weight)
    P, Q = _largest(mean for mean, _, _ in scored)
    crit_nodes: list[str] = []
    crit_edges: list[REdge] = []
    for (num, den), comp, arcs in scored:
        if num * Q != P * den:
            continue
        adjusted = [(src, dst, w * Q - P) for _, src, dst, w in arcs]
        pot = _potentials(comp, adjusted)
        tight = [
            edges[i]
            for (i, _, _, _), (src, dst, a) in zip(arcs, adjusted)
            if pot[src] + a == pot[dst]
        ]
        keep = {e.src for e in tight} | {e.dst for e in tight}
        crit_nodes.extend(v for v in comp if v in keep)
        crit_edges.extend(tight)
    return Fraction(P, Q * scale), crit_nodes, crit_edges


def _reaches(adj: dict[str, list[REdge]], src: str, target: str, blocked: set[str]) -> bool:
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for e in adj.get(u, ()):
            if e.dst == target:
                return True
            if e.dst not in blocked and e.dst not in seen:
                seen.add(e.dst)
                queue.append(e.dst)
    return False


def _lex_min_simple_cycle(
    node_order: dict[str, int],
    action_order: dict[str, int],
    nodes: list[str],
    edges: list[REdge],
) -> tuple[list[str], list[str]]:
    """Lexicographically smallest simple cycle of a nonempty cyclic subgraph.

    Smallest means: start at the least node lying on any cycle, then greedily
    take the least (action, successor) step that can still be closed into a
    simple cycle.  Greedy is exact for lexicographic order because closing
    feasibility is checked before committing to a step.
    """
    adj: dict[str, list[REdge]] = {v: [] for v in nodes}
    for e in edges:
        adj[e.src].append(e)
    for v in nodes:
        adj[v].sort(key=lambda e: (action_order[e.action], node_order[e.dst]))
    for v0 in sorted(nodes, key=node_order.get):
        if not any(e.dst == v0 or _reaches(adj, e.dst, v0, set()) for e in adj[v0]):
            continue
        states = [v0]
        actions: list[str] = []
        visited = {v0}
        cur = v0
        while True:
            for e in adj[cur]:
                if e.dst == v0:
                    return states + [v0], actions + [e.action]
                if e.dst in visited:
                    continue
                if _reaches(adj, e.dst, v0, visited):
                    states.append(e.dst)
                    actions.append(e.action)
                    visited.add(e.dst)
                    cur = e.dst
                    break
            else:
                raise AssertionError("greedy cycle construction dead-ended")
    raise ValueError("subgraph has no cycle")


def max_mean_cycle(graph: ResponseGraph) -> tuple[Fraction, MachinePath]:
    """Best responder cycle mean plus a simple witness cycle.

    Ties among maximum-mean simple cycles are broken by the largest mean for
    the machine's owner, then by lexicographically smallest state sequence,
    so the witness is deterministic.
    """
    edges = graph.edges()
    mu, nodes1, edges1 = _critical_subgraph(graph.nodes, edges, lambda e: e.w_resp)
    _, nodes2, edges2 = _critical_subgraph(tuple(nodes1), edges1, lambda e: e.w_other)
    node_order = {v: i for i, v in enumerate(graph.nodes)}
    action_order = {a: i for i, a in enumerate(graph.game.actions(graph.responder))}
    states, actions = _lex_min_simple_cycle(node_order, action_order, nodes2, edges2)
    witness = MachinePath(graph.machine, tuple(states), tuple(actions))
    return mu, witness


def _best_reachable(
    machine: Machine, game: StageGame, roots: Sequence[int]
) -> list[tuple[int, int] | None]:
    """The best responder cycle mean reachable from each state that `roots` reach.

    The responder's graph runs on the machine's integer table: from state
    q, the responder's k-th action leads to `_nxt[q * d + k]` and pays it
    the game's scaled payoff.  Tarjan from the root states finds the
    components they reach sinks first, so one pass folds each component's
    own Karp mean (if it holds a cycle) with the best of the components it
    leads to.  A mean is (num, den) on the scaled payoffs; a state the
    roots do not reach gets None.
    """
    inputs, outs, nxt = machine.input_actions, machine._outs, machine._nxt
    d = len(inputs)
    slot = 2 - machine.player  # the responder's entry in a payoff pair
    scaled = game.scaled
    succ = [nxt[q * d : (q + 1) * d] for q in range(len(outs))]
    comps = _scc_list(roots, succ)
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
    return [best[c] if c >= 0 else None for c in comp_of]


@lru_cache(maxsize=None)
def best_response_value(machine: Machine, game: StageGame) -> Fraction:
    """Best limit-of-means payoff achievable against `machine`."""
    validate_machine(machine, game)
    start = machine._start
    num, den = _best_reachable(machine, game, (start,))[start]
    return Fraction(num, den * game.scale)


def construct_best_response(machine: Machine, game: StageGame) -> Machine:
    """A machine that walks into a maximum-mean cycle and loops there forever.

    It plays a fixed action script (shortest path into the witness cycle,
    then the cycle), ignoring its observations, so its state count is path
    length plus cycle length.
    """
    graph = build_response_graph(machine, game)
    _, witness = max_mean_cycle(graph)
    cycle_states = witness.states[:-1]
    cycle_set = set(cycle_states)

    path_actions: list[str] = []
    if graph.initial not in cycle_set:
        parent: dict[str, tuple[str, str]] = {}
        queue = deque([graph.initial])
        seen = {graph.initial}
        entry = None
        while queue:
            u = queue.popleft()
            for e in graph.adj[u]:
                if e.dst not in seen:
                    seen.add(e.dst)
                    parent[e.dst] = (u, e.action)
                    if e.dst in cycle_set:
                        entry = e.dst
                        queue.clear()
                        break
                    queue.append(e.dst)
        assert entry is not None, "cycle unreachable from the initial state"
        node = entry
        rev: list[str] = []
        while node != graph.initial:
            prev, action = parent[node]
            rev.append(action)
            node = prev
        path_actions = rev[::-1]
    else:
        entry = graph.initial

    start = cycle_states.index(entry)
    cycle_script = [witness.actions[(start + k) % len(cycle_states)] for k in range(len(cycle_states))]

    responder = graph.responder
    script = path_actions + cycle_script
    loop_start = len(path_actions)
    states = tuple(f"w{i}" for i in range(len(script)))
    output = {f"w{i}": a for i, a in enumerate(script)}
    inputs = game.actions(machine.player)
    transition = {}
    for i in range(len(script)):
        nxt = i + 1 if i + 1 < len(script) else loop_start
        for a in inputs:
            transition[(f"w{i}", a)] = f"w{nxt}"
    return Machine(responder, states, "w0", output, transition, name=f"br{responder}")


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
    off-walk steps' cycle means come from one pass over the components of
    the response graph that those steps reach.

    The test runs on the machine's integer table: the walk visits codes
    `state index * k + phase`, the cycle is summed on the game's scaled
    payoffs, and names and `Fraction`s are built only for a failure note.
    """
    if machine.player == responder:
        raise ValueError("responder must be the machine owner's opponent")
    if not seq.entries:
        raise ValueError("empty action sequence")
    validate_sequence(seq, game)
    value = best_response_value(machine, game)
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
    if not game.mean_equals(total, len(cycle), value):
        return False, (
            f"following the sequence pays the responder "
            f"{Fraction(total, len(cycle) * game.scale)}, but the "
            f"best-response value is {value}"
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

    # the states reachable from the start, in first-visit order with the
    # responder's actions in the game's order, and their off-walk steps
    slots = [inputs.index(a) for a in game.actions(responder)]
    order = [machine._start]
    reached = {machine._start}
    for q in order:
        for slot in slots:
            dst = nxt[q * d + slot]
            if dst not in reached:
                reached.add(dst)
                order.append(dst)
    off_walk = [
        (q, slot, nxt[q * d + slot]) for q in order for slot in slots if slot != taken[q]
    ]
    best = _best_reachable(machine, game, [dst for _, _, dst in off_walk])
    for q, slot, dst in off_walk:
        num, den = best[dst]
        if num * value.denominator >= value.numerator * den * game.scale:
            return False, (
                f"deviating with {inputs[slot]} at state {machine.states[q]} still allows "
                f"cycle mean {Fraction(num, den * game.scale)}; a best response may leave "
                "the sequence"
            )
    return True, "every best response must replay the sequence from the first step"
