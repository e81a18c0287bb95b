"""Maximum cycle mean computed entirely in exact `Fraction`s.

This is the plain form of Karp's algorithm and of the critical-subgraph
witness search that `leanfa.cycles` runs on the machine's integer table,
and of `is_sequence_forcing` with a separate Tarjan and Karp run per
off-walk step. It works on a response graph keyed by state name, with
`Fraction` edge weights (`build_response_graph`), and finds the witness's
lex-min cycle on names, so it shares no cycle code with the library. The
differential tests compare the two on random machines; `oracles` walks
the same graph to enumerate simple cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from leanfa import ActionSeq, Machine, MachinePath, StageGame, validate_machine
from leanfa.games import PlayerId, opponent


def reachable_states(machine: Machine, inputs: tuple[str, ...]) -> tuple[str, ...]:
    """States reachable from the initial state, in first-visit order along
    `inputs`, walked on the machine's name-keyed transition map."""
    order = [machine.initial]
    for q in order:
        for a in inputs:
            dst = machine.transition[(q, a)]
            if dst not in order:
                order.append(dst)
    return tuple(order)


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


def reaches(adj: dict[str, list[REdge]], src: str, target: str, blocked: set[str]) -> bool:
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


def lex_min_simple_cycle(
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
        if not any(e.dst == v0 or reaches(adj, e.dst, v0, set()) for e in adj[v0]):
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
                if reaches(adj, e.dst, v0, visited):
                    states.append(e.dst)
                    actions.append(e.action)
                    visited.add(e.dst)
                    cur = e.dst
                    break
            else:
                raise AssertionError("greedy cycle construction dead-ended")
    raise ValueError("subgraph has no cycle")


def scc_list(nodes: tuple[str, ...], succ: dict[str, set[str]]) -> list[list[str]]:
    """Tarjan's strongly connected components, recursive."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    comps: list[list[str]] = []
    counter = iter(range(len(nodes) * 2 + 1))

    def strong(v: str):
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                strong(w)
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
            comps.append(comp)

    for v in nodes:
        if v not in index:
            strong(v)
    return comps


def karp_max_mean(
    comp: list[str], edges: list[REdge], weight: Callable[[REdge], Fraction]
) -> Fraction:
    """Karp's maximum cycle mean of one strongly connected component."""
    n = len(comp)
    idx = {v: i for i, v in enumerate(comp)}
    D: list[list[Fraction | None]] = [[None] * n for _ in range(n + 1)]
    D[0][0] = Fraction(0)
    for k in range(1, n + 1):
        prev, row = D[k - 1], D[k]
        for e in edges:
            base = prev[idx[e.src]]
            if base is None:
                continue
            cand = base + weight(e)
            i = idx[e.dst]
            if row[i] is None or cand > row[i]:
                row[i] = cand
    best: Fraction | None = None
    for v in range(n):
        dn = D[n][v]
        if dn is None:
            continue
        worst: Fraction | None = None
        for k in range(n):
            dk = D[k][v]
            if dk is None:
                continue
            mean = (dn - dk) / (n - k)
            if worst is None or mean < worst:
                worst = mean
        if worst is not None and (best is None or worst > best):
            best = worst
    assert best is not None, "strongly connected component with a cycle expected"
    return best


def component_data(nodes: tuple[str, ...], edges: list[REdge]):
    succ: dict[str, set[str]] = {v: set() for v in nodes}
    for e in edges:
        succ[e.src].add(e.dst)
    out = []
    for comp in scc_list(nodes, succ):
        comp_set = set(comp)
        comp_edges = [e for e in edges if e.src in comp_set and e.dst in comp_set]
        if not comp_edges:
            continue
        if len(comp) == 1 and not any(e.src == e.dst for e in comp_edges):
            continue
        out.append((comp, comp_edges))
    return out


def potentials(
    comp: list[str], edges: list[REdge], mu: Fraction, weight: Callable[[REdge], Fraction]
) -> dict[str, Fraction]:
    pot = {v: None for v in comp}
    pot[comp[0]] = Fraction(0)
    for _ in range(len(comp) - 1):
        changed = False
        for e in edges:
            base = pot[e.src]
            if base is None:
                continue
            cand = base + weight(e) - mu
            if pot[e.dst] is None or cand > pot[e.dst]:
                pot[e.dst] = cand
                changed = True
        if not changed:
            break
    return pot


def critical_subgraph(
    nodes: tuple[str, ...], edges: list[REdge], weight: Callable[[REdge], Fraction]
) -> tuple[Fraction, list[str], list[REdge]]:
    """Maximum cycle mean plus the tight edges of every maximizing component."""
    comps = component_data(nodes, edges)
    if not comps:
        raise ValueError("graph has no cycle")
    scored = [(karp_max_mean(comp, comp_edges, weight), comp, comp_edges) for comp, comp_edges in comps]
    mu = max(s[0] for s in scored)
    crit_nodes: list[str] = []
    crit_edges: list[REdge] = []
    for value, comp, comp_edges in scored:
        if value != mu:
            continue
        pot = potentials(comp, comp_edges, mu, weight)
        tight = [e for e in comp_edges if pot[e.src] + weight(e) - mu == pot[e.dst]]
        keep = {e.src for e in tight} | {e.dst for e in tight}
        crit_nodes.extend(v for v in comp if v in keep)
        crit_edges.extend(tight)
    return mu, crit_nodes, crit_edges


def max_mean_cycle(graph: ResponseGraph) -> tuple[Fraction, MachinePath]:
    """The value and the witness cycle, with the library's tie-break."""
    edges = graph.edges()
    mu, nodes1, edges1 = critical_subgraph(graph.nodes, edges, lambda e: e.w_resp)
    _, nodes2, edges2 = critical_subgraph(tuple(nodes1), edges1, lambda e: e.w_other)
    node_order = {v: i for i, v in enumerate(graph.nodes)}
    action_order = {a: i for i, a in enumerate(graph.game.actions(graph.responder))}
    states, actions = lex_min_simple_cycle(node_order, action_order, nodes2, edges2)
    return mu, MachinePath(graph.machine, tuple(states), tuple(actions))


def max_cycle_mean(nodes: tuple[str, ...], edges: list[REdge]) -> Fraction:
    """The responder's maximum cycle mean, value only."""
    return critical_subgraph(nodes, edges, lambda e: e.w_resp)[0]


def is_sequence_forcing(
    machine: Machine, seq: ActionSeq, responder: int, game: StageGame
) -> tuple[bool, str]:
    """The library's `is_sequence_forcing`, with every cycle mean found by
    a fresh Fraction Karp on the subgraph reachable from where it starts."""
    if machine.player == responder:
        raise ValueError("responder must be the machine owner's opponent")
    if not seq.entries:
        raise ValueError("empty action sequence")
    graph = build_response_graph(machine, game)
    value = max_mean_cycle(graph)[0]
    k = len(seq)
    own = machine.player - 1
    resp = responder - 1

    q = machine.initial
    phase = 0
    seen: dict[tuple[str, int], int] = {}
    walk: list[tuple[str, int]] = []
    while (q, phase) not in seen:
        seen[(q, phase)] = len(walk)
        walk.append((q, phase))
        pair = seq.entries[phase]
        if machine.output[q] != pair[own]:
            return False, (
                f"machine outputs {machine.output[q]} at step {len(walk)} where the "
                f"sequence expects {pair[own]}"
            )
        q = machine.transition[(q, pair[resp])]
        phase = (phase + 1) % k
    cycle = walk[seen[(q, phase)] :]
    cycle_mean = sum((game.u(responder, *seq.entries[ph]) for _, ph in cycle), Fraction(0))
    cycle_mean /= len(cycle)
    if cycle_mean != value:
        return False, (
            f"following the sequence pays the responder {cycle_mean}, but the "
            f"best-response value is {value}"
        )

    walk_action: dict[str, str] = {}
    for state, ph in walk:
        a = seq.entries[ph][resp]
        prior = walk_action.get(state)
        if prior is not None and prior != a:
            return False, (
                f"state {state} is visited at two phases expecting different "
                f"responder actions ({prior} and {a}); a best response could "
                "switch phase there and leave the sequence"
            )
        walk_action[state] = a

    walk_edges = {(state, seq.entries[ph][resp]) for state, ph in walk}
    memo: dict[str, Fraction] = {}

    def best_from(start: str) -> Fraction:
        if start not in memo:
            # best cycle mean within the part of the graph reachable from `start`
            seen_states = [start]
            seen_set = {start}
            i = 0
            while i < len(seen_states):
                u = seen_states[i]
                i += 1
                for e in graph.adj[u]:
                    if e.dst not in seen_set:
                        seen_set.add(e.dst)
                        seen_states.append(e.dst)
            edges = [e for u in seen_states for e in graph.adj[u]]
            memo[start] = max_cycle_mean(tuple(seen_states), edges)
        return memo[start]

    for q in graph.nodes:
        for e in graph.adj[q]:
            if (q, e.action) in walk_edges:
                continue
            attainable = best_from(e.dst)
            if attainable >= value:
                return False, (
                    f"deviating with {e.action} at state {q} still allows cycle "
                    f"mean {attainable}; a best response may leave the sequence"
                )
    return True, "every best response must replay the sequence from the first step"
