"""Maximum cycle mean computed entirely in exact `Fraction`s.

This is the plain form of Karp's algorithm and of the critical-subgraph
witness search that `leanfa.cycles` runs on integer-scaled weights. The
differential tests compare the two on random machines; only the witness's
final lex-min cycle step is shared with the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from leanfa.cycles import MachinePath, REdge, ResponseGraph, _lex_min_simple_cycle


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
    states, actions = _lex_min_simple_cycle(node_order, action_order, nodes2, edges2)
    return mu, MachinePath(graph.machine, tuple(states), tuple(actions))


def max_cycle_mean(nodes: tuple[str, ...], edges: list[REdge]) -> Fraction:
    """The responder's maximum cycle mean, value only."""
    return critical_subgraph(nodes, edges, lambda e: e.w_resp)[0]
