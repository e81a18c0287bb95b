"""Test-only oracles: independent checks that the library itself does not need.

`enumerate_simple_cycles` and `subcycle_decompose` check the maximum
cycle mean by brute force, `convex_combination` recombines subcycle means,
`ar_implies_lean` audits that an AR verdict implies a lean verdict, and
`max_abs_payoff` bounds finite-horizon means.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from leanfa import (
    MachinePath,
    Measure,
    PayoffProfile,
    SearchBound,
    StageGame,
    is_abreu_rubinstein,
    is_lean,
)
from leanfa.cli import budget_from_env

from reference_karp import ResponseGraph


def max_abs_payoff(game: StageGame) -> Fraction:
    return max(max(abs(p.p1), abs(p.p2)) for p in game.payoff.values())


def convex_combination(
    profiles: Iterable[PayoffProfile], weights: Iterable[Fraction]
) -> PayoffProfile:
    """Componentwise weighted sum of payoff profiles, exact."""
    profiles = list(profiles)
    weights = [Fraction(w) for w in weights]
    if len(profiles) != len(weights):
        raise ValueError("invalid weights: length mismatch with profiles")
    if any(w < 0 for w in weights):
        raise ValueError("invalid weights: negative weight")
    if sum(weights, Fraction(0)) != 1:
        raise ValueError("invalid weights: weights must sum to 1")
    p1 = sum((w * p.p1 for w, p in zip(weights, profiles)), Fraction(0))
    p2 = sum((w * p.p2 for w, p in zip(weights, profiles)), Fraction(0))
    return PayoffProfile(p1, p2)


def subcycle_decompose(
    path: MachinePath,
) -> tuple[MachinePath, MachinePath] | None:
    """Split a non-simple cycle at its first repeated state.

    Returns the contiguous subcycle between the two occurrences and its
    wrap-around complement, whose concatenation is the original cycle; the
    original mean payoff is then a convex combination of the two parts.
    Returns None when the cycle is simple.
    """
    if not path.is_cycle:
        raise ValueError("not a cycle: endpoints differ")
    inner = path.states[:-1]
    m = len(inner)
    split = None
    for n in range(m):
        for n2 in range(n + 1, m):
            if inner[n] == inner[n2]:
                split = (n + 1, n2 + 1)
                break
        if split:
            break
    if split is None:
        return None
    n, n2 = split
    first = MachinePath(path.machine, path.states[n - 1 : n2], path.actions[n - 1 : n2 - 1])
    wrap_states = path.states[n2 - 1 : m + 1] + path.states[1:n]
    wrap_actions = path.actions[n2 - 1 : m] + path.actions[0 : n - 1]
    second = MachinePath(path.machine, wrap_states, wrap_actions)
    return first, second


def enumerate_simple_cycles(
    graph: ResponseGraph, budget: int | None = None
) -> Iterator[MachinePath]:
    """All simple cycles of the response graph, one per edge sequence.

    Intended as an independent check on the maximum-cycle-mean computation;
    guarded by a cycle-count budget (LEANFA_BUDGET overrides the default).
    """
    if budget is None:
        budget = budget_from_env()
    order = {v: i for i, v in enumerate(graph.nodes)}
    emitted = 0
    for v0 in graph.nodes:
        base = order[v0]
        path_states = [v0]
        path_actions: list[str] = []
        # a depth-first walk over paths from v0 through higher-ordered
        # nodes, one edge iterator per path state, so deep paths need no
        # recursion
        stack = [iter(graph.adj[v0])]
        while stack:
            for e in stack[-1]:
                if e.dst == v0:
                    emitted += 1
                    if emitted > budget:
                        raise RuntimeError(
                            f"simple-cycle budget {budget} exceeded; "
                            "set LEANFA_BUDGET to raise it"
                        )
                    yield MachinePath(
                        graph.machine,
                        tuple(path_states) + (v0,),
                        tuple(path_actions) + (e.action,),
                    )
                elif order[e.dst] > base and e.dst not in path_states:
                    path_states.append(e.dst)
                    path_actions.append(e.action)
                    stack.append(iter(graph.adj[e.dst]))
                    break
            else:
                stack.pop()
                if stack:  # the exhausted state was the end of the path
                    path_states.pop()
                    path_actions.pop()


def ar_implies_lean(
    m1: Machine,
    m2: Machine,
    game: StageGame,
    measure: Measure,
    bound: SearchBound | None = None,
) -> bool:
    """Audit helper: an AR verdict at a bound implies a lean verdict at it."""
    ar = is_abreu_rubinstein(m1, m2, game, measure, bound)
    if not ar.holds:
        return True
    return is_lean(m1, m2, game, measure, bound).holds
