"""A machine pair's play and the Nash screen on names and `Fraction`s.

These are the plain forms of what `leanfa` runs on each machine's integer
table: `simulate` walks state names through the `output` and `transition`
maps, and `nash_deviator` compares `Fraction` payoffs with the plain
Fraction Karp of `reference_karp`.  The differential tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from leanfa import Machine, StageGame
from leanfa.machines import Play, Step

import reference_karp
import reference_payoff


def simulate(m1: Machine, m2: Machine) -> Play:
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


@lru_cache(maxsize=None)
def best_response_value(machine: Machine, game: StageGame) -> Fraction:
    return reference_karp.max_mean_cycle(reference_karp.build_response_graph(machine, game))[0]


def nash_deviator(m1: Machine, m2: Machine, game: StageGame) -> int | None:
    payoff = reference_payoff.limit_mean_payoff(simulate(m1, m2), game)
    for i, m_j in ((1, m2), (2, m1)):
        if payoff.for_player(i) != best_response_value(m_j, game):
            return i
    return None
