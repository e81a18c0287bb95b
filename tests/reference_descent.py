"""Reference lean descent: the side loop `simplify_to_lean` ran before it
became a loop over `is_lean`.

Each round skips a side of measure 0, skips a side the "auto" certificate
decides, and otherwise searches that side at the given or default bound
for a strictly simpler machine that keeps the pair at Nash; player 1 comes
before player 2, and the round restarts after each replacement.
`tests/test_structure_differential.py` compares `simplify_to_lean` with it.
"""

from __future__ import annotations

from leanfa.equilibrium import (
    HOLDS,
    Measure,
    SearchBound,
    _find_deviation,
    _pair_sequence,
    _side_certificate,
    default_bound,
    is_nash,
    measure_value,
)
from leanfa.games import StageGame
from leanfa.machines import Machine


def simplify_to_lean(
    m1: Machine,
    m2: Machine,
    game: StageGame,
    measure: Measure,
    bound: SearchBound | None = None,
) -> tuple[Machine, Machine]:
    if is_nash(m1, m2, game).result != HOLDS:
        raise ValueError("simplify_to_lean requires a Nash equilibrium as input")
    current = [m1, m2]
    changed = True
    while changed:
        changed = False
        played = _pair_sequence(current[0], current[1], game)
        for i in (1, 2):
            m_i = current[i - 1]
            m_j = current[2 - i]
            M = measure_value(m_i, game, measure)
            if M == 0:
                continue
            cert = _side_certificate(game, i, m_j, measure, M, played, "lean", "auto")
            if cert is not None:
                continue
            side_bound = bound if bound is not None else default_bound(m_i, game, measure)
            dev = _find_deviation(game, i, M, m_j, measure, side_bound, require_nash=True)
            if dev is not None:
                current[i - 1] = dev
                changed = True
                break
    return current[0], current[1]
