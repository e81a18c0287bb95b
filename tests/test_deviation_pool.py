"""Differential tests for the deviation search's fast paths.

The integer-scored pool, bounded by a measure value, is checked against
scoring whole `Machine`s with `measure_value`, sorting by
`(value, Machine._key)` and cutting at the bound; the witness-free
Nash screen is checked against `is_best_response` and `is_nash`.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_game, random_machine
from leanfa import Measure, PayoffProfile, StageGame, is_best_response, is_nash, measure_value
from leanfa.equilibrium import _machine_pool, _measured_pool, _row_machines, nash_deviator


def reference_measured_pool(game, player, max_states, max_threat, measure):
    pool = _machine_pool(game, player, max_states, max_threat)
    scored = [(measure_value(m, game, measure), m) for m in pool]
    scored.sort(key=lambda pair: (pair[0], pair[1]._key))
    return scored


def unsorted_game(rng: random.Random) -> StageGame:
    """Three actions for player 1 and two for player 2, none in sorted order.

    The machine key compares action names as strings, so a declared order
    that differs from the sorted one changes the candidate order.
    """
    actions1 = ("x", "b10", "b9")
    actions2 = ("D", "C")
    table = {
        (p, q): PayoffProfile(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        )
        for p in actions1
        for q in actions2
    }
    return StageGame("unsorted", actions1, actions2, table)


def _cases():
    rng = random.Random(20100223)
    games = [random_game(rng) for _ in range(3)]
    cases = [
        pytest.param(g, p, 3, id=f"random{k}-p{p}") for k, g in enumerate(games) for p in (1, 2)
    ]
    unsorted = unsorted_game(rng)
    # player 2 reads three inputs, and its 3-state pool alone holds 63,922
    # machines (about 50 s through the reference); 2 states already order
    # its transitions by input name
    cases += [
        pytest.param(unsorted, 1, 3, id="unsorted-p1"),
        pytest.param(unsorted, 2, 2, id="unsorted-p2"),
    ]
    return cases


@pytest.mark.parametrize("game,player,top", _cases())
def test_measured_pool_matches_machine_scoring(game, player, top):
    for measure in Measure:
        for max_states in range(1, top + 1):
            for max_threat in (0, 1, 2):
                reference = reference_measured_pool(
                    game, player, max_states, max_threat, measure
                )
                largest = reference[-1][0] if reference else 0
                build = _row_machines(game, player, max_states)
                for below in range(largest + 2):
                    rows = _measured_pool(game, player, max_states, max_threat, measure, below)
                    fast = [(v, build(t, o)) for v, t, o in rows]
                    assert fast == [(v, m) for v, m in reference if v < below], (
                        measure,
                        max_states,
                        max_threat,
                        below,
                    )


def test_nash_deviator_agrees_with_is_nash():
    rng = random.Random(1988)
    for _ in range(300):
        game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
        m1 = random_machine(rng, 1, game, rng.randint(1, 4))
        m2 = random_machine(rng, 2, game, rng.randint(1, 4))
        if not is_best_response(m1, m2, game):
            expected = 1
        elif not is_best_response(m2, m1, game):
            expected = 2
        else:
            expected = None
        assert nash_deviator(m1, m2, game) == expected
        verdict = is_nash(m1, m2, game)
        assert verdict.witness_player == expected
        if expected is not None:
            opp = m2 if expected == 1 else m1
            assert is_best_response(verdict.witness, opp, game)
