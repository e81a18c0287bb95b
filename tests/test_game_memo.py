"""What the analysis derives from a game lives on the game and dies with it.

A game computes its minmax values and forcing actions once, and memoizes
per-machine tables and measured deviation pools in `_memo`.  The memo
takes no part in equality, hashing or pickling, and nothing outside the
game holds on to it, so a dropped game is freed with everything derived
from it.
"""

import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from conftest import random_game
from leanfa import (
    PRISONERS_DILEMMA,
    Decided,
    Measure,
    PayoffProfile,
    SearchBound,
    StageGame,
    best_response_value,
    classify_states,
    constant_machine,
    enumerate_machines,
    forcing_actions,
    is_abreu_rubinstein,
    is_lean,
    is_nash,
    minmax,
)
from leanfa.equilibrium import nash_deviator


# a small search bound: the default one grows with the measure, and past
# 3 states a player reading 3 inputs has millions of pool machines
BOUND = SearchBound(2, 1)


def _nash_pairs(game):
    pool1 = tuple(enumerate_machines(1, game, BOUND))
    pool2 = tuple(enumerate_machines(2, game, BOUND))
    return [(m1, m2) for m1 in pool1 for m2 in pool2 if nash_deviator(m1, m2, game) is None]


def _analyse_and_drop(seed):
    """Analyse a fresh random game, then return only a weak reference to it."""
    game = random_game(random.Random(seed), 2, 3)
    pairs = _nash_pairs(game)
    assert pairs
    searched = 0
    for m1, m2 in pairs[:5]:
        verdict = is_lean(m1, m2, game, Measure.NORMAL_TRANSITIONS, BOUND, "none")
        # a side that searched scored a measured pool of deviations
        searched += any(
            record.decided in (Decided.DEVIATION, Decided.COMPLETE, Decided.WITHIN_BOUND)
            for record in verdict.records
        )
        best_response_value(m1, game)
    assert searched
    return weakref.ref(game)


def test_a_dropped_game_is_freed_with_its_memo():
    ref = _analyse_and_drop(1002)
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("player", (0, 3))
def test_minmax_and_forcing_actions_reject_a_bad_player(pd, player):
    # the per-player pairs are indexed by player - 1, so a bad id must not
    # read a valid entry (index -1 or 2) or fail as an IndexError
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        minmax(pd, player)
    with pytest.raises(ValueError, match="player must be 1 or 2"):
        forcing_actions(pd, player)


def test_one_machine_gets_each_games_own_facts():
    # the PD with C and D swapped: C now holds the opponent to its minmax
    F = Fraction
    swapped = StageGame(
        "swapped",
        ("C", "D"),
        ("C", "D"),
        {
            ("C", "C"): PayoffProfile(F(0), F(0)),
            ("C", "D"): PayoffProfile(F(3), F(-1)),
            ("D", "C"): PayoffProfile(F(-1), F(3)),
            ("D", "D"): PayoffProfile(F(2), F(2)),
        },
    )
    pd = copy.copy(PRISONERS_DILEMMA)
    always_c = constant_machine(1, "C", ("C", "D"))
    for _ in range(2):  # the second round reads both memos
        assert classify_states(always_c, pd).threat_states == frozenset()
        assert classify_states(always_c, swapped).threat_states == {"q0"}
        assert best_response_value(always_c, pd) == 3
        assert best_response_value(always_c, swapped) == 0


def test_analysis_changes_neither_hash_nor_equality():
    game = random_game(random.Random(77), 2, 3)
    twin = StageGame("twin", game.actions1, game.actions2, dict(game.payoff))
    before = hash(game)
    for m1, m2 in _nash_pairs(game)[:5]:
        is_lean(m1, m2, game, Measure.NORMAL_STATES, BOUND, "none")
    assert game._memo.best_reachable
    assert hash(game) == before == hash(twin)
    assert game == twin and twin == game


def test_a_pickled_game_starts_with_an_empty_memo_and_gives_the_same_verdicts():
    game = random_game(random.Random(314), 2, 3)
    pairs = _nash_pairs(game)[:4]

    def verdicts(g):
        out = []
        for m1, m2 in pairs:
            out.append(is_nash(m1, m2, g))
            for measure in Measure:
                out.append(is_lean(m1, m2, g, measure, BOUND, "none"))
                out.append(is_abreu_rubinstein(m1, m2, g, measure, BOUND))
        return out

    expected = verdicts(game)
    assert game._memo.pools
    back = pickle.loads(pickle.dumps(game))
    assert back == game
    memo = back._memo
    assert not (memo.best_reachable or memo.classes or memo.pools)
    assert verdicts(back) == expected
