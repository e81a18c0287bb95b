import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leanfa import (
    ParseError,
    PayoffProfile,
    StageGame,
    convex_combination,
    forcing_actions,
    is_enforceable,
    is_strictly_enforceable,
    minmax,
    parse_game,
    parse_rational,
)
from leanfa.games import game_to_text

from conftest import random_game

F = Fraction

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def test_minmax_pd_is_zero_for_both(pd):
    assert minmax(pd, 1) == 0
    assert minmax(pd, 2) == 0


def test_minmax_single_cell_game():
    game = StageGame("one", ("a",), ("b",), {("a", "b"): PayoffProfile(F(5), F(7))})
    assert minmax(game, 1) == 5
    assert minmax(game, 2) == 7


def _minmax_brute(game, player):
    # same definition recomputed with explicit loops over the raw table,
    # to catch orientation mistakes in the production implementation
    opp = 3 - player
    values = []
    for b in game.actions(opp):
        col = []
        for a in game.actions(player):
            pair = (a, b) if player == 1 else (b, a)
            col.append(game.payoff[pair].for_player(player))
        values.append(max(col))
    return min(values)


def test_minmax_matches_brute_force_on_random_tables():
    rng = random.Random(11)
    for _ in range(200):
        game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
        for player in (1, 2):
            assert minmax(game, player) == _minmax_brute(game, player)


def test_forcing_actions_pd(pd):
    assert forcing_actions(pd, 1) == ("D",)
    assert forcing_actions(pd, 2) == ("D",)


def test_convex_combination_examples():
    half = F(1, 2)
    assert convex_combination(
        [PayoffProfile(F(2), F(2)), PayoffProfile(F(0), F(0))], [half, half]
    ) == PayoffProfile(F(1), F(1))
    assert convex_combination([PayoffProfile(F(2), F(2))], [F(1)]) == PayoffProfile(F(2), F(2))
    assert convex_combination(
        [PayoffProfile(F(2), F(2)), PayoffProfile(F(-1), F(3))], [half, half]
    ) == PayoffProfile(F(1, 2), F(5, 2))


@pytest.mark.parametrize(
    "weights",
    [
        [F(1, 2), F(1, 4)],  # sum != 1
        [F(3, 2), F(-1, 2)],  # negative
        [F(1)],  # length mismatch
    ],
)
def test_convex_combination_rejects_bad_weights(weights):
    profiles = [PayoffProfile(F(1), F(1)), PayoffProfile(F(0), F(0))]
    with pytest.raises(ValueError):
        convex_combination(profiles, weights)


@given(
    st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5).flatmap(
        lambda pts: st.lists(
            st.integers(min_value=0, max_value=10), min_size=len(pts), max_size=len(pts)
        ).map(lambda ws: (pts, ws))
    )
)
def test_convex_combination_stays_in_bounds(data):
    points, raw = data
    total = sum(raw)
    if total == 0:
        raw = [1] * len(raw)
        total = len(raw)
    weights = [F(w, total) for w in raw]
    profiles = [PayoffProfile(p, q) for p, q in points]
    out = convex_combination(profiles, weights)
    assert min(p.p1 for p in profiles) <= out.p1 <= max(p.p1 for p in profiles)
    assert min(p.p2 for p in profiles) <= out.p2 <= max(p.p2 for p in profiles)


def test_enforceability_pd(pd):
    assert is_strictly_enforceable(pd, PayoffProfile(F(1), F(1)))
    assert not is_strictly_enforceable(pd, PayoffProfile(F(0), F(0)))
    assert is_enforceable(pd, PayoffProfile(F(0), F(0)))
    assert is_strictly_enforceable(pd, PayoffProfile(F(2, 3), F(2, 3)))


@given(rationals, rationals)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a
    assert (a * b != 0) == (a != 0 and b != 0)


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == F(-7)
    with pytest.raises(ParseError):
        parse_rational("1.5e3x")
    with pytest.raises(ParseError):
        parse_rational("1/0")


PD_TEXT = """
# the standard table
game pd
actions 1: C D
actions 2: C D
payoff C C = 2 2
payoff C D = -1 3
payoff D C = 3 -1
payoff D D = 0 0
"""


def test_parse_game_round_trip(pd):
    game = parse_game(PD_TEXT)
    assert game == pd
    again = parse_game(game_to_text(game))
    assert again == game


def test_parse_game_reports_line_numbers():
    bad = PD_TEXT.replace("payoff D D = 0 0", "payoff D D = 0")
    with pytest.raises(ParseError) as err:
        parse_game(bad)
    assert "line 9" in str(err.value)


def test_parse_game_missing_cell():
    lines = [l for l in PD_TEXT.strip().splitlines() if "D D" not in l]
    with pytest.raises(ParseError) as err:
        parse_game("\n".join(lines))
    assert "missing payoff" in str(err.value)


def test_parse_game_duplicate_cell():
    with pytest.raises(ParseError) as err:
        parse_game(PD_TEXT + "payoff C C = 2 2\n")
    assert "duplicate" in str(err.value)


def test_game_equality_ignores_name(pd):
    renamed = parse_game(PD_TEXT.replace("game pd", "game other"))
    assert renamed == pd


def test_payoff_table_is_frozen_and_pickles():
    rng = random.Random(5)
    game = random_game(rng)
    table = dict(game.payoff)
    copy = StageGame("copy", game.actions1, game.actions2, table)
    table[("a0", "b0")] = PayoffProfile(F(99), F(99))  # the caller's dict stays theirs
    assert copy == game and hash(copy) == hash(game)
    with pytest.raises(TypeError):
        game.payoff[("a0", "b0")] = PayoffProfile(F(99), F(99))
    back = pickle.loads(pickle.dumps(game))
    assert back == game and hash(back) == hash(game)
    assert back.name == game.name and back.payoff == game.payoff
