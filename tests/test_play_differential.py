"""The integer play and Nash screen against the name and Fraction path.

`reference_play` walks state names through the `output` and `transition`
maps and compares `Fraction` payoffs, as the library once did.  Both must
give the same `Play`, the same `nash_deviator` and `is_best_response`, the
same best-response value as the plain Fraction Karp, and the same
`ValueError` text for machines that do not fit together.

The machines' states are listed in shuffled order, so the initial state's
index varies, and one game declares its actions out of sorted-name order,
as a machine's `input_actions` are sorted by name.
"""

import random
from fractions import Fraction

import pytest

from leanfa import (
    PRISONERS_DILEMMA,
    Machine,
    PayoffProfile,
    SearchBound,
    StageGame,
    best_response_value,
    constant_machine,
    enumerate_machines,
    is_best_response,
    simulate,
)
from leanfa.equilibrium import nash_deviator

import reference_play as ref
from conftest import random_game, random_machine

SHAPES = ((2, 2), (2, 3), (3, 2))


def shuffled(machine: Machine, rng: random.Random) -> Machine:
    """The same machine with its states listed in a random order."""
    states = list(machine.states)
    rng.shuffle(states)
    return Machine(
        machine.player, tuple(states), machine.initial, machine.output, machine.transition
    )


def unsorted_game(rng: random.Random) -> StageGame:
    """Three actions per player, declared out of sorted-name order."""
    actions1 = ("x", "b10", "b9")
    actions2 = ("D", "C", "A")
    table = {
        (p, q): PayoffProfile(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        )
        for p in actions1
        for q in actions2
    }
    return StageGame("unsorted", actions1, actions2, table)


def assert_same(m1: Machine, m2: Machine, game: StageGame) -> None:
    play = ref.simulate(m1, m2)
    assert simulate(m1, m2) == play
    deviator = ref.nash_deviator(m1, m2, game)
    assert nash_deviator(m1, m2, game) == deviator
    for m_i, m_j in ((m1, m2), (m2, m1)):
        assert best_response_value(m_j, game) == ref.best_response_value(m_j, game)
        payoff = sum((game.u(m_i.player, *a) for _, a in play.cycle), Fraction(0))
        expected = payoff / len(play.cycle) == ref.best_response_value(m_j, game)
        assert is_best_response(m_i, m_j, game) == expected


def random_pairs(rng: random.Random, game: StageGame, count: int, most: int):
    for _ in range(count):
        yield tuple(
            shuffled(random_machine(rng, p, game, rng.randint(1, most)), rng) for p in (1, 2)
        )


def test_whole_two_state_pd_space():
    bound = SearchBound(2, 2)
    pool1, pool2 = (tuple(enumerate_machines(p, PRISONERS_DILEMMA, bound)) for p in (1, 2))
    assert len(pool1) * len(pool2) == 2500
    deviators = set()
    for m1 in pool1:
        for m2 in pool2:
            assert_same(m1, m2, PRISONERS_DILEMMA)
            deviators.add(nash_deviator(m1, m2, PRISONERS_DILEMMA))
    assert deviators == {None, 1, 2}


def test_random_pairs_on_non_integer_games():
    rng = random.Random(1986)
    checked = 0
    while checked < 320:
        game = random_game(rng, *rng.choice(SHAPES))
        if game.scale == 1:
            continue
        for m1, m2 in random_pairs(rng, game, 8, 5):
            assert_same(m1, m2, game)
            checked += 1


def test_actions_declared_out_of_sorted_order():
    rng = random.Random(1988)
    game = unsorted_game(rng)
    assert game.scale > 1
    for m1, m2 in random_pairs(rng, game, 300, 4):
        assert m1.input_actions != game.actions2
        assert_same(m1, m2, game)
    bound = SearchBound(2, 1)
    pool1, pool2 = (tuple(enumerate_machines(p, game, bound))[::7] for p in (1, 2))
    for m1 in pool1:
        for m2 in pool2:
            assert_same(m1, m2, game)


def _error(call, *args) -> str:
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def test_machines_that_do_not_fit_raise_the_same_errors():
    rng = random.Random(7)
    pd = PRISONERS_DILEMMA
    game = random_game(rng, 2, 3)
    pd1, pd2 = (random_machine(rng, p, pd, 2) for p in (1, 2))
    other1, other2 = (random_machine(rng, p, game, 2) for p in (1, 2))
    # a player-1 machine that reads only "C" cannot follow a defector
    narrow = Machine(1, ("q",), "q", {"q": "C"}, {("q", "C"): "q"})
    defector = constant_machine(2, "D", pd.actions1)
    cases = [(pd1, other2), (other1, pd2), (narrow, defector), (pd2, pd1), (pd1, pd1)]
    messages = set()
    for m1, m2 in cases:
        expected = _error(ref.simulate, m1, m2)
        assert _error(simulate, m1, m2) == expected
        assert _error(nash_deviator, m1, m2, pd) == expected
        messages.add(expected)
    assert messages == {
        "alphabet mismatch: machines built for different action sets",
        "simulate expects (player-1 machine, player-2 machine)",
    }
