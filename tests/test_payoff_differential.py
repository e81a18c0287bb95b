"""Payoff means on the game's integer table against the plain Fraction sums.

`reference_payoff` sums `game.u(...)` into Fractions, as the library once
did.  Every game here has a non-integer payoff, so its scale is above 1.
The means, the rigidity verdicts and the foolability witnesses must agree
exactly, first offending rotation and first witness included.
"""

import itertools
import random

from leanfa import (
    ActionSeq,
    MachinePath,
    finite_mean_payoff,
    is_foolable,
    is_rigid,
    limit_mean_payoff,
    path_payoff,
    seq_payoff,
    simulate,
)

import reference_payoff as ref
from conftest import random_game, random_machine

SHAPES = ((2, 2), (2, 3), (3, 2))


def non_integer_game(rng):
    while True:
        game = random_game(rng, *rng.choice(SHAPES))
        if game.scale > 1:
            return game


def random_walk(rng, machine, length):
    states = [rng.choice(machine.states)]
    actions = []
    for _ in range(length):
        a = rng.choice(machine.input_actions)
        actions.append(a)
        states.append(machine.transition[(states[-1], a)])
    return MachinePath(machine, tuple(states), tuple(actions))


def test_play_and_path_means_match_the_fraction_reference():
    rng = random.Random(71)
    for _ in range(300):
        game = non_integer_game(rng)
        m1 = random_machine(rng, 1, game, rng.randint(1, 5))
        m2 = random_machine(rng, 2, game, rng.randint(1, 5))
        play = simulate(m1, m2)
        assert limit_mean_payoff(play, game) == ref.limit_mean_payoff(play, game)
        for horizon in range(1, 2 * play.horizon + 1):
            assert finite_mean_payoff(play, game, horizon) == ref.finite_mean_payoff(
                play, game, horizon
            )
        for m in (m1, m2):
            path = random_walk(rng, m, rng.randint(1, 6))
            for player in (1, 2):
                assert path_payoff(path, game, player) == ref.path_payoff(path, game, player)


def test_sequence_certificates_match_the_fraction_reference():
    rng = random.Random(72)
    witnesses = rigid_failures = 0
    for _ in range(600):
        game = non_integer_game(rng)
        entries = tuple(
            (rng.choice(game.actions1), rng.choice(game.actions2))
            for _ in range(rng.randint(1, 6))
        )
        # repeat an entry now and then so equal prefix means occur
        if len(entries) > 2 and rng.random() < 0.5:
            entries = entries[: len(entries) // 2] * 2
        seq = ActionSeq(entries)
        assert seq_payoff(seq, game) == ref.seq_payoff(seq, game)
        for player in (1, 2):
            own = game.actions(player)
            for size in range(1, len(own) + 1):
                for subset in itertools.combinations(own, size):
                    got = is_rigid(seq, player, frozenset(subset), game)
                    assert got == ref.is_rigid(seq, player, frozenset(subset), game)
                    rigid_failures += not got.rigid
            got = is_foolable(seq, player, game)
            assert got == ref.is_foolable(seq, player, game)
            witnesses += got is not None
    # both outcomes of both certificates were exercised
    assert witnesses > 50 and rigid_failures > 50
