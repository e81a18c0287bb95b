"""The integer-scaled Karp against the plain Fraction Karp in reference_karp.

Random games have non-integer payoffs, so every game's scaled table has an
LCM above 1. Three things must agree exactly: the value and the witness cycle
of `max_mean_cycle`, the value of `best_response_value`, and the
`(bool, note)` of `is_sequence_forcing`, which the reference decides with a
separate Karp run per off-walk step rather than one pass over the
components.
"""

import itertools
import random

from leanfa import (
    PRISONERS_DILEMMA,
    ActionSeq,
    best_response_value,
    build_trigger_machines,
    is_sequence_forcing,
    is_strictly_enforceable_seq,
    max_mean_cycle,
)

import reference_karp as ref
from conftest import random_game, random_machine

SHAPES = ((2, 2), (2, 3), (3, 2))


def non_integer_games(rng, count):
    games = []
    while len(games) < count:
        game = random_game(rng, *rng.choice(SHAPES))
        if any(x.denominator > 1 for p in game.payoff.values() for x in p):
            games.append(game)
    return games


def test_max_mean_cycle_and_value_match_the_fraction_reference():
    rng = random.Random(20261018)
    games = non_integer_games(rng, 200)
    checked = 0
    for game in games:
        for _ in range(51):
            machine = random_machine(rng, rng.choice((1, 2)), game, rng.randint(1, 6))
            value, witness = max_mean_cycle(machine, game)
            ref_value, ref_witness = ref.max_mean_cycle(ref.build_response_graph(machine, game))
            assert value == ref_value
            assert (witness.states, witness.actions) == (ref_witness.states, ref_witness.actions)
            assert best_response_value(machine, game) == ref_value
            checked += 1
    assert checked >= 10_000


def test_sequence_forcing_matches_the_reference_on_pd_trigger_pairs():
    pd = PRISONERS_DILEMMA
    cells = list(itertools.product(pd.actions1, pd.actions2))
    checked = 0
    for length in range(1, 6):
        for entries in itertools.product(cells, repeat=length):
            seq = ActionSeq(entries)
            if not is_strictly_enforceable_seq(seq, pd):
                continue
            m1, m2 = build_trigger_machines(seq, pd)
            for machine, responder in ((m2, 1), (m1, 2)):
                fast = is_sequence_forcing(machine, seq, responder, pd)
                assert fast == ref.is_sequence_forcing(machine, seq, responder, pd)
                checked += 1
    assert checked > 1000


def test_sequence_forcing_matches_the_reference_on_random_machines():
    rng = random.Random(4)
    outcomes = set()
    for game in non_integer_games(rng, 100):
        for _ in range(10):
            player = rng.choice((1, 2))
            machine = random_machine(rng, player, game, rng.randint(1, 5))
            responder = 3 - player
            # each step follows the machine's output with probability 1/2, so
            # some sequences get past the output check to the later checks
            q, entries = machine.initial, []
            for _ in range(rng.randint(1, 4)):
                own = machine.output[q] if rng.random() < 0.5 else rng.choice(game.actions(player))
                reply = rng.choice(game.actions(responder))
                entries.append((own, reply) if player == 1 else (reply, own))
                q = machine.transition[(q, reply)]
            seq = ActionSeq(tuple(entries))
            fast = is_sequence_forcing(machine, seq, responder, game)
            assert fast == ref.is_sequence_forcing(machine, seq, responder, game)
            outcomes.add(fast[1].split()[0])
    # the output, value and deviation checks all decided some cases
    assert {"machine", "following", "deviating"} <= outcomes

