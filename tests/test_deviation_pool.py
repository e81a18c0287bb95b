"""Differential tests for the deviation search's fast paths.

Pool machines are built straight from their integer tables; they are
checked against the same machines built from name-keyed maps, read off
the canonical structures in the game's declared input order.  The
integer-scored pool, bounded by a measure value, is checked against
scoring those name-built machines with `measure_value`, sorting by
`(value, Machine._key)` and cutting at the bound; the witness-free
Nash screen is checked against `is_best_response` and `is_nash`.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from conftest import random_game, random_machine
from leanfa import (
    PRISONERS_DILEMMA,
    Machine,
    Measure,
    PayoffProfile,
    SearchBound,
    StageGame,
    classify_states,
    enumerate_machines,
    forcing_actions,
    is_best_response,
    is_nash,
    machine_to_text,
    measure_value,
)
from leanfa.equilibrium import (
    _measured_pool,
    _pool_machines,
    _pool_rows,
    _structures,
    nash_deviator,
)


def name_built_pool(game, player, max_states, max_threat):
    """(machine, output, transition) for each pool machine, in pool order,
    built by the name constructor from maps keyed in the declared order."""
    own, inputs = game.actions(player), game.actions(3 - player)
    forcing = set(forcing_actions(game, player))
    pool = []
    for n in range(1, max_states + 1):
        names = tuple(str(q) for q in range(n))
        for table in _structures(n, len(inputs)):
            targets = iter(table)
            transition = {(q, a): names[next(targets)] for q in names for a in inputs}
            absorbing = [q for q in names if all(transition[(q, a)] == q for a in inputs)]
            for outs in itertools.product(own, repeat=n):
                output = dict(zip(names, outs))
                kept = [output[q] for q in absorbing]
                if len(set(kept)) == len(kept) and sum(a in forcing for a in kept) <= max_threat:
                    machine = Machine(player, names, "0", output, transition)
                    pool.append((machine, output, transition))
    return pool


def reference_measured_pool(pool, game, measure):
    scored = [(measure_value(m, game, measure), m) for m, _, _ in pool]
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
    for max_states in range(1, top + 1):
        for max_threat in (0, 1, 2):
            pool = name_built_pool(game, player, max_states, max_threat)
            for measure in Measure:
                reference = reference_measured_pool(pool, game, measure)
                largest = reference[-1][0] if reference else 0
                for below in range(largest + 2):
                    rows = _measured_pool(game, player, max_states, max_threat, measure, below)
                    machines = _pool_machines(game, player, max_states, (r[1:] for r in rows))
                    fast = [(v, m) for (v, _, _), m in zip(rows, machines)]
                    assert fast == [(v, m) for v, m in reference if v < below], (
                        measure,
                        max_states,
                        max_threat,
                        below,
                    )


# under delta, a 4-state structure with absorbing states entered 4 and 3
# times has floor 4, and 5 with the less-entered one as threat: below 5
# tells the two apart
@pytest.mark.parametrize(
    "measure,belows",
    [(Measure.NORMAL_STATES, (1, 2, 3, 4)), (Measure.NORMAL_TRANSITIONS, (3, 5, 6, 7))],
)
def test_structure_floor_skip_keeps_every_row_below_the_bound_at_cap_4(measure, belows):
    # with no bound to skip against, every structure's rows are generated
    unskipped = list(_pool_rows(PRISONERS_DILEMMA, 1, 4, 1, measure, 10**9))
    for below in belows:
        rows = list(_pool_rows(PRISONERS_DILEMMA, 1, 4, 1, measure, below))
        assert rows == [row for row in unskipped if row[0] < below], below


def test_pool_memo_keeps_one_pool_per_measure_across_bounds():
    game = copy.copy(PRISONERS_DILEMMA)
    for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
        for below in range(5, 0, -1):
            rows = _measured_pool(game, 1, 3, 1, measure, below)
            assert rows == _measured_pool(copy.copy(game), 1, 3, 1, measure, below), below
    assert len(game._memo.pools) == 2


def _pool_cases():
    rng = random.Random(1986)
    cases = [
        pytest.param(random_game(rng), p, id=f"random{k}-p{p}") for k in range(2) for p in (1, 2)
    ]
    unsorted = unsorted_game(rng)
    return cases + [pytest.param(unsorted, p, id=f"unsorted-p{p}") for p in (1, 2)]


@pytest.mark.parametrize("game,player", _pool_cases())
def test_table_built_pool_machines_match_the_name_constructor(game, player):
    for cap in (1, 2, 3):
        # fresh copies of the game, dropped after each cap, so the reports
        # memoized for a 64k-machine pool do not outlive the test; the two
        # sides classify under different copies, so each report is computed
        fresh, twin = copy.copy(game), copy.copy(game)
        pool = tuple(enumerate_machines(player, fresh, SearchBound(cap, cap)))
        reference = name_built_pool(game, player, cap, cap)
        assert len(pool) == len(reference)
        # every machine is compared whole; the derived forms on at least
        # 4,000 of them, evenly spread (unsorted-p2 has 63,922 at cap 3)
        every = max(1, len(pool) // 4000)
        for k, (m, (ref, output, transition)) in enumerate(zip(pool, reference)):
            assert m == ref and hash(m) == hash(ref) and m._key == ref._key
            if k % every:
                continue
            assert m.output == output and m.transition == transition
            assert machine_to_text(m) == machine_to_text(ref)
            assert classify_states(m, fresh) == classify_states(ref, twin)
            back = pickle.loads(pickle.dumps(m))
            assert back == m and back.name == m.name and back._nxt == m._nxt


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
