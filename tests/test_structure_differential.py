"""The structure validators and `simplify_to_lean` against the code they
replaced.

`infer_machines` decides each side by comparing the player's state
partition with the suffix partition; `tests/reference_structure.py` keeps
the hand-written isomorphism check it replaced.  The same module keeps the
grouped-tuple partitions that the label words replaced, the backward
first-reuse scan and the per-class skeleton loop.  `simplify_to_lean` loops
over `is_lean`; `tests/reference_descent.py` keeps the side loop it
replaced.  Both must agree on every case, down to the witness machines'
names.
"""

from __future__ import annotations

import random

import pytest

import reference_descent
import reference_structure
from conftest import random_game, random_machine
from leanfa import (
    PRISONERS_DILEMMA,
    Measure,
    Relation,
    SearchBound,
    check_first_reuse,
    check_relation_equalities,
    enumerate_machines,
    equivalence_relation,
    infer_machines,
    is_nash,
    simplify_to_lean,
    simulate,
)
from leanfa.equilibrium import HOLDS

TWO_STATES = SearchBound(2, 2)


def _pairs(game):
    pool2 = list(enumerate_machines(2, game, TWO_STATES))
    return [(m1, m2) for m1 in enumerate_machines(1, game, TWO_STATES) for m2 in pool2]


def _nash_pairs(game):
    return [(m1, m2) for m1, m2 in _pairs(game) if is_nash(m1, m2, game).result == HOLDS]


def _check_inference(m1, m2, game) -> tuple[bool, bool]:
    report = infer_machines(m1, m2, game)
    play = simulate(m1, m2)
    suffix = equivalence_relation(play, Relation.SUFFIX)
    expected = tuple(
        reference_structure.skeleton_matches(sk, m, play, suffix)[0]
        for sk, m in zip(report.skeletons, (m1, m2))
    )
    assert report.isomorphic == expected, (m1, m2)
    # all four time relations equal the suffix one exactly when both state
    # relations do: the state-pair partition is their common refinement
    assert check_relation_equalities(m1, m2, game).ok == all(expected), (m1, m2)
    return expected


def test_inference_matches_the_reference_on_all_2_state_pd_pairs():
    pairs = _pairs(PRISONERS_DILEMMA)
    assert len(pairs) == 2500
    outcomes = {_check_inference(m1, m2, PRISONERS_DILEMMA) for m1, m2 in pairs}
    assert outcomes == {(a, b) for a in (True, False) for b in (True, False)}


def test_inference_matches_the_reference_on_random_pairs():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        for _ in range(50):
            m1 = random_machine(rng, 1, game, rng.randint(1, 4))
            m2 = random_machine(rng, 2, game, rng.randint(1, 4))
            outcomes.add(_check_inference(m1, m2, game))
    assert len(outcomes) == 4


def _check_structure(m1, m2, game) -> None:
    play = simulate(m1, m2)
    want = reference_structure.relations(play)
    got = {rel: equivalence_relation(play, rel) for rel in Relation}
    times = range(1, 2 * play.horizon + 2)  # past the horizon too
    for rel, part in got.items():
        assert part.classes == want[rel].classes, (m1, m2, rel)
        assert [part.class_of(t) for t in times] == [want[rel].class_of(t) for t in times]
        for other in Relation:
            assert part.same_partition(got[other]) == want[rel].same_partition(want[other])
            assert part.refines(got[other]) == want[rel].refines(want[other]), (rel, other)
    first_reuse = reference_structure.check_first_reuse(m1, m2, game)
    assert check_first_reuse(m1, m2, game) == first_reuse, (m1, m2)
    skeletons = tuple(
        reference_structure.build_skeleton(play, want[Relation.SUFFIX], player) for player in (1, 2)
    )
    assert infer_machines(m1, m2, game).skeletons == skeletons, (m1, m2)


def test_structure_matches_the_reference_on_all_2_state_pd_pairs():
    for m1, m2 in _pairs(PRISONERS_DILEMMA):
        _check_structure(m1, m2, PRISONERS_DILEMMA)


def test_structure_matches_the_reference_on_random_pairs():
    rng = random.Random(20)
    for _ in range(20):
        game = random_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        for _ in range(50):
            m1 = random_machine(rng, 1, game, rng.randint(1, 6))
            m2 = random_machine(rng, 2, game, rng.randint(1, 6))
            _check_structure(m1, m2, game)


def _check_descents(pairs, game) -> int:
    """Compare every descent under Q/R/delta at the default bound and at
    `SearchBound(2, 1)`; returns how many moved a machine."""
    moved = 0
    for bound in (None, SearchBound(2, 1)):
        for measure in Measure:
            for m1, m2 in pairs:
                got = simplify_to_lean(m1, m2, game, measure, bound)
                want = reference_descent.simplify_to_lean(m1, m2, game, measure, bound)
                assert got == want, (m1, m2, measure, bound)
                assert [m.name for m in got] == [m.name for m in want]
                moved += got != (m1, m2)
    return moved


def test_descent_matches_the_reference_on_all_2_state_pd_nash_pairs():
    pairs = _nash_pairs(PRISONERS_DILEMMA)
    assert len(pairs) == 224
    assert _check_descents(pairs, PRISONERS_DILEMMA) > 0


@pytest.mark.parametrize("seed", [0, 3, 4])
def test_descent_matches_the_reference_in_random_2x2_games(seed):
    rng = random.Random(seed)
    game = random_game(rng)
    pairs = _nash_pairs(game)
    assert _check_descents(rng.sample(pairs, min(60, len(pairs))), game) > 0
