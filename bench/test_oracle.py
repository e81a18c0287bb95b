"""Hand-worked cases for the benchmark's oracle.

Run with `python3 -m pytest bench/test_oracle.py`. Each expected value
below is worked out on paper from the prisoner's dilemma table
C,C->(2,2); C,D->(-1,3); D,C->(3,-1); D,D->(0,0).
"""

from fractions import Fraction

import oracle


def grim(player):
    # cooperate until the opponent defects, then defect forever
    nxt = {("g0", "C"): "g0", ("g0", "D"): "g1", ("g1", "C"): "g1", ("g1", "D"): "g1"}
    return oracle.Table(player, ("g0", "g1"), "g0", {"g0": "C", "g1": "D"}, nxt)


def always(player, action):
    return oracle.Table(player, ("q",), "q", {"q": action}, {("q", "C"): "q", ("q", "D"): "q"})


def trigger_pair():
    # the trigger pair for (C,C) (C,D): two sequence states and a punish state each
    m1 = oracle.parse_machine(
        """machine trigger1 player=1
        start 1
        state 1 out=C
        state 2 out=C
        state punish out=D
        1 --C--> 2
        1 --D--> punish
        2 --C--> punish
        2 --D--> 1
        punish --C--> punish
        punish --D--> punish"""
    )
    m2 = oracle.parse_machine(
        """machine trigger2 player=2
        start 1
        state 1 out=C
        state 2 out=D
        state punish out=D
        1 --C--> 2
        1 --D--> punish
        2 --C--> 1
        2 --D--> punish
        punish --C--> punish
        punish --D--> punish"""
    )
    return m1, m2


def test_minmax_and_forcing_action():
    # a defector holds the opponent to max(-1, 0) = 0, a cooperator only to 3
    assert oracle.minmax(1) == oracle.minmax(2) == 0
    assert oracle.forcing(1) == oracle.forcing(2) == frozenset({"D"})


def test_grim_against_grim_is_nash_at_2_2():
    assert oracle.play(grim(1), grim(2)) == ([], [("C", "C")])
    assert oracle.payoff(grim(1), grim(2)) == (2, 2)
    # against grim: cooperating forever pays 2, any defection ends in (D,D) at 0
    assert oracle.br_value(grim(2)) == 2
    assert oracle.Oracle().is_nash(grim(1), grim(2))


def test_always_defect_against_grim_is_not_nash():
    # (D,C) once, then (D,D) forever: the limit mean is 0 for both
    assert oracle.play(always(1, "D"), grim(2)) == ([("D", "C")], [("D", "D")])
    assert oracle.payoff(always(1, "D"), grim(2)) == (0, 0)
    assert not oracle.Oracle().is_nash(always(1, "D"), grim(2))


def test_best_response_to_always_cooperate_is_defection():
    assert oracle.br_value(always(2, "C")) == 3
    assert oracle.br_value(always(1, "D")) == 0


def test_best_response_takes_the_best_of_several_cycles():
    # a tit-for-tat opponent: alternating (D,C),(C,D) pays (3 - 1)/2 = 1 < 2
    nxt = {("c", "C"): "c", ("c", "D"): "d", ("d", "C"): "c", ("d", "D"): "d"}
    tft = oracle.Table(2, ("c", "d"), "c", {"c": "C", "d": "D"}, nxt)
    cycles = oracle.simple_cycles({q: [(a, nxt[(q, a)]) for a in "CD"] for q in "cd"})
    assert len(cycles) == 3
    assert oracle.br_value(tft) == 2


def test_measures_of_grim():
    # g1 defects and never leaves: a threat state; only g0 --C--> g0 stays normal
    assert oracle.measures(grim(1)) == {"Q": 2, "R": 1, "delta": 1}
    assert oracle.measures(always(1, "D")) == {"Q": 1, "R": 0, "delta": 0}
    assert oracle.measures(always(1, "C")) == {"Q": 1, "R": 1, "delta": 2}


def test_trigger_pair_measures_and_play():
    m1, m2 = trigger_pair()
    for m in (m1, m2):
        assert oracle.measures(m) == {"Q": 3, "R": 2, "delta": 2}
    assert oracle.play(m1, m2) == ([], [("C", "C"), ("C", "D")])
    assert oracle.payoff(m1, m2) == (Fraction(1, 2), Fraction(5, 2))
    assert oracle.Oracle().is_nash(m1, m2)


def test_sequence_certificates():
    seq = oracle.parse_seq_text("(C,C) (C,D)")
    assert oracle.strictly_enforceable(seq)
    # player 1 plays C twice and cannot tell the positions apart by its own moves
    assert not oracle.irreducible(seq, 1)
    assert oracle.irreducible(seq, 2)
    assert not oracle.strictly_enforceable(oracle.parse_seq_text("(C,D)"))


def test_canonical_pool_sizes():
    # 1 state: 2 outputs. 2 states: row 0 must reach state 1, so it is (0,1),
    # (1,0) or (1,1); row 1 is free; only state 1 can be absorbing, so no
    # output pair is dropped: 3 * 4 tables x 4 outputs
    assert len(oracle.canonical_machines(1, 1, 1)) == 2
    assert len(oracle.canonical_machines(1, 2, 2)) == 2 + 3 * 4 * 4
    assert oracle.brief(oracle.canonical_machines(1, 1, 1)[1]) == "0:D[C>0,D>0]"
