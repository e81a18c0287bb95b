import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from leanfa import (
    ActionSeq,
    Machine,
    Measure,
    SearchBound,
    build_trigger_machines,
    build_internal_threat_machines,
    canonical_form,
    classify_states,
    constant_machine,
    enumerate_machines,
    is_abreu_rubinstein,
    is_best_response,
    is_lean,
    is_nash,
    is_strictly_enforceable_seq,
    limit_mean_payoff,
    measure_value,
    parse_sequence,
    simplify_to_lean,
    simulate,
)
from leanfa.equilibrium import FAILS, HOLDS, HOLDS_WITHIN_BOUND

from oracles import ar_implies_lean

F = Fraction


def tit_for_tat(player: int) -> Machine:
    states = ("c", "d")
    output = {"c": "C", "d": "D"}
    transition = {(q, a): ("c" if a == "C" else "d") for q in states for a in ("C", "D")}
    return Machine(player, states, "c", output, transition, name="tft")


@pytest.fixture(scope="module")
def trigger_pair(pd):
    return build_trigger_machines(parse_sequence("1*(C,C) 1*(D,D)", pd), pd)


def test_is_best_response_examples(pd, grim1, grim2, always):
    assert is_best_response(grim1, grim2, pd)
    assert is_best_response(grim2, grim1, pd)
    assert is_best_response(always(1, "C"), grim2, pd)
    # grim as player 2 against always-cooperate leaves value on the table
    assert not is_best_response(grim2, always(1, "C"), pd)


def test_is_nash_examples(pd, grim1, grim2, always, trigger_pair):
    assert is_nash(grim1, grim2, pd).result == HOLDS
    verdict = is_nash(always(1, "C"), grim2, pd)
    assert verdict.result == FAILS
    assert verdict.witness_player == 2
    assert set(verdict.witness.output.values()) == {"D"}  # defect against cooperation
    assert is_nash(*trigger_pair, pd).result == HOLDS


def test_nash_witness_is_profitable(pd, grim2, always):
    verdict = is_nash(always(1, "C"), grim2, pd)
    w = verdict.witness
    old = limit_mean_payoff(simulate(always(1, "C"), grim2), pd).p2
    new = limit_mean_payoff(simulate(always(1, "C"), w), pd).p2
    assert new > old


def test_enumerate_one_state(pd):
    pool = list(enumerate_machines(1, pd, SearchBound(1, 1)))
    assert len(pool) == 2
    assert sorted(m.output["0"] for m in pool) == ["C", "D"]


def _naive_canonical_count(game, player, max_states):
    # independent oracle: all total machines, reachability filter, canonical
    # dedupe, duplicate-absorbing exclusion
    own = game.actions(player)
    inputs = game.actions(3 - player)
    seen = set()
    for n in range(1, max_states + 1):
        states = tuple(str(i) for i in range(n))
        for outs in itertools.product(own, repeat=n):
            output = dict(zip(states, outs))
            for targets in itertools.product(states, repeat=n * len(inputs)):
                transition = {
                    (states[i], a): targets[i * len(inputs) + k]
                    for i in range(n)
                    for k, a in enumerate(inputs)
                }
                m = Machine(player, states, "0", output, transition)
                cf = canonical_form(m, game)
                if len(cf.states) != n:
                    continue  # covered at a smaller size
                absorbing = [
                    q for q in cf.states if all(cf.transition[(q, a)] == q for a in inputs)
                ]
                outs_abs = [cf.output[q] for q in absorbing]
                if len(set(outs_abs)) != len(outs_abs):
                    continue
                seen.add(cf)
    return len(seen)


def test_enumerate_counts_match_naive_oracle(pd):
    pool2 = list(enumerate_machines(1, pd, SearchBound(2, 2)))
    assert len(pool2) == 50  # regression constant, confirmed by the oracle below
    assert _naive_canonical_count(pd, 1, 2) == 50
    pool3 = list(enumerate_machines(1, pd, SearchBound(3, 2)))
    assert len(pool3) == 1774
    assert _naive_canonical_count(pd, 1, 3) == 1774


def test_enumerate_yields_reachable_canonical_distinct(pd):
    pool = list(enumerate_machines(2, pd, SearchBound(3, 1)))
    assert len(set(pool)) == len(pool)
    for m in pool:
        assert canonical_form(m, pd) == m  # already canonical => all reachable
    # threat bound respected
    for m in pool:
        assert len(classify_states(m, pd).threat_states) <= 1


def test_search_bound_rejects_a_state_bound_below_one():
    with pytest.raises(ValueError, match=r"^state bound must be at least 1, got 0$"):
        SearchBound(0, 0)


def test_search_bound_rejects_a_negative_threat_bound():
    with pytest.raises(ValueError, match=r"^threat-state bound must be non-negative, got -1$"):
        SearchBound(2, -1)
    assert SearchBound(2, 0).max_threat_states == 0


def test_ar_grim_fails_with_always_cooperate_witness(pd, grim1, grim2):
    verdict = is_abreu_rubinstein(grim1, grim2, pd, Measure.TOTAL_STATES)
    assert verdict.result == FAILS
    assert len(verdict.witness.states) == 1
    assert set(verdict.witness.output.values()) == {"C"}
    # the witness is re-checkable: simpler and still a best response
    m_j = grim2 if verdict.witness_player == 1 else grim1
    assert is_best_response(verdict.witness, m_j, pd)
    assert measure_value(verdict.witness, pd, Measure.TOTAL_STATES) < measure_value(
        grim1, pd, Measure.TOTAL_STATES
    )


@pytest.mark.parametrize("nc,nd", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize("measure", [Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS])
def test_ar_and_lean_hold_for_alternating_blocks(pd, nc, nd, measure):
    seq = parse_sequence(f"{nc}*(C,C) {nd}*(D,D)", pd)
    pair = build_trigger_machines(seq, pd)
    ar = is_abreu_rubinstein(*pair, pd, measure)
    assert ar.result == HOLDS
    assert any(c.name == "irreducible-classes" for c in ar.certificates)
    lean = is_lean(*pair, pd, measure)
    assert lean.result == HOLDS


def test_ar_holds_for_crossing_blocks(pd):
    # the other injective two-block family: alternating one-sided defections
    seq = parse_sequence("1*(C,D) 1*(D,C)", pd)
    from leanfa import is_irreducible

    assert is_irreducible(seq, 1) and is_irreducible(seq, 2)
    pair = build_trigger_machines(seq, pd)
    for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
        assert is_abreu_rubinstein(*pair, pd, measure).result == HOLDS
        assert is_lean(*pair, pd, measure).result == HOLDS


def test_ar_fails_for_one_sided_cooperation(pd):
    seq = parse_sequence("1*(C,C) 1*(C,D)", pd)
    pair = build_trigger_machines(seq, pd)
    verdict = is_abreu_rubinstein(*pair, pd, Measure.NORMAL_STATES)
    assert verdict.result == FAILS
    assert verdict.witness_player == 1
    assert set(verdict.witness.output.values()) == {"C"}


def test_lean_grim_total_states(pd, grim1, grim2):
    verdict = is_lean(grim1, grim2, pd, Measure.TOTAL_STATES)
    assert verdict.result == HOLDS
    # and with certificates disabled the brute force agrees unconditionally,
    # since every machine below the state count is enumerated
    verdict = is_lean(grim1, grim2, pd, Measure.TOTAL_STATES, certify="none")
    assert verdict.result == HOLDS
    assert verdict.witness is None


def test_lean_one_sided_cooperation_measures(pd):
    seq = parse_sequence("1*(C,C) 1*(C,D)", pd)
    pair = build_trigger_machines(seq, pd)
    for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
        verdict = is_lean(*pair, pd, measure)
        assert verdict.result == HOLDS
        names = {c.name for c in verdict.certificates}
        assert "rigid" in names  # player 1 needs the rigidity route
        assert "irreducible-classes" in names  # player 2 uses class counting


def test_lean_internal_threat_total_states(pd):
    pair = build_internal_threat_machines(1, 1, 1, pd)
    verdict = is_lean(*pair, pd, Measure.TOTAL_STATES, SearchBound(3, 1))
    assert verdict.result == HOLDS  # brute force over all smaller machines
    assert verdict.certificates == ()  # forcing fails here, so no certificate


def test_lean_internal_threat_larger_blocks(pd):
    pair = build_internal_threat_machines(1, 2, 1, pd)
    verdict = is_lean(*pair, pd, Measure.TOTAL_STATES, SearchBound(4, 1), certify="none")
    assert verdict.result == HOLDS


def test_trigger_pairs_are_nash_and_forcing_in_random_games():
    import random

    from leanfa import ActionSeq, is_sequence_forcing, is_strictly_enforceable_seq

    from conftest import random_game

    rng = random.Random(97)
    found = 0
    while found < 40:
        game = random_game(rng)
        entries = tuple(
            (rng.choice(game.actions1), rng.choice(game.actions2))
            for _ in range(rng.randint(1, 4))
        )
        seq = ActionSeq(entries)
        if not is_strictly_enforceable_seq(seq, game):
            continue
        found += 1
        m1, m2 = build_trigger_machines(seq, game)
        assert is_nash(m1, m2, game).result == HOLDS
        assert is_sequence_forcing(m2, seq, 1, game)[0]
        assert is_sequence_forcing(m1, seq, 2, game)[0]


def test_lean_fails_when_simplification_keeps_nash(pd, grim1, grim2):
    pair = (tit_for_tat(1), tit_for_tat(2))
    assert is_nash(*pair, pd).result == HOLDS
    verdict = is_lean(*pair, pd, Measure.NORMAL_TRANSITIONS)
    assert verdict.result == FAILS
    w = verdict.witness
    m_j = pair[1] if verdict.witness_player == 1 else pair[0]
    assert measure_value(w, pd, Measure.NORMAL_TRANSITIONS) < measure_value(
        pair[0], pd, Measure.NORMAL_TRANSITIONS
    )
    ordered = (w, m_j) if verdict.witness_player == 1 else (m_j, w)
    assert is_nash(*ordered, pd).result == HOLDS  # witness re-checks


def test_lean_bound_monotone_in_safe_direction(pd):
    pair = (tit_for_tat(1), tit_for_tat(2))
    small = is_lean(*pair, pd, Measure.NORMAL_TRANSITIONS, SearchBound(1, 1), certify="none")
    assert small.result == HOLDS_WITHIN_BOUND
    big = is_lean(*pair, pd, Measure.NORMAL_TRANSITIONS)
    assert big.result == FAILS


def test_simplify_prunes_unreachable_state(pd, grim1, grim2):
    padded = Machine(
        1,
        ("g0", "g1", "zz"),
        "g0",
        {"g0": "C", "g1": "D", "zz": "C"},
        {
            ("g0", "C"): "g0",
            ("g0", "D"): "g1",
            ("g1", "C"): "g1",
            ("g1", "D"): "g1",
            ("zz", "C"): "zz",
            ("zz", "D"): "zz",
        },
    )
    a, b = simplify_to_lean(padded, grim2, pd, Measure.TOTAL_STATES)
    # the descent may pick any Nash-preserving two-state machine; it must
    # keep the payoff, shed the useless state, and land on a lean pair
    assert b is grim2
    assert len(a.states) == 2
    assert limit_mean_payoff(simulate(a, b), pd) == limit_mean_payoff(
        simulate(padded, grim2), pd
    )
    assert is_nash(a, b, pd).result == HOLDS
    assert is_lean(a, b, pd, Measure.TOTAL_STATES).result == HOLDS


def test_simplify_fixpoint_on_lean_pair(pd, grim1, grim2):
    for measure in Measure:
        a, b = simplify_to_lean(grim1, grim2, pd, measure)
        assert a is grim1 and b is grim2


def test_simplify_merges_duplicated_normal_state(pd, trigger_pair):
    # a trigger machine with a duplicated cycle state keeps the play but
    # wastes a normal state; the descent merges it away
    m1 = trigger_pair[0]
    dup = Machine(
        1,
        ("1", "2", "1b", "punish"),
        "1",
        {"1": "C", "2": "D", "1b": "C", "punish": "D"},
        {
            ("1", "C"): "2",
            ("1", "D"): "punish",
            ("2", "D"): "1b",
            ("2", "C"): "punish",
            ("1b", "C"): "2",
            ("1b", "D"): "punish",
            ("punish", "C"): "punish",
            ("punish", "D"): "punish",
        },
    )
    assert measure_value(dup, pd, Measure.NORMAL_STATES) == 3
    assert is_nash(dup, trigger_pair[1], pd).result == HOLDS
    a, b = simplify_to_lean(dup, trigger_pair[1], pd, Measure.NORMAL_STATES)
    assert measure_value(a, pd, Measure.NORMAL_STATES) == 2
    assert b is trigger_pair[1]


def test_simplify_requires_nash(pd, grim2, always):
    with pytest.raises(ValueError, match="Nash"):
        simplify_to_lean(always(1, "C"), grim2, pd, Measure.TOTAL_STATES)


def test_ar_implies_lean_examples(pd, grim1, grim2, trigger_pair):
    assert ar_implies_lean(*trigger_pair, pd, Measure.NORMAL_STATES)
    assert ar_implies_lean(grim1, grim2, pd, Measure.TOTAL_STATES)  # vacuous


def test_verdict_exit_codes(pd, grim1, grim2):
    assert is_nash(grim1, grim2, pd).exit_code() == 0
    assert is_abreu_rubinstein(grim1, grim2, pd, Measure.TOTAL_STATES).exit_code() == 1
    pair = (tit_for_tat(1), tit_for_tat(2))
    small = is_lean(*pair, pd, Measure.NORMAL_TRANSITIONS, SearchBound(1, 1), certify="none")
    assert small.exit_code() == 2


PD_PAIRS = [(a, b) for a in "CD" for b in "CD"]


def _swap_agrees(pd, entries, ops):
    """The trigger pairs of a sequence and of its player-swapped copy get the
    same result, each certificate moved to the other player."""
    seq = ActionSeq(tuple(entries))
    assume(is_strictly_enforceable_seq(seq, pd))
    pair = build_trigger_machines(seq, pd)
    swapped = build_trigger_machines(ActionSeq(tuple((b, a) for a, b in entries)), pd)
    for check, measure in ops:
        verdict = check(*pair, pd, measure)
        mirror = check(*swapped, pd, measure)
        assert mirror.result == verdict.result
        assert sorted((c.name, 3 - c.player, c.detail) for c in verdict.certificates) == sorted(
            (c.name, c.player, c.detail) for c in mirror.certificates
        )


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PD_PAIRS), min_size=2, max_size=4))
def test_swapping_players_mirrors_r_and_delta_verdicts(pd, entries):
    ops = [(check, measure) for check in (is_lean, is_abreu_rubinstein)
           for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS)]
    _swap_agrees(pd, entries, ops)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(PD_PAIRS), min_size=2, max_size=3))
def test_swapping_players_mirrors_q_lean_verdicts(pd, entries):
    _swap_agrees(pd, entries, [(is_lean, Measure.TOTAL_STATES)])


def test_measure_value_rejects_a_machine_from_another_game(pd):
    foreign = constant_machine(1, "C", ("X", "Y"))
    for measure in Measure:
        with pytest.raises(ValueError, match="reads actions"):
            measure_value(foreign, pd, measure)
