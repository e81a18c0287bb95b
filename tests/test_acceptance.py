"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single CRITERION line with its elapsed time so the whole
gate can be read off a plain `pytest -s tests/test_acceptance.py` run.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from leanfa import (
    Measure,
    SearchBound,
    build_internal_threat_machines,
    build_trigger_machines,
    enumerate_machines,
    grim_trigger,
    is_abreu_rubinstein,
    is_best_response,
    is_irreducible,
    is_foolable,
    is_lean,
    is_nash,
    is_rigid,
    is_strictly_enforceable,
    limit_mean_payoff,
    max_mean_cycle,
    measure_value,
    parse_sequence,
    path_payoff,
    simplify_to_lean,
    simulate,
    audit_pair,
    best_response_value,
)
from leanfa.equilibrium import FAILS, HOLDS

from conftest import random_game, random_machine
from oracles import ar_implies_lean, enumerate_simple_cycles
from reference_karp import build_response_graph

F = Fraction


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} [FAIL] {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"CRITERION {number:2d} [PASS] {title} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def pairs_2state(pd):
    bound = SearchBound(2, 1)
    pool1 = tuple(enumerate_machines(1, pd, bound))
    pool2 = tuple(enumerate_machines(2, pd, bound))
    return pool1, pool2


@pytest.fixture(scope="module")
def nash_pairs_2state(pd, pairs_2state):
    pool1, pool2 = pairs_2state
    return [
        (m1, m2)
        for m1 in pool1
        for m2 in pool2
        if is_nash(m1, m2, pd).result == HOLDS
    ]


def test_criterion_1_grim_trigger(pd):
    with criterion(1, "grim trigger: Nash, lean wrt Q, not Abreu-Rubinstein wrt Q"):
        g1, g2 = grim_trigger(1), grim_trigger(2)
        assert is_nash(g1, g2, pd).result == HOLDS
        lean = is_lean(g1, g2, pd, Measure.TOTAL_STATES, certify="none")
        assert lean.result == HOLDS  # brute force over all one-state machines
        ar = is_abreu_rubinstein(g1, g2, pd, Measure.TOTAL_STATES)
        assert ar.result == FAILS
        assert len(ar.witness.states) == 1
        assert set(ar.witness.output.values()) == {"C"}


def test_criterion_2_alternating_blocks(pd):
    with criterion(2, "alternating C/D blocks: irreducible, AR and lean wrt R and delta"):
        for nc, nd in ((1, 1), (2, 1), (1, 2)):
            seq = parse_sequence(f"{nc}*(C,C) {nd}*(D,D)", pd)
            assert is_irreducible(seq, 1) and is_irreducible(seq, 2)
            pair = build_trigger_machines(seq, pd)
            k = len(seq)
            for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
                certified = is_abreu_rubinstein(*pair, pd, measure)
                assert certified.result == HOLDS
                assert any(c.name == "irreducible-classes" for c in certified.certificates)
                assert is_lean(*pair, pd, measure).result == HOLDS
                # brute-force confirmation at total-state bound k+2
                brute = SearchBound(k + 2, 1)
                ar = is_abreu_rubinstein(*pair, pd, measure, brute, certify="none")
                assert ar.result != FAILS and ar.witness is None
                lean = is_lean(*pair, pd, measure, brute, certify="none")
                assert lean.result != FAILS and lean.witness is None


def test_criterion_3_one_sided_cooperation(pd):
    with criterion(3, "one-sided cooperation blocks: rigid, lean wrt R/delta, not AR wrt R"):
        for ncc, ncd in ((1, 1), (2, 1)):
            seq = parse_sequence(f"{ncc}*(C,C) {ncd}*(C,D)", pd)
            n = len(seq)
            assert is_rigid(seq, 1, {"C"}, pd).rigid
            assert is_irreducible(seq, 2)
            pair = build_trigger_machines(seq, pd)
            for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
                assert is_lean(*pair, pd, measure).result == HOLDS
                brute = is_lean(*pair, pd, measure, SearchBound(n + 2, 1), certify="none")
                assert brute.result != FAILS and brute.witness is None
            ar = is_abreu_rubinstein(*pair, pd, Measure.NORMAL_STATES)
            assert ar.result == FAILS
            assert ar.witness_player == 1
            assert len(ar.witness.states) == 1
            assert set(ar.witness.output.values()) == {"C"}


def test_criterion_4_three_block_cycle(pd):
    with criterion(4, "C,D / D,D / D,C blocks: rigid wrt D, lean wrt R and delta"):
        seq = parse_sequence("1*(C,D) 1*(D,D) 1*(D,C)", pd)
        assert is_rigid(seq, 1, {"D"}, pd).rigid
        payoff = limit_mean_payoff(simulate(*build_trigger_machines(seq, pd)), pd)
        assert payoff == (F(2, 3), F(2, 3))
        assert is_strictly_enforceable(pd, payoff)
        pair = build_trigger_machines(seq, pd)
        for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
            assert is_lean(*pair, pd, measure).result == HOLDS


def test_criterion_5_internal_threat(pd):
    with criterion(5, "internal-threat pair: 3 states, target play, lean wrt Q by brute force"):
        m1, m2 = build_internal_threat_machines(1, 1, 1, pd)
        assert len(m1.states) == 3 and len(m2.states) == 3
        play = simulate(m1, m2)
        assert play.preperiod == ()
        assert [a for _, a in play.cycle] == [("C", "D"), ("D", "D"), ("D", "C")]
        verdict = is_lean(m1, m2, pd, Measure.TOTAL_STATES, SearchBound(3, 1), certify="none")
        assert verdict.result == HOLDS
        assert verdict.witness is None


def test_criterion_6_foolable_pairs(pd):
    with criterion(6, "foolable sequences: lean wrt Q via certificates, not AR wrt Q"):
        for text in ("1*(C,C) 1*(D,D)", "1*(C,C) 1*(C,D)"):
            seq = parse_sequence(text, pd)
            pair = build_trigger_machines(seq, pd)
            for player in (1, 2):
                assert is_foolable(seq, player, pd) is not None
            certified = is_lean(*pair, pd, Measure.TOTAL_STATES, certify="foolable")
            assert certified.result == HOLDS
            assert all(c.name.startswith("foolable") for c in certified.certificates)
            assert len(certified.certificates) == 2
            brute = is_lean(*pair, pd, Measure.TOTAL_STATES, certify="none")
            assert brute.result == HOLDS and brute.witness is None
            ar = is_abreu_rubinstein(*pair, pd, Measure.TOTAL_STATES)
            assert ar.result == FAILS
            # the witness drops the threat state: strictly fewer states while
            # still responding optimally
            m_j = pair[1] if ar.witness_player == 1 else pair[0]
            assert len(ar.witness.states) < len(pair[ar.witness_player - 1].states)
            assert is_best_response(ar.witness, m_j, pd)


def test_criterion_7_structure_audit(pd, pairs_2state, nash_pairs_2state):
    with criterion(7, "structure audit over all 2-state pairs lean-within-bound wrt delta"):
        checked = 0
        for m1, m2 in nash_pairs_2state:
            payoff = limit_mean_payoff(simulate(m1, m2), pd)
            if not is_strictly_enforceable(pd, payoff):
                continue
            verdict = is_lean(m1, m2, pd, Measure.NORMAL_TRANSITIONS)
            if verdict.result != FAILS:
                audit = audit_pair(m1, m2, pd)
                assert audit.first_reuse_ok, (m1, m2)
                assert audit.counting_transitions_ok, (m1, m2)
                assert audit.relations_ok, (m1, m2)
                assert all(audit.chains_ok), (m1, m2)
                assert all(audit.inference_ok), (m1, m2)
                checked += 1
            # pairs lean wrt the normal-state measure obey the same
            # first-reuse conclusion and the state-count equalities
            verdict = is_lean(m1, m2, pd, Measure.NORMAL_STATES)
            if verdict.result != FAILS:
                from leanfa import check_counting, check_first_reuse

                assert check_first_reuse(m1, m2, pd).ok, (m1, m2)
                assert check_counting(m1, m2, pd, use_transitions=False).ok, (m1, m2)
        assert checked >= 1  # the canonical grim pair at least


def test_criterion_8_ar_implies_lean(pd, nash_pairs_2state):
    with criterion(8, "AR-within-bound implies lean-within-bound, all measures"):
        for measure in Measure:
            for m1, m2 in nash_pairs_2state:
                assert ar_implies_lean(m1, m2, pd, measure), (measure, m1, m2)


def test_criterion_9_descent(pd, nash_pairs_2state):
    with criterion(9, "simplification descent lands on lean pairs, never above the input"):
        for measure in Measure:
            for m1, m2 in nash_pairs_2state:
                a, b = simplify_to_lean(m1, m2, pd, measure)
                assert measure_value(a, pd, measure) <= measure_value(m1, pd, measure)
                assert measure_value(b, pd, measure) <= measure_value(m2, pd, measure)
                result = is_lean(a, b, pd, measure)
                assert result.result != FAILS
                if is_lean(m1, m2, pd, measure).result != FAILS:
                    assert a is m1 and b is m2  # fixpoint on already-lean pairs


def test_criterion_10_cycle_oracle():
    with criterion(10, "max mean cycle equals exhaustive simple-cycle maximum, 500 machines"):
        rng = random.Random(20250809)
        for _ in range(500):
            game = random_game(rng)
            player = rng.choice((1, 2))
            machine = random_machine(rng, player, game, rng.randint(1, 5))
            value, witness = max_mean_cycle(machine, game)
            responder = 3 - player
            graph = build_response_graph(machine, game)
            best = max(
                path_payoff(c, game, responder) for c in enumerate_simple_cycles(graph)
            )
            assert value == best
            assert best_response_value(machine, game) == best
            assert witness.is_simple_cycle
            assert path_payoff(witness, game, responder) == value


def test_criterion_11_ar_payoffs_on_diagonals(pd, nash_pairs_2state):
    # exploratory, recorded and non-blocking: AR profiles in the 2-state
    # enumeration should sit on the two diagonal segments of the PD table
    start = time.perf_counter()
    on_diagonal = 0
    off_diagonal = []
    for m1, m2 in nash_pairs_2state:
        verdict = is_abreu_rubinstein(m1, m2, pd, Measure.TOTAL_STATES)
        if verdict.result == FAILS:
            continue
        p = limit_mean_payoff(simulate(m1, m2), pd)
        main_diag = p.p1 == p.p2 and F(0) <= p.p1 <= F(2)
        anti_diag = p.p1 + p.p2 == 2 and F(-1) <= p.p1 <= F(3)
        if main_diag or anti_diag:
            on_diagonal += 1
        else:
            off_diagonal.append(p)
    elapsed = time.perf_counter() - start
    print(
        f"CRITERION 11 [RECORDED] AR-within-bound payoffs on diagonals: "
        f"{on_diagonal} on, {len(off_diagonal)} off {off_diagonal or ''} ({elapsed:.1f}s)"
    )
