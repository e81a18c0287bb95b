from fractions import Fraction

import pytest

from leanfa import (
    Machine,
    Measure,
    Relation,
    build_internal_threat_machines,
    build_trigger_machines,
    chain_decompose,
    check_counting,
    check_first_reuse,
    check_relation_equalities,
    constant_machine,
    equivalence_relation,
    infer_machines,
    is_lean,
    is_nash,
    limit_mean_payoff,
    parse_sequence,
    simulate,
)
from leanfa.equilibrium import FAILS, HOLDS

F = Fraction


@pytest.fixture(scope="module")
def trigger_pair(pd):
    return build_trigger_machines(parse_sequence("1*(C,C) 1*(D,D)", pd), pd)


def wander_machine() -> Machine:
    # revisits its initial state once during the preperiod, then leaves it
    # behind forever: A, B, A, Z, Z, ...
    return Machine(
        1,
        ("A", "B", "Z", "T"),
        "A",
        {"A": "C", "B": "C", "Z": "C", "T": "D"},
        {
            ("A", "C"): "B",
            ("A", "D"): "Z",
            ("B", "C"): "A",
            ("B", "D"): "T",
            ("Z", "C"): "Z",
            ("Z", "D"): "T",
            ("T", "C"): "T",
            ("T", "D"): "T",
        },
        name="wander",
    )


def probe_machine() -> Machine:
    # cooperates, defects once at step three, then cooperates forever
    return Machine(
        2,
        ("P1", "P2", "P3", "P4", "T"),
        "P1",
        {"P1": "C", "P2": "C", "P3": "D", "P4": "C", "T": "D"},
        {
            ("P1", "C"): "P2",
            ("P1", "D"): "T",
            ("P2", "C"): "P3",
            ("P2", "D"): "T",
            ("P3", "C"): "P4",
            ("P3", "D"): "T",
            ("P4", "C"): "P4",
            ("P4", "D"): "T",
            ("T", "C"): "T",
            ("T", "D"): "T",
        },
        name="probe",
    )


def test_first_reuse_on_cyclic_pairs(pd, trigger_pair):
    report = check_first_reuse(*trigger_pair, pd)
    assert report.ok
    assert report.first_reuse_time == 1
    assert report.strictly_enforceable

    pair = build_internal_threat_machines(1, 1, 1, pd)
    report = check_first_reuse(*pair, pd)
    assert report.ok and report.first_reuse_time == 1


def test_first_reuse_detects_transient_revisit(pd):
    m1, m2 = wander_machine(), probe_machine()
    # the pair is a Nash equilibrium with a strictly enforceable payoff
    assert is_nash(m1, m2, pd).result == HOLDS
    assert limit_mean_payoff(simulate(m1, m2), pd) == (F(2), F(2))
    report = check_first_reuse(m1, m2, pd)
    assert not report.ok
    assert report.first_reuse_time == 1
    assert report.recurrent == (False, False)
    assert "not lean" in report.note
    # and indeed the pair is not lean: something simpler keeps Nash
    for measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
        assert is_lean(m1, m2, pd, measure).result == FAILS


def test_counting_on_trigger_pair(pd, trigger_pair):
    for use_transitions in (False, True):
        report = check_counting(*trigger_pair, pd, use_transitions=use_transitions)
        assert report.ok
        assert report.measure_values == (2, 2)
        assert report.played_counts == (2, 2)
        assert report.strictly_enforceable


def test_counting_negative_example(pd, trigger_pair, always):
    # trigger against blind cooperation: the punish state gets played and the
    # played counts diverge (profile not strictly enforceable)
    report = check_counting(trigger_pair[0], always(2, "C"), pd, use_transitions=False)
    assert not report.ok
    assert report.measure_values == (2, 1)
    assert report.played_counts == (3, 1)
    assert not report.strictly_enforceable


def test_counting_longer_cycle(pd):
    seq = parse_sequence("2*(C,C) 1*(C,D)", pd)
    pair = build_trigger_machines(seq, pd)
    report = check_counting(*pair, pd, use_transitions=False)
    assert report.ok and report.measure_values == (3, 3)


def test_relations_equal_on_trigger_pair(pd, trigger_pair):
    report = check_relation_equalities(*trigger_pair, pd)
    assert report.ok
    assert all(len(p.classes) == 2 for p in report.partitions.values())
    assert report.contained_equal == (True, True)


def test_relations_equal_on_grim(pd, grim1, grim2):
    report = check_relation_equalities(grim1, grim2, pd)
    assert report.ok
    assert all(len(p.classes) == 1 for p in report.partitions.values())


def test_relations_unequal_for_redundant_alternator(pd, always):
    # two cooperative states swapping on every input, against blind
    # cooperation: actions are constant but the player-1 state alternates
    alt = Machine(
        1,
        ("x", "y"),
        "x",
        {"x": "C", "y": "C"},
        {("x", "C"): "y", ("x", "D"): "y", ("y", "C"): "x", ("y", "D"): "x"},
    )
    report = check_relation_equalities(alt, always(2, "C"), pd)
    assert not report.ok
    play = simulate(alt, always(2, "C"))
    assert len(equivalence_relation(play, Relation.SUFFIX).classes) == 1
    assert len(equivalence_relation(play, Relation.STATE_1).classes) == 2


def test_chain_decompose_trigger_and_grim(pd, trigger_pair, grim1):
    chain = chain_decompose(trigger_pair[0], pd)
    assert chain is not None
    assert chain.tail == ()
    assert set(chain.head) == {"1", "2"}

    chain = chain_decompose(grim1, pd)
    assert chain is not None
    assert chain.head == ("g0",) and chain.tail == ()


def test_chain_decompose_rejects_branching_normal_part(pd):
    # tit-for-tat's cooperative state has two normal successors
    tft = Machine(
        1,
        ("c", "d"),
        "c",
        {"c": "C", "d": "D"},
        {("c", "C"): "c", ("c", "D"): "d", ("d", "C"): "c", ("d", "D"): "d"},
    )
    assert chain_decompose(tft, pd) is None


def test_chain_decompose_with_tail(pd):
    m = Machine(
        1,
        ("a", "b", "T"),
        "a",
        {"a": "C", "b": "C", "T": "D"},
        {
            ("a", "C"): "b",
            ("a", "D"): "T",
            ("b", "C"): "b",
            ("b", "D"): "T",
            ("T", "C"): "T",
            ("T", "D"): "T",
        },
    )
    chain = chain_decompose(m, pd)
    assert chain.tail == ("a",)
    assert chain.head == ("b",)


def test_infer_machines_on_trigger_pair(pd, trigger_pair):
    report = infer_machines(*trigger_pair, pd)
    assert report.isomorphic == (True, True)
    sk = report.skeletons[0]
    assert len(sk.states) == 2
    assert sorted(sk.output.values()) == ["C", "D"]


def test_infer_machines_on_grim(pd, grim1, grim2):
    report = infer_machines(grim1, grim2, pd)
    assert report.isomorphic == (True, True)
    assert len(report.skeletons[0].states) == 1


def test_infer_machines_on_internal_threat(pd):
    pair = build_internal_threat_machines(1, 1, 1, pd)
    report = infer_machines(*pair, pd)
    assert report.isomorphic == (True, True)
    for sk, machine in zip(report.skeletons, pair):
        assert len(sk.states) == len(machine.states) == 3


def test_infer_mismatch_on_redundant_machine(pd, always):
    alt = Machine(
        1,
        ("x", "y"),
        "x",
        {"x": "C", "y": "C"},
        {("x", "C"): "y", ("x", "D"): "y", ("y", "C"): "x", ("y", "D"): "x"},
    )
    report = infer_machines(alt, always(2, "C"), pd)
    assert report.isomorphic[0] is False
    assert report.isomorphic[1] is True


def test_chain_decompose_rejects_a_machine_from_another_game(pd):
    with pytest.raises(ValueError, match="reads actions"):
        chain_decompose(constant_machine(1, "C", ("X", "Y")), pd)


def test_structure_reports_are_read_only(pd, grim1, grim2, trigger_pair):
    # the reports are frozen, and so are the maps they hold
    maps = [
        chain_decompose(grim1, pd).successor,
        check_relation_equalities(grim1, grim2, pd).partitions,
    ]
    for sk in infer_machines(*trigger_pair, pd).skeletons:
        maps += [sk.output, sk.transition]
    for mapping in maps:
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            mapping["zz"] = "q"
