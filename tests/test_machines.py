import pickle
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from leanfa import (
    PRISONERS_DILEMMA,
    Machine,
    Measure,
    SearchBound,
    enumerate_machines,
    is_abreu_rubinstein,
    is_lean,
    ParseError,
    PayoffProfile,
    Relation,
    canonical_form,
    classify_states,
    constant_machine,
    equivalence_relation,
    finite_mean_payoff,
    limit_mean_payoff,
    machine_to_dot,
    machine_to_text,
    parse_machine,
    parse_sequence,
    build_trigger_machines,
    played_states,
    simulate,
)

from leanfa.equilibrium import nash_deviator

from conftest import random_game, random_machine
from oracles import max_abs_payoff

F = Fraction


@pytest.fixture(scope="module")
def trigger_pair(pd):
    seq = parse_sequence("1*(C,C) 1*(D,D)", pd)
    return build_trigger_machines(seq, pd)


def test_simulate_grim_pair(pd, grim1, grim2):
    play = simulate(grim1, grim2)
    assert play.preperiod == ()
    assert play.cycle == ((("g0", "g0"), ("C", "C")),)


def test_simulate_trigger_pair(pd, trigger_pair):
    play = simulate(*trigger_pair)
    assert play.preperiod == ()
    assert [a for _, a in play.cycle] == [("C", "C"), ("D", "D")]


def test_simulate_always_defect_vs_grim(pd, grim2, always):
    play = simulate(always(1, "D"), grim2)
    assert play.preperiod == ((("q0", "g0"), ("D", "C")),)
    assert play.cycle == ((("q0", "g1"), ("D", "D")),)


def test_simulate_rejects_alphabet_mismatch(pd, grim2):
    odd = Machine(1, ("s",), "s", {"s": "C"}, {("s", "x"): "s", ("s", "y"): "s"})
    with pytest.raises(ValueError, match="alphabet"):
        simulate(odd, grim2)


def _replay(play, m1, m2):
    q1, q2 = m1.initial, m2.initial
    for t in range(1, play.horizon + 3 * max(1, len(play.cycle)) + 1):
        assert play.state_at(t) == (q1, q2)
        a1, a2 = m1.output[q1], m2.output[q2]
        assert play.action_at(t) == (a1, a2)
        q1, q2 = m1.transition[(q1, a2)], m2.transition[(q2, a1)]


def test_simulate_replay_and_minimality_random():
    rng = random.Random(23)
    for _ in range(150):
        game = random_game(rng)
        m1 = random_machine(rng, 1, game, rng.randint(1, 4))
        m2 = random_machine(rng, 2, game, rng.randint(1, 4))
        play = simulate(m1, m2)
        _replay(play, m1, m2)
        # ultimate periodicity with the stored (preperiod, cycle)
        p, c = len(play.preperiod), len(play.cycle)
        for t in range(p + 1, p + 2 * c + 1):
            assert play.state_at(t) == play.state_at(t + c)
        # minimal cycle: state pairs inside it are pairwise distinct
        cyc_states = [q for q, _ in play.cycle]
        assert len(set(cyc_states)) == len(cyc_states)
        # minimal preperiod: its last state pair is not the cycle-end pair
        if p:
            assert play.preperiod[-1][0] != play.cycle[-1][0]


def test_limit_mean_payoffs(pd, grim1, grim2, trigger_pair):
    assert limit_mean_payoff(simulate(grim1, grim2), pd) == PayoffProfile(F(2), F(2))
    assert limit_mean_payoff(simulate(*trigger_pair), pd) == PayoffProfile(F(1), F(1))
    seq = parse_sequence("1*(C,D) 1*(D,D) 1*(D,C)", pd)
    pair = build_trigger_machines(seq, pd)
    assert limit_mean_payoff(simulate(*pair), pd) == PayoffProfile(F(2, 3), F(2, 3))


def test_finite_mean_payoffs(pd, grim1, grim2, trigger_pair):
    grim_play = simulate(grim1, grim2)
    assert finite_mean_payoff(grim_play, pd, 5) == PayoffProfile(F(2), F(2))
    play = simulate(*trigger_pair)
    assert finite_mean_payoff(play, pd, 1) == PayoffProfile(F(2), F(2))
    assert finite_mean_payoff(play, pd, 3) == PayoffProfile(F(4, 3), F(4, 3))
    with pytest.raises(ValueError):
        finite_mean_payoff(play, pd, 0)


def test_finite_mean_converges_to_limit_mean():
    rng = random.Random(31)
    for _ in range(100):
        game = random_game(rng)
        m1 = random_machine(rng, 1, game, rng.randint(1, 4))
        m2 = random_machine(rng, 2, game, rng.randint(1, 4))
        play = simulate(m1, m2)
        limit = limit_mean_payoff(play, game)
        p, c = len(play.preperiod), len(play.cycle)
        horizon = c * (p // c + 2)
        finite = finite_mean_payoff(play, game, horizon)
        if p == 0:
            assert finite == limit
        else:
            slack = 2 * max_abs_payoff(game) * p / horizon
            assert abs(finite.p1 - limit.p1) <= slack
            assert abs(finite.p2 - limit.p2) <= slack


def test_played_states_bounded_by_measures_when_enforceable():
    # with a strictly enforceable payoff, threat states are never played, so
    # the played-state count is below both the normal-state count and the
    # normal-transition count
    from leanfa import classify_states as classify
    from leanfa.games import is_strictly_enforceable

    rng = random.Random(29)
    checked = 0
    attempts = 0
    while checked < 80 and attempts < 20000:
        attempts += 1
        game = random_game(rng)
        m1 = random_machine(rng, 1, game, rng.randint(1, 4))
        m2 = random_machine(rng, 2, game, rng.randint(1, 4))
        play = simulate(m1, m2)
        if not is_strictly_enforceable(game, limit_mean_payoff(play, game)):
            continue
        checked += 1
        for player, m in ((1, m1), (2, m2)):
            rep = classify(m, game)
            played = played_states(play, player)
            assert played <= rep.normal_states
            assert len(played) <= len(rep.normal_states)
            assert len(played) <= rep.normal_transitions
    assert checked == 80


def test_classify_grim(pd, grim1):
    rep = classify_states(grim1, pd)
    assert rep.total_states == 2
    assert rep.threat_states == frozenset({"g1"})
    assert rep.normal_states == frozenset({"g0"})
    assert rep.normal_transitions == 1


def test_classify_trigger(pd, trigger_pair):
    rep = classify_states(trigger_pair[0], pd)
    assert rep.total_states == 3
    assert rep.threat_states == frozenset({"punish"})
    assert len(rep.normal_states) == 2
    assert rep.normal_transitions == 2


def test_classify_always_cooperate(pd, always):
    rep = classify_states(always(1, "C"), pd)
    assert rep.total_states == 1
    assert rep.threat_states == frozenset()
    assert len(rep.normal_states) == 1
    assert rep.normal_transitions == 2


def test_classify_detects_multiple_threat_states():
    # with two minmax-forcing outputs, distinct absorbing states using them
    # are both threat states
    from leanfa import Machine
    from leanfa.games import StageGame

    table = {
        ("x", "l"): PayoffProfile(F(1), F(0)),
        ("x", "r"): PayoffProfile(F(1), F(0)),
        ("y", "l"): PayoffProfile(F(1), F(0)),
        ("y", "r"): PayoffProfile(F(1), F(-1)),
        ("z", "l"): PayoffProfile(F(4), F(5)),
        ("z", "r"): PayoffProfile(F(1), F(5)),
    }
    game = StageGame("multi", ("x", "y", "z"), ("l", "r"), table)
    m = Machine(
        1,
        ("a", "b", "c"),
        "a",
        {"a": "z", "b": "x", "c": "y"},
        {
            ("a", "l"): "b",
            ("a", "r"): "c",
            ("b", "l"): "b",
            ("b", "r"): "b",
            ("c", "l"): "c",
            ("c", "r"): "c",
        },
    )
    rep = classify_states(m, game)
    assert rep.threat_states == frozenset({"b", "c"})
    assert rep.normal_states == frozenset({"a"})
    assert rep.normal_transitions == 0


def test_played_states(pd, grim1, grim2, trigger_pair, always):
    assert played_states(simulate(grim1, grim2), 1) == {"g0"}
    assert played_states(simulate(*trigger_pair), 1) == {"1", "2"}
    assert played_states(simulate(always(1, "D"), grim2), 2) == {"g0", "g1"}


def test_suffix_classes_of_trigger_play(pd, trigger_pair):
    play = simulate(*trigger_pair)
    suffix = equivalence_relation(play, Relation.SUFFIX)
    assert suffix.classes == ((1,), (2,))
    # odd and even times fall into the two classes
    assert suffix.class_of(7) == (1,)
    assert suffix.class_of(10) == (2,)


def test_suffix_single_class_for_constant_play(pd, grim1, grim2):
    play = simulate(grim1, grim2)
    suffix = equivalence_relation(play, Relation.SUFFIX)
    assert len(suffix.classes) == 1


def test_state_pair_relation_is_intersection_and_refines_suffix():
    rng = random.Random(47)
    for _ in range(150):
        game = random_game(rng)
        m1 = random_machine(rng, 1, game, rng.randint(1, 3))
        m2 = random_machine(rng, 2, game, rng.randint(1, 3))
        play = simulate(m1, m2)
        qpart = equivalence_relation(play, Relation.STATE_PAIR)
        s1 = equivalence_relation(play, Relation.STATE_1)
        s2 = equivalence_relation(play, Relation.STATE_2)
        suffix = equivalence_relation(play, Relation.SUFFIX)
        # state-pair equality is exactly the meet of both per-player relations
        meet = {
            t: (s1.class_of(t), s2.class_of(t)) for t in range(1, play.horizon + 1)
        }
        groups = {}
        for t, key in meet.items():
            groups.setdefault(key, []).append(t)
        assert qpart.as_partition() == frozenset(
            frozenset(g) for g in groups.values()
        )
        assert qpart.refines(suffix)


def test_machine_text_round_trip(pd, grim1, trigger_pair):
    # states named like the text format's keywords
    states = ("state0", "start", "machineA")
    keywords = Machine(
        1,
        states,
        "state0",
        dict(zip(states, "CDC")),
        {(q, a): states[(i + k + 1) % 3] for i, q in enumerate(states) for k, a in enumerate("CD")},
        name="keywords",
    )
    for machine in (grim1, *trigger_pair, keywords):
        text = machine_to_text(machine)
        parsed = parse_machine(text)
        assert canonical_form(parsed, pd) == canonical_form(machine, pd)
        assert machine_to_text(parsed) == text


def test_parse_machine_reports_hole():
    text = (
        "machine broken player=1\n"
        "start a\n"
        "state a out=C\n"
        "state b out=D\n"
        "a --C--> b\n"
        "a --D--> b\n"
        "b --C--> b\n"
    )
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert "'b'" in str(err.value) and "'D'" in str(err.value)


def test_parse_machine_duplicate_transition():
    text = (
        "machine dup player=1\nstart a\nstate a out=C\n"
        "a --C--> a\na --C--> a\na --D--> a\n"
    )
    with pytest.raises(ParseError) as err:
        parse_machine(text)
    assert "duplicate transition" in str(err.value)


def test_dot_export_grim(pd, grim1):
    dot = machine_to_dot(grim1, pd)
    assert dot == machine_to_dot(grim1, pd)  # byte-identical across calls
    assert dot.count("doublecircle") == 1
    assert '"g1" [label="g1/D" shape=doublecircle];' in dot
    edges = [l for l in dot.splitlines() if "->" in l and "label=" in l]
    assert len(edges) == 4


def test_dot_export_escapes_backslashes(pd):
    text = "machine m player=1\nstart Q\nstate Q out=C\nQ --C--> Q\nQ --D--> Q\n"
    machine = parse_machine(text.replace("Q", "q\\"))
    assert machine.states == ("q\\",)
    dot = machine_to_dot(machine, pd)
    assert r'"q\\" [label="q\\/C" shape=circle];' in dot
    assert r'"q\\" -> "q\\" [label="D"];' in dot


def test_dot_export_trigger(pd, trigger_pair):
    dot = machine_to_dot(trigger_pair[0], pd)
    assert dot.count("doublecircle") == 1
    assert "punish" in dot


def test_canonical_form_prunes_and_relabels(pd, grim1):
    # grim plus an unreachable state is canonically just grim
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
    assert canonical_form(padded, pd) == canonical_form(grim1, pd)
    assert len(canonical_form(padded, pd).states) == 2


# (seed, player, player-1 actions, player-2 actions, states) of a random machine
machine_cases = st.tuples(
    st.integers(0, 2**32),
    st.sampled_from((1, 2)),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 6),
)


def _random_case(seed, player, size1, size2, n_states):
    rng = random.Random(seed)
    game = random_game(rng, size1, size2)
    return game, random_machine(rng, player, game, n_states)


@given(machine_cases)
def test_canonical_form_is_idempotent(case):
    game, m = _random_case(*case)
    once = canonical_form(m, game)
    assert canonical_form(once, game) == once


def _renamed(m, shuffler):
    names = [f"r{k}" for k in range(len(m.states))]
    shuffler.shuffle(names)
    rename = dict(zip(m.states, names))
    return Machine(
        m.player,
        tuple(sorted(names)),
        rename[m.initial],
        {rename[q]: a for q, a in m.output.items()},
        {(rename[q], a): rename[t] for (q, a), t in m.transition.items()},
    )


@given(machine_cases, st.randoms(use_true_random=False))
def test_canonical_form_ignores_state_names(case, shuffler):
    game, m = _random_case(*case)
    renamed = _renamed(m, shuffler)
    assert canonical_form(renamed, game) == canonical_form(m, game)


@given(machine_cases, st.integers(1, 4), st.randoms(use_true_random=False))
def test_renaming_states_leaves_play_and_verdicts_unchanged(case, opp_states, shuffler):
    game, m = _random_case(*case)
    other = random_machine(random.Random(case[0] + 1), 3 - m.player, game, opp_states)
    renamed = _renamed(m, shuffler)
    pair = lambda x: (x, other) if x.player == 1 else (other, x)
    play, play_renamed = simulate(*pair(m)), simulate(*pair(renamed))
    for word in (lambda p: p.preperiod, lambda p: p.cycle):
        assert [a for _, a in word(play)] == [a for _, a in word(play_renamed)]
    assert limit_mean_payoff(play, game) == limit_mean_payoff(play_renamed, game)
    assert nash_deviator(*pair(m), game) == nash_deviator(*pair(renamed), game)


@lru_cache(maxsize=None)
def _pd_nash_pairs():
    bound = SearchBound(2, 2)
    pool1, pool2 = (tuple(enumerate_machines(p, PRISONERS_DILEMMA, bound)) for p in (1, 2))
    return [
        (m1, m2)
        for m1 in pool1
        for m2 in pool2
        if nash_deviator(m1, m2, PRISONERS_DILEMMA) is None
    ]


# (seed, whether the pair is a 2-state PD Nash pair or a random pair on a
# random 2x2 game); the searches stop at 3 states and 1 threat state
verdict_cases = st.tuples(st.integers(0, 2**32), st.booleans())


@settings(max_examples=100, deadline=None)
@given(verdict_cases, st.randoms(use_true_random=False))
def test_renaming_states_leaves_refinement_verdicts_unchanged(case, shuffler):
    seed, on_pd = case
    rng = random.Random(seed)
    if on_pd:
        game = PRISONERS_DILEMMA
        m1, m2 = rng.choice(_pd_nash_pairs())
    else:
        game = random_game(rng)
        m1, m2 = (random_machine(rng, p, game, rng.randint(1, 3)) for p in (1, 2))
    renamed = _renamed(m1, shuffler), _renamed(m2, shuffler)
    bound = SearchBound(3, 1)
    for check in (is_abreu_rubinstein, is_lean):
        for measure in Measure:
            verdict = check(m1, m2, game, measure, bound)
            again = check(*renamed, game, measure, bound)
            assert (again.result, again.witness_player) == (
                verdict.result,
                verdict.witness_player,
            )


def test_machine_maps_are_frozen_and_pickle():
    rng = random.Random(6)
    game = random_game(rng, 2, 3)
    m = random_machine(rng, 2, game, 3)
    output, transition = dict(m.output), dict(m.transition)
    copy = Machine(2, m.states, m.initial, output, transition)
    output["s0"], transition[("s0", "a0")] = "other", "s9"  # the caller's dicts stay theirs
    assert copy == m and hash(copy) == hash(m)
    with pytest.raises(TypeError):
        m.output["s0"] = "b1"
    with pytest.raises(TypeError):
        m.transition[("s0", "a0")] = "s1"
    back = pickle.loads(pickle.dumps(m))
    assert back == m and hash(back) == hash(m)
    assert back.name == m.name and back.output == m.output and back.transition == m.transition


def test_machine_validation_names_the_fault():
    # both used to report "transition map not total; missing []"
    total = {("a", "C"): "a", ("a", "D"): "a"}
    with pytest.raises(ValueError, match="undeclared state 'z'"):
        Machine(1, ("a",), "a", {"a": "C"}, {**total, ("z", "C"): "a"})
    with pytest.raises(ValueError, match="reads no actions"):
        Machine(1, ("a",), "a", {"a": "C"}, {})
    with pytest.raises(ValueError, match=r"not total; missing \[\('b', 'D'\)\]"):
        Machine(1, ("a", "b"), "a", {"a": "C", "b": "D"}, {**total, ("b", "C"): "a"})
    with pytest.raises(ValueError, match="targets unknown state 'q'"):
        Machine(1, ("a",), "a", {"a": "C"}, {**total, ("a", "D"): "q"})
    with pytest.raises(AttributeError, match="immutable"):
        Machine(1, ("a",), "a", {"a": "C"}, total).name = "other"


def test_classify_and_canonical_form_reject_a_machine_from_another_game(pd, always):
    # the same table over other input actions is another machine, so a
    # memoized report for the PD one does not answer for it
    foreign = constant_machine(1, "C", ("X", "Y"))
    assert foreign != always(1, "C")
    classify_states(always(1, "C"), pd)
    with pytest.raises(ValueError, match="reads actions"):
        classify_states(foreign, pd)
    with pytest.raises(ValueError, match="reads actions"):
        canonical_form(foreign, pd)
