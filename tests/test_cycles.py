import random
from fractions import Fraction

import pytest

from leanfa import (
    Machine,
    MachinePath,
    best_response_value,
    build_response_graph,
    build_internal_threat_machines,
    build_trigger_machines,
    construct_best_response,
    convex_combination,
    enumerate_simple_cycles,
    is_sequence_forcing,
    limit_mean_payoff,
    max_mean_cycle,
    parse_sequence,
    path_payoff,
    simulate,
    subcycle_decompose,
)
from leanfa.games import PayoffProfile

from conftest import random_game, random_machine

F = Fraction


@pytest.fixture(scope="module")
def trigger_pair(pd):
    return build_trigger_machines(parse_sequence("1*(C,C) 1*(D,D)", pd), pd)


def test_response_graph_shape(pd, grim2):
    graph = build_response_graph(grim2, pd)
    assert graph.responder == 1
    assert graph.nodes == ("g0", "g1")
    for q in graph.nodes:
        assert len(graph.adj[q]) == 2


def test_path_payoff_examples(pd, grim1, trigger_pair):
    loop = MachinePath(grim1, ("g0", "g0"), ("C",))
    assert path_payoff(loop, pd, 2) == 2
    d_loop = MachinePath(grim1, ("g1", "g1"), ("D",))
    assert path_payoff(d_loop, pd, 2) == 0
    # outputs C,D against inputs C,D: mean of u(C,C) and u(D,D)
    two = MachinePath(trigger_pair[0], ("1", "2", "1"), ("C", "D"))
    assert path_payoff(two, pd, 1) == 1
    assert path_payoff(two, pd, 2) == 1


def test_path_text_form(pd, grim1):
    path = MachinePath(grim1, ("g0", "g1", "g1"), ("D", "C"))
    assert str(path) == "g0 --D--> g1 --C--> g1"


def test_path_validation(pd, grim1):
    with pytest.raises(ValueError):
        MachinePath(grim1, ("g0", "g0"), ("D",))  # grim leaves g0 on D
    with pytest.raises(ValueError):
        path_payoff(MachinePath(grim1, ("g0",), ()), pd, 1)


def test_max_mean_cycle_vs_grim(pd, grim2):
    value, witness = max_mean_cycle(build_response_graph(grim2, pd))
    assert value == 2
    assert witness.states == ("g0", "g0") and witness.actions == ("C",)


def test_max_mean_cycle_vs_always_cooperate(pd, always):
    value, witness = max_mean_cycle(build_response_graph(always(2, "C"), pd))
    assert value == 3
    assert witness.actions == ("D",)


def test_max_mean_cycle_vs_trigger(pd, trigger_pair):
    value, witness = max_mean_cycle(build_response_graph(trigger_pair[1], pd))
    assert value == 1
    assert witness.is_simple_cycle and len(witness.actions) == 2


def test_best_response_value_matches(pd, grim2, trigger_pair, always):
    assert best_response_value(grim2, pd) == 2
    assert best_response_value(always(2, "C"), pd) == 3
    assert best_response_value(trigger_pair[1], pd) == 1


def test_construct_best_response_examples(pd, grim2, trigger_pair, always):
    br = construct_best_response(grim2, pd)
    assert len(br.states) == 1 and set(br.output.values()) == {"C"}
    br = construct_best_response(always(2, "C"), pd)
    assert len(br.states) == 1 and set(br.output.values()) == {"D"}
    br = construct_best_response(trigger_pair[1], pd)
    assert len(br.states) == 2
    assert [br.output[q] for q in br.states] == ["C", "D"]


def test_constructed_best_response_achieves_value(pd):
    rng = random.Random(41)
    for _ in range(120):
        game = random_game(rng)
        player = rng.choice((1, 2))
        m = random_machine(rng, player, game, rng.randint(1, 5))
        br = construct_best_response(m, game)
        pair = (br, m) if br.player == 1 else (m, br)
        payoff = limit_mean_payoff(simulate(*pair), game)
        assert payoff.for_player(br.player) == best_response_value(m, game)


def test_max_mean_cycle_matches_enumeration_oracle(pd):
    # independent exhaustive check over all simple cycles, up to 6 states
    rng = random.Random(43)
    for trial in range(200):
        game = random_game(rng)
        player = rng.choice((1, 2))
        m = random_machine(rng, player, game, rng.randint(1, 6))
        graph = build_response_graph(m, game)
        value, witness = max_mean_cycle(graph)
        responder = 3 - player
        cycles = list(enumerate_simple_cycles(graph))
        assert cycles, "total machines always contain a reachable cycle"
        assert value == max(path_payoff(c, game, responder) for c in cycles)
        assert witness.is_simple_cycle
        assert path_payoff(witness, game, responder) == value


def test_witness_tie_break_prefers_opponent_payoff(pd, always):
    # against a machine that ignores input, both responder actions can tie;
    # the witness must then maximize the machine owner's mean
    m2 = Machine(
        2,
        ("x",),
        "x",
        {"x": "C"},
        {("x", "C"): "x", ("x", "D"): "x"},
    )
    game_text_payoffs = {
        ("C", "C"): PayoffProfile(F(1), F(5)),
        ("D", "C"): PayoffProfile(F(1), F(0)),
        ("C", "D"): PayoffProfile(F(0), F(0)),
        ("D", "D"): PayoffProfile(F(0), F(0)),
    }
    from leanfa.games import StageGame

    game = StageGame("tie", ("C", "D"), ("C", "D"), game_text_payoffs)
    value, witness = max_mean_cycle(build_response_graph(m2, game))
    assert value == 1
    assert witness.actions == ("C",)  # C gives the owner 5, D gives 0


def test_simple_cycle_budget(pd, grim2):
    graph = build_response_graph(grim2, pd)
    with pytest.raises(RuntimeError, match="budget"):
        list(enumerate_simple_cycles(graph, budget=1))


def _toy_machine():
    # free-form transitions to host specific path shapes
    states = ("q1", "q2", "q3")
    output = {q: "C" for q in states}
    transition = {
        ("q1", "x"): "q2",
        ("q1", "y"): "q3",
        ("q2", "x"): "q1",
        ("q2", "y"): "q3",
        ("q3", "x"): "q1",
        ("q3", "y"): "q2",
    }
    return Machine(1, states, "q1", output, transition)


def test_subcycle_decompose_examples():
    m = _toy_machine()
    cyc = MachinePath(m, ("q1", "q2", "q1", "q3", "q1"), ("x", "x", "y", "x"))
    first, second = subcycle_decompose(cyc)
    assert first.states == ("q1", "q2", "q1")
    assert second.states == ("q1", "q3", "q1")

    simple = MachinePath(m, ("q1", "q2", "q1"), ("x", "x"))
    assert subcycle_decompose(simple) is None

    cyc2 = MachinePath(m, ("q1", "q2", "q3", "q2", "q1"), ("x", "y", "y", "x"))
    first, second = subcycle_decompose(cyc2)
    assert first.states == ("q2", "q3", "q2")
    assert second.states == ("q2", "q1", "q2")

    with pytest.raises(ValueError, match="not a cycle"):
        subcycle_decompose(MachinePath(m, ("q1", "q2"), ("x",)))


def test_subcycle_means_form_convex_combination(pd):
    rng = random.Random(53)
    game = random_game(rng)
    found = 0
    while found < 40:
        m = random_machine(rng, 1, game, rng.randint(2, 4))
        # walk a random closed tour and decompose it when possible
        states = [m.initial]
        actions = []
        for _ in range(rng.randint(2, 8)):
            a = rng.choice(game.actions2)
            actions.append(a)
            states.append(m.transition[(states[-1], a)])
        try:
            start = states.index(states[-1])
        except ValueError:
            continue
        cyc = MachinePath(m, tuple(states[start:]), tuple(actions[start:]))
        if not cyc.is_cycle or not cyc.actions:
            continue
        parts = subcycle_decompose(cyc)
        if parts is None:
            continue
        found += 1
        first, second = parts
        total = len(cyc.actions)
        w1 = F(len(first.actions), total)
        w2 = F(len(second.actions), total)
        for player in (1, 2):
            combo = convex_combination(
                [
                    PayoffProfile(path_payoff(first, game, 1), path_payoff(first, game, 2)),
                    PayoffProfile(path_payoff(second, game, 1), path_payoff(second, game, 2)),
                ],
                [w1, w2],
            )
            assert combo.for_player(player) == path_payoff(cyc, game, player)


def test_sequence_forcing_trigger(pd, trigger_pair):
    seq = parse_sequence("1*(C,C) 1*(D,D)", pd)
    ok, note = is_sequence_forcing(trigger_pair[1], seq, 1, pd)
    assert ok, note
    ok, note = is_sequence_forcing(trigger_pair[0], seq, 2, pd)
    assert ok, note


def test_sequence_forcing_holds_for_random_trigger_machines(pd):
    from leanfa import ActionSeq, is_strictly_enforceable_seq

    rng = random.Random(71)
    found = 0
    while found < 40:
        entries = tuple(
            (rng.choice("CD"), rng.choice("CD")) for _ in range(rng.randint(1, 4))
        )
        seq = ActionSeq(entries)
        if not is_strictly_enforceable_seq(seq, pd):
            continue
        found += 1
        m1, m2 = build_trigger_machines(seq, pd)
        assert is_sequence_forcing(m2, seq, 1, pd)[0]
        assert is_sequence_forcing(m1, seq, 2, pd)[0]


def test_sequence_forcing_rejects_always_cooperate(pd, always):
    seq = parse_sequence("1*(C,C)", pd)
    ok, note = is_sequence_forcing(always(2, "C"), seq, 1, pd)
    assert not ok
    assert "best-response value" in note


def test_sequence_forcing_rejects_internal_threat(pd):
    # the internal-threat machines allow a deviate-once best response that
    # re-enters the main cycle, so they do not force the sequence
    seq = parse_sequence("1*(C,D) 1*(D,D) 1*(D,C)", pd)
    m1, m2 = build_internal_threat_machines(1, 1, 1, pd)
    ok, note = is_sequence_forcing(m2, seq, 1, pd)
    assert not ok
    assert "deviating" in note

    # exhibit the deviating best response explicitly: defect once, then follow
    dev = Machine(
        1,
        ("d", "1", "2", "3"),
        "d",
        {"d": "D", "1": "C", "2": "D", "3": "D"},
        {
            ("d", "C"): "1",
            ("d", "D"): "1",
            ("1", "C"): "2",
            ("1", "D"): "2",
            ("2", "C"): "3",
            ("2", "D"): "3",
            ("3", "C"): "1",
            ("3", "D"): "1",
        },
    )
    payoff = limit_mean_payoff(simulate(dev, m2), pd)
    assert payoff.p1 == best_response_value(m2, pd)  # a genuine best response
    play = simulate(dev, m2)
    assert play.action_at(1) != seq.action_at(1)  # that leaves the sequence


def test_sequence_forcing_random_best_responses(pd, trigger_pair):
    # every sampled best response to the trigger machine replays the sequence
    seq = parse_sequence("1*(C,C) 1*(D,D)", pd)
    m2 = trigger_pair[1]
    target = best_response_value(m2, pd)
    assert is_sequence_forcing(m2, seq, 1, pd)[0]
    rng = random.Random(61)
    found = 0
    attempts = 0
    while found < 200 and attempts < 100000:
        attempts += 1
        cand = random_machine(rng, 1, pd, rng.randint(2, 4))
        play = simulate(cand, m2)
        if limit_mean_payoff(play, pd).p1 != target:
            continue
        found += 1
        for t in range(1, play.horizon + 1):
            assert play.action_at(t) == seq.action_at(t)
    assert found == 200


def test_best_response_value_on_a_ring_deeper_than_the_recursion_limit(pd):
    n = 3000
    states = tuple(f"r{i}" for i in range(n))
    transition = {(q, a): states[(i + 1) % n] for i, q in enumerate(states) for a in pd.actions1}
    ring = Machine(2, states, "r0", {q: "C" for q in states}, transition)
    assert best_response_value(ring, pd) == 3
