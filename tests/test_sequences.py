import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from leanfa import (
    ActionSeq,
    ParseError,
    PayoffProfile,
    Play,
    build_internal_threat_machines,
    build_trigger_machines,
    incompatible,
    is_foolable,
    is_irreducible,
    is_rigid,
    is_strictly_enforceable_seq,
    limit_mean_payoff,
    parse_sequence,
    played_states,
    seq_payoff,
    simulate,
    suffix_classes,
)

from leanfa.machines import suffix_partition
from leanfa.sequences import internal_threat_blocks

from conftest import random_game, random_machine

F = Fraction


def seq(text, game=None):
    return parse_sequence(text, game)


def test_parse_sequence_forms(pd):
    s = seq("2*(C,C) 1*(D,D)", pd)
    assert s.entries == (("C", "C"), ("C", "C"), ("D", "D"))
    assert str(seq("(C,D)")) == "(C,D)"
    with pytest.raises(ParseError):
        seq("2*(C)")
    with pytest.raises(ParseError):
        seq("0*(C,C)")
    with pytest.raises(ValueError):
        seq("1*(C,X)", pd)


def test_seq_payoff_examples(pd):
    assert seq_payoff(seq("1*(C,C) 1*(D,D)"), pd) == PayoffProfile(F(1), F(1))
    assert seq_payoff(seq("1*(C,C) 1*(C,D)"), pd) == PayoffProfile(F(1, 2), F(5, 2))
    assert seq_payoff(seq("1*(C,D) 1*(D,D) 1*(D,C)"), pd) == PayoffProfile(F(2, 3), F(2, 3))


def test_seq_payoff_rotation_invariant():
    rng = random.Random(3)
    for _ in range(100):
        game = random_game(rng)
        entries = tuple(
            (rng.choice(game.actions1), rng.choice(game.actions2))
            for _ in range(rng.randint(1, 6))
        )
        s = ActionSeq(entries)
        base = seq_payoff(s, game)
        for offset in range(1, len(entries) + 1):
            assert seq_payoff(s.rotation(offset), game) == base


def test_strict_enforceability(pd):
    assert is_strictly_enforceable_seq(seq("1*(C,C) 1*(D,D)"), pd)
    assert not is_strictly_enforceable_seq(seq("1*(D,D)"), pd)
    assert is_strictly_enforceable_seq(seq("1*(C,D) 1*(D,D) 1*(D,C)"), pd)


def test_trigger_machines_shape_and_play(pd):
    s = seq("1*(C,C) 1*(D,D)", pd)
    m1, m2 = build_trigger_machines(s, pd)
    assert len(m1.states) == 3 and len(m2.states) == 3
    play = simulate(m1, m2)
    assert play.preperiod == ()
    assert [a for _, a in play.cycle] == list(s.entries)

    s2 = seq("1*(C,C) 1*(C,D)", pd)
    n1, n2 = build_trigger_machines(s2, pd)
    assert [n1.output[q] for q in ("1", "2")] == ["C", "C"]
    assert n1.output["punish"] == "D"


def test_trigger_for_length_one_is_grim_shaped(pd, grim1):
    m1, _ = build_trigger_machines(seq("1*(C,C)", pd), pd)
    assert len(m1.states) == 2
    # same behavior as grim trigger: cooperate, punish forever on defection
    from leanfa import canonical_form

    assert canonical_form(m1, pd) == canonical_form(grim1, pd)


def test_trigger_punish_action_is_first_forcing_in_declared_order():
    # a game where player 1 has two minmax-forcing actions: the punish state
    # must use the first one in the game's declared order
    from leanfa.games import StageGame, forcing_actions

    F2 = Fraction
    table = {
        ("x", "l"): PayoffProfile(F2(1), F2(0)),
        ("x", "r"): PayoffProfile(F2(1), F2(0)),
        ("y", "l"): PayoffProfile(F2(1), F2(0)),
        ("y", "r"): PayoffProfile(F2(1), F2(-1)),
        ("z", "l"): PayoffProfile(F2(4), F2(5)),
        ("z", "r"): PayoffProfile(F2(1), F2(5)),
    }
    game = StageGame("multi", ("x", "y", "z"), ("l", "r"), table)
    assert forcing_actions(game, 1) == ("x", "y")
    s = ActionSeq((("z", "l"),))
    m1, m2 = build_trigger_machines(s, game)
    assert m1.output["punish"] == "x"
    assert m2.output["punish"] == "r"


def test_trigger_rejects_unenforceable(pd):
    with pytest.raises(ValueError, match="not strictly enforceable"):
        build_trigger_machines(seq("1*(D,D)", pd), pd)


def test_trigger_play_matches_seq_payoff_random(pd):
    rng = random.Random(5)
    found = 0
    while found < 60:
        entries = tuple(
            (rng.choice("CD"), rng.choice("CD")) for _ in range(rng.randint(1, 5))
        )
        s = ActionSeq(entries)
        if not is_strictly_enforceable_seq(s, pd):
            continue
        found += 1
        pair = build_trigger_machines(s, pd)
        assert limit_mean_payoff(simulate(*pair), pd) == seq_payoff(s, pd)


def test_internal_threat_construction(pd):
    m1, m2 = build_internal_threat_machines(1, 1, 1, pd)
    assert len(m1.states) == 3 and len(m2.states) == 3
    play = simulate(m1, m2)
    assert play.preperiod == ()
    assert [a for _, a in play.cycle] == [("C", "D"), ("D", "D"), ("D", "C")]
    assert limit_mean_payoff(play, pd) == PayoffProfile(F(2, 3), F(2, 3))
    # the rescue state for player 1 sits at the first mutual-defection block
    assert m1.transition[("3", "C")] == "1"
    assert m1.transition[("3", "D")] == "3"
    assert m2.transition[("1", "D")] == "1"


def test_internal_threat_larger_blocks(pd):
    m1, m2 = build_internal_threat_machines(2, 1, 2, pd)
    assert len(m1.states) == 5
    assert limit_mean_payoff(simulate(m1, m2), pd) == PayoffProfile(F(4, 5), F(4, 5))


def test_internal_threat_rejects_unenforceable(pd):
    with pytest.raises(ValueError, match="not strictly enforceable"):
        build_internal_threat_machines(4, 1, 1, pd)


def test_internal_threat_blocks(pd):
    assert internal_threat_blocks(seq("2*(C,D) 1*(D,D) 3*(D,C)")) == (2, 1, 3)
    with pytest.raises(ValueError, match=r"^entry \(C,C\) outside the C/D blocks$"):
        internal_threat_blocks(seq("1*(C,D) 1*(C,C) 1*(D,D) 1*(D,C)"))
    # an outside entry is named before the block order is checked
    with pytest.raises(ValueError, match=r"^entry \(C,C\) outside"):
        internal_threat_blocks(seq("1*(D,C) 1*(C,C)"))
    for text in ("1*(D,D) 1*(C,D) 1*(D,C)", "1*(C,D) 1*(D,D) 1*(C,D) 1*(D,C)", "1*(C,D) 1*(D,C)"):
        with pytest.raises(ValueError, match=r"block order \(C,D\)\.\.\., \(D,D\)"):
            internal_threat_blocks(seq(text))


def test_incompatible_examples(pd):
    s = seq("1*(C,C) 1*(D,D)")
    assert incompatible(s, 1, 2, 1)
    s2 = seq("1*(C,C) 1*(C,D)")
    assert not incompatible(s2, 1, 2, 1)  # player 1 always plays the same action
    assert incompatible(s2, 1, 2, 2)


def test_irreducibility_examples(pd):
    for nc, nd in ((1, 1), (2, 1), (1, 2)):
        s = seq(f"{nc}*(C,C) {nd}*(D,D)")
        assert is_irreducible(s, 1)
        assert is_irreducible(s, 2)
    s2 = seq("1*(C,C) 1*(C,D)")
    assert not is_irreducible(s2, 1)
    assert is_irreducible(s2, 2)
    assert is_irreducible(seq("1*(C,C)"), 1)  # single entry, vacuous
    # duplicated entries share a suffix class, so irreducibility fails
    assert not is_irreducible(seq("2*(C,C)"), 1)


def test_block_sequences_are_irreducible_for_both_players():
    # alternating blocks of distinct action pairs, injective on each side
    rng = random.Random(9)
    for _ in range(60):
        b = rng.randint(2, 3)
        game = random_game(rng, 3, 3)
        beta1 = rng.sample(list(game.actions1), b)
        beta2 = rng.sample(list(game.actions2), b)
        entries = []
        for n in range(b):
            entries.extend([(beta1[n], beta2[n])] * rng.randint(1, 2))
        s = ActionSeq(tuple(entries))
        assert is_irreducible(s, 1)
        assert is_irreducible(s, 2)


def test_irreducibility_bounds_played_states(pd):
    # any machine pair that replays the sequence uses at least one player-i
    # state per suffix class
    rng = random.Random(13)
    s = seq("1*(C,C) 1*(D,D)", pd)
    m1, m2 = build_trigger_machines(s, pd)
    classes = suffix_classes(s)
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 40000:
        attempts += 1
        cand = random_machine(rng, 1, pd, rng.randint(2, 4))
        play = simulate(cand, m2)
        if any(
            play.action_at(t) != s.action_at(t) for t in range(1, play.horizon + 1)
        ):
            continue
        checked += 1
        assert len(played_states(play, 1)) >= len(classes)
    assert checked == 60


def test_rigidity_examples(pd):
    assert is_rigid(seq("1*(C,C) 1*(C,D)"), 1, {"C"}, pd).rigid
    assert is_rigid(seq("1*(C,D) 1*(D,D) 1*(D,C)"), 1, {"D"}, pd).rigid
    verdict = is_rigid(seq("2*(C,C)"), 1, {"C"}, pd)
    assert not verdict.rigid
    assert verdict.rotation_offset == 1 and verdict.prefix_len == 1


def test_rigidity_larger_instance(pd):
    # two cooperative entries against one defection, coprime block sizes
    assert is_rigid(seq("2*(C,C) 1*(C,D)"), 1, {"C"}, pd).rigid


def test_foolability_examples(pd):
    w = is_foolable(seq("1*(C,C) 1*(D,D)"), 1, pd)
    assert w is not None
    assert w.rotation_offset == 2 and w.action == "D"
    assert w.rotation.entries == (("D", "D"), ("C", "C"))

    w2 = is_foolable(seq("1*(C,C) 1*(C,D)"), 1, pd)
    assert w2 is not None
    assert w2.rotation.entries == (("C", "D"), ("C", "C")) and w2.action == "D"

    assert is_foolable(seq("1*(D,D)"), 1, pd) is None


def _check_foolability_witness(s, player, witness, game):
    # re-verify every strict inequality from the definition, independently
    j = 3 - player
    k = len(s)
    target = seq_payoff(s, game).for_player(j)
    rho = witness.rotation.entries
    last_own = rho[-1][player - 1]
    final = (last_own, witness.action) if player == 1 else (witness.action, last_own)
    for n in range(1, k + 1):
        segment = list(rho[n - 1 : k - 1]) + [final]
        mean = sum(game.u(j, *e) for e in segment) / F(len(segment))
        assert mean > target


def test_foolability_witnesses_are_valid(pd):
    rng = random.Random(17)
    tested = 0
    for _ in range(400):
        entries = tuple(
            (rng.choice("CD"), rng.choice("CD")) for _ in range(rng.randint(1, 5))
        )
        s = ActionSeq(entries)
        for player in (1, 2):
            w = is_foolable(s, player, pd)
            if w is not None:
                _check_foolability_witness(s, player, w, pd)
                tested += 1
    assert tested > 50


pd_entries = st.lists(st.tuples(st.sampled_from("CD"), st.sampled_from("CD")), min_size=1, max_size=6)


@given(pd_entries, st.sampled_from((1, 2)))
def test_sequence_and_its_play_agree_on_suffixes_and_incompatibility(entries, player):
    # a play that runs the sequence as its cycle from step 1 is the same word
    s = ActionSeq(tuple(entries))
    play = Play((), tuple(((f"p{n}", f"q{n}"), e) for n, e in enumerate(s.entries)))
    assert suffix_partition(s) == suffix_partition(play)
    times = range(1, 2 * len(s) + 1)
    for t1, t2 in itertools.product(times, times):
        assert incompatible(s, t1, t2, player) == incompatible(play, t1, t2, player)
