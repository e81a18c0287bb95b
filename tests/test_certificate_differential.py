"""Certificate helpers against their name-based references, and a pin of
every trigger verdict the benchmark's trigger workload asks for.

The references in `tests/reference_certificates.py` read every position
through `PeriodicWord.action_at` and ask `incompatible` pair by pair; the
library scans one unrolled word and builds one incompatibility relation
per side.  The pin covers lean and AR under R and delta on the trigger pair
of every stored sequence, plus lean under Q where the sequence is foolable
for both players: result, certificate strings and side texts.  Run this
file as a script to print the pin of the code on the path.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from pathlib import Path

import reference_certificates as ref
from conftest import random_game, random_machine
from leanfa import (
    PRISONERS_DILEMMA,
    ActionSeq,
    Measure,
    build_trigger_machines,
    incompatible,
    is_abreu_rubinstein,
    is_irreducible,
    is_lean,
    parse_sequence,
    simulate,
)
from leanfa.equilibrium import _max_clique
from leanfa.machines import suffix_partition
from leanfa.sequences import incompatibility, suffix_classes

SEQUENCES = Path(__file__).resolve().parents[1] / "bench" / "data" / "trigger_sequences.txt"

# generated by `PYTHONPATH=src python tests/test_certificate_differential.py`
# on the code before the certificate path moved to integer scans
TRIGGER_VERDICTS_SHA256 = "4f5a95a946a65ef60843feb839fe77df9e818bc9f4703550640df6e92325e9c9"
TRIGGER_VERDICT_COUNTS = {
    "player 1 foolable+irreducible": 462,
    "player 1 irreducible-classes": 3264,
    "player 2 foolable+irreducible": 462,
    "player 2 irreducible-classes": 3264,
    "result holds": 3726,
}


def _random_sequences(rng: random.Random, per_game: int):
    for size1, size2 in ((2, 2), (2, 3), (3, 3)):
        game = random_game(rng, size1, size2)
        for _ in range(per_game):
            yield ActionSeq(tuple(
                (rng.choice(game.actions1), rng.choice(game.actions2))
                for _ in range(rng.randint(1, 8))
            ))


def test_sequence_certificate_helpers_match_reference():
    rng = random.Random(2024)
    for seq in _random_sequences(rng, 25):
        k = len(seq)
        assert suffix_partition(seq) == ref.suffix_partition(seq)
        reps = [cls[0] for cls in suffix_classes(seq)]
        times = range(1, 2 * k + 1)  # past the horizon too
        for player in (1, 2):
            expected = {
                (t1, t2): ref.incompatible(seq, t1, t2, player) for t1 in times for t2 in times
            }
            for (t1, t2), answer in expected.items():
                assert incompatible(seq, t1, t2, player) == answer, (seq, t1, t2, player)
            masks = incompatibility(seq, list(times), player)
            assert masks == [
                sum(expected[(t1, t2)] << b for b, t2 in enumerate(times)) for t1 in times
            ]
            assert is_irreducible(seq, player) == (
                len(reps) == k and all(expected[(s, t)] for s in reps for t in reps if s != t)
            )
            relation = incompatibility(seq, reps, player)
            for size in range(k + 1):
                for subset in itertools.combinations(range(1, k + 1), size):
                    members = [v for v, t in enumerate(reps) if t in subset]
                    assert _max_clique(members, relation) == ref._incompatible_clique(
                        seq, player, list(subset)
                    ), (seq, player, subset)


def test_max_clique_of_1100_pairwise_incompatible_classes():
    # one stack frame per clique member would pass Python's recursion limit
    full = (1 << 1100) - 1
    assert _max_clique(range(1100), [full ^ (1 << v) for v in range(1100)]) == 1100


def test_play_suffix_partition_and_incompatibility_match_reference():
    rng = random.Random(4048)
    with_preperiod = 0
    for _ in range(150):
        game = random_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        m1, m2 = (random_machine(rng, p, game, rng.randint(1, 5)) for p in (1, 2))
        play = simulate(m1, m2)
        with_preperiod += bool(play.preperiod)
        assert suffix_partition(play) == ref.suffix_partition(play)
        times = range(1, play.horizon + 3)
        for player in (1, 2):
            expected = [[ref.incompatible(play, t1, t2, player) for t2 in times] for t1 in times]
            assert [[incompatible(play, t1, t2, player) for t2 in times] for t1 in times] == expected
            assert incompatibility(play, list(times), player) == [
                sum(bit << b for b, bit in enumerate(row)) for row in expected
            ]
    assert with_preperiod >= 50


def trigger_verdicts() -> tuple[str, Counter]:
    """The sha256 of one line per trigger verdict, and counts of results and
    certificate names."""
    game = PRISONERS_DILEMMA
    digest = hashlib.sha256()
    counts: Counter = Counter()
    for line in SEQUENCES.read_text().splitlines():
        text, fool = line.split("\t")
        m1, m2 = build_trigger_machines(parse_sequence(text, game), game)
        ops = [(is_lean, "R"), (is_abreu_rubinstein, "R"),
               (is_lean, "delta"), (is_abreu_rubinstein, "delta")]
        if fool == "foolable-both":
            ops.append((is_lean, "Q"))
        for check, measure in ops:
            v = check(m1, m2, game, Measure.from_text(measure))
            counts[f"result {v.result}"] += 1
            counts.update(f"player {c.player} {c.name}" for c in v.certificates)
            fields = [text, v.kind, measure, v.result,
                      *(f"{c.player}:{c}" for c in v.certificates), *v.sides]
            digest.update(("\t".join(fields) + "\n").encode())
    return digest.hexdigest(), counts


def test_trigger_verdicts_match_pin():
    sha, counts = trigger_verdicts()
    assert dict(counts) == TRIGGER_VERDICT_COUNTS
    assert sha == TRIGGER_VERDICTS_SHA256


if __name__ == "__main__":
    sha, counts = trigger_verdicts()
    print(f'TRIGGER_VERDICTS_SHA256 = "{sha}"')
    print(f"TRIGGER_VERDICT_COUNTS = {dict(sorted(counts.items()))!r}")
