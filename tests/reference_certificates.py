"""Reference certificate helpers: the name-based bodies the integer scans replaced.

`incompatible` reads every position through `PeriodicWord.action_at`,
`suffix_partition` builds each window with its own `action_at` calls, and
`_incompatible_clique` asks `incompatible` pair by pair inside `_max_clique`.
`tests/test_certificate_differential.py` compares the library with them.
"""

from __future__ import annotations

from leanfa.games import PlayerId, opponent
from leanfa.machines import PeriodicWord
from leanfa.sequences import ActionSeq


def _group_by_key(keys: dict[int, object]) -> tuple[tuple[int, ...], ...]:
    groups: dict[object, list[int]] = {}
    for t in sorted(keys):
        groups.setdefault(keys[t], []).append(t)
    return tuple(tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]))


def suffix_partition(word: PeriodicWord) -> tuple[tuple[int, ...], ...]:
    """Partition times 1..H by equality of their infinite action suffixes.

    Comparing windows of length H = |preperiod| + |cycle| suffices: past the
    preperiod both suffixes are periodic, and agreement over a full period
    there implies agreement forever.
    """
    horizon = word.horizon
    keys = {
        t: tuple(word.action_at(t + n) for n in range(horizon)) for t in range(1, horizon + 1)
    }
    return _group_by_key(keys)


suffix_classes = suffix_partition


def incompatible(source: PeriodicWord, t1: int, t2: int, player: PlayerId) -> bool:
    """Whether times t1, t2 force distinct states on `player`'s machine.

    True when there is an offset at which the two own-action continuations
    differ while the opponent's actions agreed strictly earlier.  A scan of
    length preperiod+cycle decides it: full agreement that far means the
    suffixes agree forever.
    """
    if t1 < 1 or t2 < 1:
        raise ValueError("time points are 1-based")
    own = player - 1
    other = opponent(player) - 1
    for n in range(source.horizon):
        a, b = source.action_at(t1 + n), source.action_at(t2 + n)
        if a[own] != b[own]:
            return True
        if a[other] != b[other]:
            return False
    return False


def _max_clique(members: list[int], compatible) -> int:
    best = 0

    def grow(clique: list[int], rest: list[int]):
        nonlocal best
        if len(clique) > best:
            best = len(clique)
        for idx, v in enumerate(rest):
            if len(clique) + len(rest) - idx <= best:
                break
            if all(compatible(v, u) for u in clique):
                grow(clique + [v], rest[idx + 1 :])

    grow([], members)
    return best


def _incompatible_clique(seq: ActionSeq, player: PlayerId, positions: list[int]) -> int:
    """Largest set of pairwise player-incompatible suffix classes among positions.

    Pairwise incompatible class representatives force pairwise distinct
    played states, so the clique size lower-bounds the player's played-state
    count in any pair replaying the sequence.
    """
    classes = [cls for cls in suffix_classes(seq) if cls[0] in positions]
    reps = [cls[0] for cls in classes]
    return _max_clique(reps, lambda a, b: incompatible(seq, a, b, player))
