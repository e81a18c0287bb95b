"""Stage-payoff means computed entirely in exact `Fraction`s.

These are the plain forms of the payoff sums that `leanfa` runs on the
game's integer-scaled payoff table: each sums `game.u(...)` into a
`Fraction` and divides.  The differential tests compare the two on random
games with non-integer payoffs.
"""

from __future__ import annotations

from fractions import Fraction

from leanfa import ActionSeq, PayoffProfile, StageGame, opponent
from leanfa.cycles import MachinePath
from leanfa.machines import Play
from leanfa.sequences import FoolabilityWitness, RigidityVerdict


def limit_mean_payoff(play: Play, game: StageGame) -> PayoffProfile:
    n = len(play.cycle)
    p1 = sum((game.u(1, *a) for _, a in play.cycle), Fraction(0)) / n
    p2 = sum((game.u(2, *a) for _, a in play.cycle), Fraction(0)) / n
    return PayoffProfile(p1, p2)


def finite_mean_payoff(play: Play, game: StageGame, horizon: int) -> PayoffProfile:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    total1 = Fraction(0)
    total2 = Fraction(0)
    pre = len(play.preperiod)
    cyc = len(play.cycle)
    upto_pre = min(horizon, pre)
    for _, a in play.preperiod[:upto_pre]:
        total1 += game.u(1, *a)
        total2 += game.u(2, *a)
    remaining = horizon - upto_pre
    if remaining:
        cyc_sum1 = sum((game.u(1, *a) for _, a in play.cycle), Fraction(0))
        cyc_sum2 = sum((game.u(2, *a) for _, a in play.cycle), Fraction(0))
        full, part = divmod(remaining, cyc)
        total1 += full * cyc_sum1
        total2 += full * cyc_sum2
        for _, a in play.cycle[:part]:
            total1 += game.u(1, *a)
            total2 += game.u(2, *a)
    return PayoffProfile(total1 / horizon, total2 / horizon)


def seq_payoff(seq: ActionSeq, game: StageGame) -> PayoffProfile:
    k = len(seq)
    p1 = sum((game.u(1, *e) for e in seq.entries), Fraction(0)) / k
    p2 = sum((game.u(2, *e) for e in seq.entries), Fraction(0)) / k
    return PayoffProfile(p1, p2)


def path_payoff(path: MachinePath, game: StageGame, for_player: int) -> Fraction:
    if not path.actions:
        raise ValueError("empty path has no payoff")
    owner = path.machine.player
    total = Fraction(0)
    for q, a in zip(path.states, path.actions):
        out = path.machine.output[q]
        pair = (out, a) if owner == 1 else (a, out)
        total += game.u(for_player, *pair)
    return total / len(path.actions)


def is_rigid(
    seq: ActionSeq, player: int, outputs: frozenset[str] | set[str], game: StageGame
) -> RigidityVerdict:
    outputs = frozenset(outputs)
    if not outputs <= set(game.actions(player)):
        raise ValueError("outputs must be a subset of the player's actions")
    j = opponent(player)
    target = seq_payoff(seq, game).for_player(j)
    k = len(seq)
    own = player - 1
    for offset in range(1, k + 1):
        rotated = seq.rotation(offset)
        total = Fraction(0)
        for n in range(1, k):
            total += game.u(j, *rotated.entries[n - 1])
            if rotated.entries[0][own] in outputs and rotated.entries[n][own] in outputs:
                if total / n == target:
                    return RigidityVerdict(False, offset, n)
    return RigidityVerdict(True, None, None)


def is_foolable(seq: ActionSeq, player: int, game: StageGame) -> FoolabilityWitness | None:
    j = opponent(player)
    target = seq_payoff(seq, game).for_player(j)
    k = len(seq)
    for offset in range(1, k + 1):
        rotated = seq.rotation(offset)
        last_own = rotated.entries[k - 1][player - 1]
        for s_prime in game.actions(j):
            pair = (last_own, s_prime) if player == 1 else (s_prime, last_own)
            bonus = game.u(j, *pair)
            ok = True
            for n in range(1, k + 1):
                total = sum(
                    (game.u(j, *rotated.entries[m - 1]) for m in range(n, k)), Fraction(0)
                )
                if (total + bonus) / (k - n + 1) <= target:
                    ok = False
                    break
            if ok:
                return FoolabilityWitness(offset, rotated, s_prime)
    return None
