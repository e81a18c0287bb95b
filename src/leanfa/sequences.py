"""Finite action sequences: payoffs, trigger constructions, certificates.

The certificate predicates (irreducibility, rigidity, foolability) are
combinatorial conditions on a finite sequence of action pairs that bound,
from below, how many states any machine reproducing the repeated sequence
must play, or refute equilibrium for machines that are too small.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .games import (
    ParseError,
    PayoffProfile,
    PlayerId,
    StageGame,
    forcing_actions,
    is_strictly_enforceable,
    opponent,
)
from .machines import Machine, PeriodicWord, suffix_partition


@dataclass(frozen=True)
class ActionSeq(PeriodicWord):
    """A nonempty finite sequence of action pairs, repeated forever.

    As a periodic word it has no preperiod and `entries` as its cycle.
    """

    entries: tuple[tuple[str, str], ...]
    preperiod = ()

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty action sequence")

    @property
    def cycle(self) -> tuple[tuple[str, str], ...]:
        return self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def unrolled(self, n: int) -> list[tuple[str, str]]:
        return list(itertools.islice(itertools.cycle(self.entries), n))

    def rotation(self, offset: int) -> "ActionSeq":
        """The rotation starting at 1-based position `offset`."""
        k = len(self.entries)
        if not 1 <= offset <= k:
            raise ValueError(f"rotation offset must be in 1..{k}")
        i = offset - 1
        return ActionSeq(self.entries[i:] + self.entries[:i])

    def __str__(self) -> str:
        return " ".join(f"({a},{b})" for a, b in self.entries)


_TERM_RE = re.compile(r"^(?:(\d+)\*)?\(([^,()\s]+),([^,()\s]+)\)$")


def parse_sequence(text: str, game: StageGame | None = None) -> ActionSeq:
    """Parse whitespace-separated terms "N*(a1,a2)" or "(a1,a2)"."""
    entries: list[tuple[str, str]] = []
    for term in text.split():
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad sequence term {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count < 1:
            raise ParseError(f"repetition count must be positive in {term!r}")
        entries.extend([(m.group(2), m.group(3))] * count)
    if not entries:
        raise ParseError("empty action sequence")
    seq = ActionSeq(tuple(entries))
    if game is not None:
        validate_sequence(seq, game)
    return seq


def validate_sequence(seq: ActionSeq, game: StageGame) -> None:
    for a1, a2 in seq.entries:
        if a1 not in game.actions1:
            raise ValueError(f"action {a1!r} not in player 1's actions")
        if a2 not in game.actions2:
            raise ValueError(f"action {a2!r} not in player 2's actions")


def seq_payoff(seq: ActionSeq, game: StageGame) -> PayoffProfile:
    return game.mean_payoff(seq.entries)


def is_strictly_enforceable_seq(seq: ActionSeq, game: StageGame) -> bool:
    return is_strictly_enforceable(game, seq_payoff(seq, game))


def _punish_action(game: StageGame, player: PlayerId) -> str:
    # several actions may force the opponent's minmax; pick the first in
    # the game's declared order so fixtures are reproducible
    return forcing_actions(game, player)[0]


def build_trigger_machines(seq: ActionSeq, game: StageGame) -> tuple[Machine, Machine]:
    """Machines that jointly play the repeated sequence and punish deviations.

    Each machine has one normal state per sequence position plus an
    absorbing punish state whose output holds the opponent at minmax.  Any
    observed deviation from the sequence sends the machine to the punish
    state forever.  Only defined for strictly enforceable sequences.
    """
    validate_sequence(seq, game)
    if not is_strictly_enforceable_seq(seq, game):
        raise ValueError(
            f"sequence payoff {seq_payoff(seq, game)} is not strictly enforceable; "
            "the punish state could not deter deviations"
        )
    k = len(seq)
    machines = []
    for player in (1, 2):
        opp = opponent(player)
        inputs = game.actions(opp)
        states = tuple(str(n) for n in range(1, k + 1)) + ("punish",)
        output = {str(n): seq.entries[n - 1][player - 1] for n in range(1, k + 1)}
        output["punish"] = _punish_action(game, player)
        transition: dict[tuple[str, str], str] = {}
        for n in range(1, k + 1):
            expected = seq.entries[n - 1][opp - 1]
            nxt = str(n + 1) if n < k else "1"
            for a in inputs:
                transition[(str(n), a)] = nxt if a == expected else "punish"
        for a in inputs:
            transition[("punish", a)] = "punish"
        machines.append(
            Machine(player, states, "1", output, transition, name=f"trigger{player}")
        )
    return machines[0], machines[1]


def internal_threat_blocks(seq: ActionSeq) -> tuple[int, int, int]:
    """The block lengths (k_cd, k_dd, k_dc) of a sequence k_cd*(C,D),
    k_dd*(D,D), k_dc*(D,C), the arguments of `build_internal_threat_machines`."""
    blocks = (("C", "D"), ("D", "D"), ("D", "C"))
    for a1, a2 in seq.entries:
        if (a1, a2) not in blocks:
            raise ValueError(f"entry ({a1},{a2}) outside the C/D blocks")
    runs = [(entry, len(list(run))) for entry, run in itertools.groupby(seq.entries)]
    if tuple(entry for entry, _ in runs) != blocks:
        raise ValueError("internal-threat needs the block order (C,D)..., (D,D)..., (D,C)...")
    return tuple(k for _, k in runs)


def build_internal_threat_machines(
    k_cd: int, k_dd: int, k_dc: int, game: StageGame
) -> tuple[Machine, Machine]:
    """Punishment routed through the cycle itself instead of an absorbing state.

    For the sequence k_cd*(C,D), k_dd*(D,D), k_dc*(D,C) over the PD action
    names, each machine has exactly k = k_cd+k_dd+k_dc states.  Where the
    opponent is due to defect the machine advances regardless; where the
    opponent is due to cooperate, a defection is answered by jumping to the
    machine's first mutual-defection-facing state, so every state stays on
    the main cycle and no extra threat state is needed.
    """
    if min(k_cd, k_dd, k_dc) < 1:
        raise ValueError("all three block lengths must be positive")
    for player in (1, 2):
        if tuple(game.actions(player)) != ("C", "D"):
            raise ValueError("internal-threat construction is defined for C/D action sets")
    entries = (
        [("C", "D")] * k_cd + [("D", "D")] * k_dd + [("D", "C")] * k_dc
    )
    seq = ActionSeq(tuple(entries))
    if not is_strictly_enforceable_seq(seq, game):
        raise ValueError(
            f"block lengths ({k_cd},{k_dd},{k_dc}) give payoff {seq_payoff(seq, game)}, "
            "not strictly enforceable"
        )
    k = len(seq)
    rescue = {1: k_cd + k_dd + 1, 2: 1}
    machines = []
    for player in (1, 2):
        opp = opponent(player)
        states = tuple(str(n) for n in range(1, k + 1))
        output = {str(n): seq.entries[n - 1][player - 1] for n in range(1, k + 1)}
        transition: dict[tuple[str, str], str] = {}
        for n in range(1, k + 1):
            nxt = str(n + 1) if n < k else "1"
            if seq.entries[n - 1][opp - 1] == "D":
                transition[(str(n), "C")] = nxt
                transition[(str(n), "D")] = nxt
            else:
                transition[(str(n), "C")] = nxt
                transition[(str(n), "D")] = str(rescue[player])
        machines.append(
            Machine(player, states, "1", output, transition, name=f"internal{player}")
        )
    return machines[0], machines[1]


def incompatible(source: PeriodicWord, t1: int, t2: int, player: PlayerId) -> bool:
    """Whether times t1, t2 force distinct states on `player`'s machine.

    True when there is an offset at which the two own-action continuations
    differ while the opponent's actions agreed strictly earlier.  A scan of
    length preperiod+cycle decides it: full agreement that far means the
    suffixes agree forever.
    """
    if t1 < 1 or t2 < 1:
        raise ValueError("time points are 1-based")
    return incompatibility(source, (t1, t2), player)[0] != 0


def incompatibility(source: PeriodicWord, times: Sequence[int], player: PlayerId) -> list[int]:
    """The `incompatible` relation among `times`, one bitmask per time:
    bit b of entry a is set when times[a] and times[b] are incompatible.

    Each pair's windows are slices of one word, unrolled far enough for
    all of them, and are scanned up to their first differing action pair:
    the pair is incompatible when the own actions differ there.
    """
    own = 2 - opponent(player)  # the player's entry in an action pair
    horizon = source.horizon
    word = source.unrolled(max(times, default=0) + horizon - 1)
    windows = [word[t - 1 : t - 1 + horizon] for t in times]
    masks = [0] * len(times)
    for a, window in enumerate(windows):
        for b in range(a):
            for x, y in zip(window, windows[b]):
                if x != y:
                    if x[own] != y[own]:
                        masks[a] |= 1 << b
                        masks[b] |= 1 << a
                    break
    return masks


def suffix_classes(seq: ActionSeq) -> tuple[tuple[int, ...], ...]:
    """Suffix-equality classes of positions 1..k in the repeated sequence."""
    return suffix_partition(seq)


def is_irreducible(seq: ActionSeq, player: PlayerId) -> bool:
    """All pairs of distinct positions are incompatible for `player`.

    Positions sharing an action suffix can never be incompatible, so a
    sequence whose repetition has fewer suffix classes than entries is
    not irreducible.
    """
    classes = suffix_classes(seq)
    if len(classes) < len(seq):
        return False
    masks = incompatibility(seq, [cls[0] for cls in classes], player)
    full = (1 << len(masks)) - 1
    return all(mask | 1 << a == full for a, mask in enumerate(masks))


class RigidityVerdict(NamedTuple):
    rigid: bool
    rotation_offset: int | None
    prefix_len: int | None


def is_rigid(
    seq: ActionSeq, player: PlayerId, outputs: frozenset[str] | set[str], game: StageGame
) -> RigidityVerdict:
    """No proper prefix between two `outputs` positions matches the mean payoff.

    Scans every rotation and every proper prefix whose first entry and
    successor entry both show `player` using an action from `outputs`; the
    opponent's mean over such a prefix must differ from the sequence mean.
    On failure the violating rotation offset and prefix length are returned.
    """
    outputs = frozenset(outputs)
    if not outputs <= set(game.actions(player)):
        raise ValueError("outputs must be a subset of the player's actions")
    j = opponent(player)
    k = len(seq)
    *_, target = game.payoff_totals(seq.entries)
    own = player - 1
    for offset in range(1, k + 1):
        rotated = seq.rotation(offset).entries
        if rotated[0][own] not in outputs:
            continue
        for n, total in enumerate(game.payoff_totals(rotated[: k - 1]), 1):
            # the prefix mean total/n equals the sequence mean target/k
            if rotated[n][own] in outputs and total[j - 1] * k == target[j - 1] * n:
                return RigidityVerdict(False, offset, n)
    return RigidityVerdict(True, None, None)


class FoolabilityWitness(NamedTuple):
    rotation_offset: int
    rotation: ActionSeq
    action: str


def is_foolable(
    seq: ActionSeq, player: PlayerId, game: StageGame
) -> FoolabilityWitness | None:
    """Search for a rotation and opponent action that beat the sequence mean.

    A witness is a rotation and an opponent action s' such that every tail
    segment of the rotation, with its final entry's opponent component replaced
    by s', gives the opponent a strictly higher mean than the sequence
    itself.  Returns the first witness in rotation-then-action order, or
    None.
    """
    j = opponent(player)
    k = len(seq)
    *_, target = game.payoff_totals(seq.entries)
    for offset in range(1, k + 1):
        rotated = seq.rotation(offset)
        # prefix[m]: the opponent's scaled total over the rotation's first m entries
        prefix = [0, *(total[j - 1] for total in game.payoff_totals(rotated.entries[: k - 1]))]
        last_own = rotated.entries[k - 1][player - 1]
        for s_prime in game.actions(j):
            pair = (last_own, s_prime) if player == 1 else (s_prime, last_own)
            bonus = game.scaled[pair][j - 1]
            # the tail from entry n, its last entry's opponent action replaced
            # by s_prime, must beat the sequence mean for every n
            if all(
                (prefix[k - 1] - prefix[n - 1] + bonus) * k > target[j - 1] * (k - n + 1)
                for n in range(1, k + 1)
            ):
                return FoolabilityWitness(offset, rotated, s_prime)
    return None
