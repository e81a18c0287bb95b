"""Nash, Abreu-Rubinstein, and lean equilibrium checks for machine pairs.

Nash is decided exactly by comparing each side's limit-of-means payoff with
the best-response value of the opposing machine.  The two refinements
quantify over every strictly simpler machine for one player, which the
checker covers by a combination of

  * canonical bounded enumeration (one representative per isomorphism
    class, all states reachable, duplicate absorbing states merged), and
  * certificates on the pair's played cycle (irreducibility class counts,
    rigidity, foolability) that rule out *all* smaller machines, not just
    the enumerated ones.

Verdicts carry the search bound they were decided under; "holds" without
qualification is only issued when a certificate (or, for the state-count
measure, a provably complete enumeration) covers every simpler machine.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .cycles import _best_reachable, construct_best_response, is_sequence_forcing
from .games import PlayerId, StageGame, forcing_actions, is_strictly_enforceable, opponent
from .machines import Machine, classify_states, cycle_totals, simulate
from .sequences import (
    ActionSeq,
    incompatibility,
    is_foolable,
    is_rigid,
    seq_payoff,
    suffix_classes,
)


class Measure(enum.Enum):
    """The three strategy-complexity measures."""

    TOTAL_STATES = "Q"
    NORMAL_STATES = "R"
    NORMAL_TRANSITIONS = "delta"

    @classmethod
    def from_text(cls, text: str) -> "Measure":
        for m in cls:
            if m.value == text:
                return m
        raise ValueError(f"unknown measure {text!r} (expected Q, R, or delta)")


def measure_value(machine: Machine, game: StageGame, measure: Measure) -> int:
    report = classify_states(machine, game)
    if measure is Measure.TOTAL_STATES:
        return report.total_states
    if measure is Measure.NORMAL_STATES:
        return len(report.normal_states)
    return report.normal_transitions


@dataclass(frozen=True)
class SearchBound:
    """Limits for the bounded exhaustive search over deviating machines."""

    max_total_states: int
    max_threat_states: int

    def __post_init__(self):
        if self.max_total_states < 1:
            raise ValueError(f"state bound must be at least 1, got {self.max_total_states}")
        if self.max_threat_states < 0:
            raise ValueError(
                f"threat-state bound must be non-negative, got {self.max_threat_states}"
            )

    def __str__(self) -> str:
        return f"states<={self.max_total_states} threat<={self.max_threat_states}"


def default_bound(machine: Machine, game: StageGame, measure: Measure) -> SearchBound:
    """Incumbent's measure value plus two states; one threat state per forcing output."""
    value = measure_value(machine, game, measure)
    return SearchBound(value + 2, len(forcing_actions(game, machine.player)))


HOLDS = "holds"
FAILS = "fails"
HOLDS_WITHIN_BOUND = "holds-within-bound"


@dataclass(frozen=True)
class Certificate:
    """Why no strictly simpler deviation can exist, beyond any search bound."""

    name: str
    player: PlayerId
    detail: str

    def __str__(self) -> str:
        return f"{self.name} [{self.detail}]"


class Decided(enum.Enum):
    """How a verdict's side was decided; the value formats its `Side`'s text."""

    NOT_NASH = "pair is not a Nash equilibrium (player {player} deviates)"
    MEASURE_ZERO = "player {player}: no simpler machine exists (measure 0)"
    CERTIFICATE = "player {player}: certificate {certificate}"
    DEVIATION = "player {player}: simpler deviation found ({bound})"
    COMPLETE = "player {player}: complete enumeration of all machines with fewer than {value} states"
    WITHIN_BOUND = "player {player}: no deviation within bound ({bound})"


@dataclass(frozen=True)
class Side:
    """One player's side of a refinement verdict, with the player's measure value."""

    player: PlayerId
    decided: Decided
    value: int | None = None
    bound: SearchBound | None = None
    certificate: Certificate | None = None

    def __str__(self) -> str:
        return self.decided.value.format(**vars(self))


@dataclass(frozen=True)
class Verdict:
    """A Nash, AR or lean verdict.  Its result, certificates and side texts
    are read from the witness and the `Side` records, one per player decided."""

    kind: str  # "nash" | "ar" | "lean"
    measure: Measure | None = None
    witness: Machine | None = None
    witness_player: PlayerId | None = None
    bound: SearchBound | None = None
    records: tuple[Side, ...] = ()

    @property
    def result(self) -> str:
        if self.witness is not None:
            return FAILS
        within = any(r.decided is Decided.WITHIN_BOUND for r in self.records)
        return HOLDS_WITHIN_BOUND if within else HOLDS

    @property
    def certificates(self) -> tuple[Certificate, ...]:
        if self.witness is not None:
            return ()
        return tuple(r.certificate for r in self.records if r.certificate is not None)

    @property
    def sides(self) -> tuple[str, ...]:
        return tuple(map(str, self.records))

    @property
    def holds(self) -> bool:
        return self.witness is None

    def exit_code(self) -> int:
        return {HOLDS: 0, FAILS: 1, HOLDS_WITHIN_BOUND: 2}[self.result]


def _oriented(i: PlayerId, m_i: Machine, m_j: Machine):
    return (m_i, m_j) if i == 1 else (m_j, m_i)


def is_best_response(m_i: Machine, m_j: Machine, game: StageGame) -> bool:
    """Exact check that m_i's limit-of-means payoff attains the best-response value."""
    if m_i.player == m_j.player:
        raise ValueError("machines must belong to opposite players")
    *totals, steps = cycle_totals(*_oriented(m_i.player, m_i, m_j), game)
    num, den = _best_reachable(m_j, game)[m_j._start]
    return totals[m_i.player - 1] * den == num * steps


def nash_deviator(m1: Machine, m2: Machine, game: StageGame) -> PlayerId | None:
    """The first player whose payoff falls short of its best-response value.

    None means the pair is a Nash equilibrium.  No witness is built: each
    side's scaled payoff total over the pair's cycle is compared with the
    start entry (num, den) of the other machine's best-reachable table by
    cross-multiplication.
    """
    total1, total2, steps = cycle_totals(m1, m2, game)
    num, den = _best_reachable(m2, game)[m2._start]
    if total1 * den != num * steps:
        return 1
    num, den = _best_reachable(m1, game)[m1._start]
    if total2 * den != num * steps:
        return 2
    return None


def is_nash(m1: Machine, m2: Machine, game: StageGame) -> Verdict:
    """Mutual best responses; on failure the witness is a best-response machine."""
    i = nash_deviator(m1, m2, game)
    if i is None:
        return Verdict("nash")
    witness = construct_best_response(m2 if i == 1 else m1, game)
    return Verdict("nash", witness=witness, witness_player=i)


# --- canonical machine enumeration --------------------------------------------

def _structures(n: int, degree: int) -> Iterator[tuple[int, ...]]:
    """Transition tables of initially connected machines in canonical order.

    Rows are scanned state by state, inputs in fixed order; a target may be
    any already-seen state or the next fresh one, and a state's row may only
    be scanned once the state has been discovered.  This yields exactly one
    table per isomorphism class.
    """
    total = n * degree
    table = [0] * total

    def rec(pos: int, maxseen: int) -> Iterator[tuple[int, ...]]:
        if pos == total:
            if maxseen == n - 1:
                yield tuple(table)
            return
        if pos % degree == 0 and pos // degree > maxseen:
            return
        cap = min(maxseen + 1, n - 1)
        for target in range(cap + 1):
            table[pos] = target
            yield from rec(pos + 1, max(maxseen, target))

    yield from rec(0, 0)


def _row_measure(
    n: int, table: Sequence[int], threats: Sequence[int], measure: Measure
) -> int:
    """`measure_value` of a pool row's machine.

    Threat states only loop to themselves, so the transitions between
    normal states are all transitions but those that enter a threat state.
    """
    if measure is Measure.TOTAL_STATES:
        return n
    if measure is Measure.NORMAL_STATES:
        return n - len(threats)
    return len(table) - sum(table.count(q) for q in threats)


def _pool_rows(
    game: StageGame,
    player: PlayerId,
    max_states: int,
    max_threat: int,
    measure: Measure,
    below: int,
) -> Iterator[tuple[int, tuple[int, ...], tuple[str, ...]]]:
    """(value, table, outputs) for each canonical machine of up to
    `max_states` states whose `measure` value is below `below`, in
    generation order.

    States are 0..n-1 with 0 initial; `table` and `outputs` are the
    machine's `_nxt` (inputs in sorted order) and `_outs`.  Canonical
    labels are first visits along the opponent's actions in the game's
    declared order (`_structures`); all rows of one structure share one
    `table`.  A row has at most `most` threat states (absorbing, with
    distinct forcing outputs), so a structure is skipped when its floor,
    the row formula with its `most` most-entered absorbing states as
    threats, is not below `below`.
    """
    inputs = game.actions(opponent(player))
    degree = len(inputs)
    by_name = sorted(range(degree), key=inputs.__getitem__)
    forcing = frozenset(forcing_actions(game, player))
    most = min(max_threat, len(forcing))
    loops = [(q,) * degree for q in range(max_states)]  # an absorbing state's row
    for n in range(1, max_states + 1):
        for shape in _structures(n, degree):  # inputs in the declared order
            absorbing = [q for q in range(n) if shape[q * degree : (q + 1) * degree] == loops[q]]
            entered = sorted(absorbing, key=shape.count, reverse=True)
            if _row_measure(n, shape, entered[:most], measure) >= below:
                continue
            table = tuple(shape[q * degree + k] for q in range(n) for k in by_name)
            for outs in itertools.product(game.actions(player), repeat=n):
                absorbing_outputs = [outs[q] for q in absorbing]
                if len(set(absorbing_outputs)) != len(absorbing_outputs):
                    continue  # duplicate absorbing states collapse to one
                threats = [q for q in absorbing if outs[q] in forcing]
                value = _row_measure(n, table, threats, measure)
                if len(threats) <= max_threat and value < below:
                    yield value, table, outs


def _pool_machines(
    game: StageGame,
    player: PlayerId,
    max_states: int,
    rows: Iterator[tuple[tuple[int, ...], tuple[str, ...]]],
) -> Iterator[Machine]:
    """The `Machine`s of pool rows (table, outputs) of up to `max_states`
    states, built from their tables; they share their state names."""
    inputs = tuple(sorted(game.actions(opponent(player))))
    names = [tuple(map(str, range(n))) for n in range(max_states + 1)]
    for table, outs in rows:
        yield Machine._of_table(player, names[len(outs)], 0, outs, inputs, table)


def enumerate_machines(
    player: PlayerId, game: StageGame, bound: SearchBound
) -> Iterator[Machine]:
    """One canonical representative per isomorphism class within the bound.

    All states are reachable; states are labelled by first-visit order under
    the game's input ordering, so renamings collide; machines containing two
    absorbing states with the same output are dropped (their merged form is
    enumerated at a smaller size).  These are the `_pool_rows` rows of
    state count below cap + 1, which skips no structure within the cap.
    """
    cap = bound.max_total_states
    rows = _pool_rows(game, player, cap, bound.max_threat_states, Measure.TOTAL_STATES, cap + 1)
    yield from _pool_machines(game, player, cap, (row[1:] for row in rows))


def _measured_pool(
    game: StageGame,
    player: PlayerId,
    max_states: int,
    max_threat: int,
    measure: Measure,
    below: int,
) -> tuple[tuple[int, tuple[int, ...], tuple[str, ...]], ...]:
    """The `_pool_rows` stream in (value, Machine._key) order, kept in the
    game's memo.

    The key of a pool machine compares its state count (its state names
    are "0".."n-1"), then its output names, then its target names, so the
    rows sort on those values without building the machines.

    The memo keeps one pool per key, for the largest `below` asked for; a
    smaller bound reads its prefix, since rows sort by value first and a
    smaller bound's structure skip drops only structures with no row below.
    """
    key = (player, max_states, max_threat, measure)
    built, pool = game._memo.pools.get(key, (-1, ()))
    if below <= built:
        return pool[: bisect_left(pool, (below,))]
    names = tuple(map(str, range(max_states)))
    scored = []
    targets = last_table = None
    for value, table, outs in _pool_rows(game, player, max_states, max_threat, measure, below):
        if table is not last_table:  # the target names depend on the structure only
            last_table = table
            targets = tuple(map(names.__getitem__, table))
        scored.append((value, len(outs), outs, targets, table))
    scored.sort()  # no two rows share a machine key, so `table` is never compared
    pool = tuple((row[0], row[4], row[2]) for row in scored)
    game._memo.pools[key] = below, pool
    return pool


def _enumeration_cap(measure: Measure, incumbent_value: int, game: StageGame, player: PlayerId) -> int:
    """State bound that already covers every canonical machine below the measure.

    Below a state count M every machine has fewer than M states.  Below a
    normal-state count M, a canonical machine has at most M-1 normal states
    plus one threat state per forcing output.  Below a transition count M, a
    canonical machine whose normal part contains a cycle has at most M-1
    normal states (tree plus a closing edge); acyclic normal parts are
    covered separately by chain machines.
    """
    n_force = len(forcing_actions(game, player))
    if measure is Measure.TOTAL_STATES:
        return incumbent_value - 1
    return incumbent_value - 1 + n_force


def _chain_machine(
    word: tuple[str, ...], punish: str, opp: Machine, game: StageGame, player: PlayerId
) -> Machine:
    """Play `word` against `opp`'s actual responses, then `punish` forever.

    Off-script observations jump straight to the absorbing punish state, so
    the normal part is a bare chain: length-L word costs L normal states and
    L-1 normal transitions.
    """
    reads, d = opp.input_actions, len(opp.input_actions)
    q = opp._start
    responses = []
    for a in word:
        responses.append(opp._outs[q])
        q = opp._nxt[q * d + reads.index(a)]
    L = len(word)
    inputs = tuple(sorted(game.actions(opponent(player))))
    nxt = tuple(
        i + 1 if i + 1 < L and a == responses[i] else L for i in range(L) for a in inputs
    )
    states = tuple(f"c{i}" for i in range(L)) + ("punish",)
    return Machine._of_table(
        player, states, 0, word + (punish,), inputs, nxt + (L,) * len(inputs), "chain"
    )


def _deviation_candidates(
    game: StageGame,
    player: PlayerId,
    measure: Measure,
    incumbent_value: int,
    bound: SearchBound,
    opp: Machine,
) -> Iterator[Machine]:
    """Machines with a strictly smaller measure, covering all such behaviors.

    Enumerated canonical machines come first in (measure, canonical key)
    order, drawn from a pool that holds only machines below the incumbent's
    value; for the transition-count measure they are followed by punishing
    chain machines, which realize the acyclic-normal-part behaviors whose
    state count exceeds the enumeration cap.
    """
    cap = min(bound.max_total_states, _enumeration_cap(measure, incumbent_value, game, player))
    if cap >= 1:
        rows = _measured_pool(
            game, player, cap, bound.max_threat_states, measure, incumbent_value
        )
        yield from _pool_machines(game, player, cap, (row[1:] for row in rows))
    if measure is Measure.NORMAL_TRANSITIONS:
        # a chain of L normal states has L + 1 states with its punish state
        for L in range(max(cap, 1), min(incumbent_value, bound.max_total_states - 1) + 1):
            for word in itertools.product(game.actions(player), repeat=L):
                for punish in forcing_actions(game, player):
                    yield _chain_machine(word, punish, opp, game, player)


def _find_deviation(
    game: StageGame,
    i: PlayerId,
    incumbent_value: int,
    m_j: Machine,
    measure: Measure,
    bound: SearchBound,
    require_nash: bool,
) -> Machine | None:
    """First strictly simpler machine for player i that is a best response
    to m_j (and, when require_nash, keeps the whole pair at Nash)."""
    target_num, target_den = _best_reachable(m_j, game)[m_j._start]
    for cand in _deviation_candidates(game, i, measure, incumbent_value, bound, m_j):
        *totals, steps = cycle_totals(*_oriented(i, cand, m_j), game)
        if totals[i - 1] * target_den != target_num * steps:
            continue
        if require_nash:
            num, den = _best_reachable(cand, game)[cand._start]
            if totals[2 - i] * den != num * steps:
                continue
        return cand
    return None


# --- certificates ---------------------------------------------------------------

def _max_clique(members: Sequence[int], relation: list[int]) -> int:
    """Size of the largest clique among `members`, where v and u are
    adjacent when bit u of `relation[v]` is set.  Branch and bound on a
    stack of (clique, size, index of the next member to try)."""
    best = 0
    stack = [(0, 0, 0)]
    while stack:
        clique, size, pos = stack.pop()
        for idx in range(pos, len(members)):
            if size + len(members) - idx <= best:
                break
            v = members[idx]
            if relation[v] & clique == clique:
                best = max(best, size + 1)
                stack.append((clique, size, idx + 1))
                stack.append((clique | 1 << v, size + 1, idx + 1))
                break
    return best


class _PlayedSequence:
    """A pair's played cycle as a sequence, with the facts that both sides'
    certificates share.  Each fact is computed when a side first needs it,
    at most once per verdict."""

    def __init__(self, seq: ActionSeq, game: StageGame):
        self.seq = seq
        self.game = game

    @cached_property
    def enforceable(self) -> bool:
        return is_strictly_enforceable(self.game, seq_payoff(self.seq, self.game))

    @cached_property
    def representatives(self) -> list[int]:
        """The first position of each suffix class."""
        return [cls[0] for cls in suffix_classes(self.seq)]


def _nonempty_subsets(actions: tuple[str, ...]) -> Iterator[frozenset[str]]:
    for size in range(1, len(actions) + 1):
        for combo in itertools.combinations(actions, size):
            yield frozenset(combo)


_CERT_MODES = ("auto", "irreducible", "rigid", "foolable", "none")


def _side_certificate(
    game: StageGame,
    i: PlayerId,
    m_j: Machine,
    measure: Measure,
    incumbent_value: int,
    played: _PlayedSequence | None,
    kind: str,
    certify: str,
) -> Certificate | None:
    """Certificate that no strictly simpler player-i deviation exists.

    Requires the pair's play to be a strictly enforceable cycle from the
    first step with m_j forcing it; then any simpler best response would
    replay the sequence, and the sequence's combinatorics bound its played
    states from below (irreducibility cliques), refute Nash for machines
    playing few states with given outputs (rigidity), or refute Nash when
    all states are played (foolability).

    Pairwise incompatible suffix classes force pairwise distinct played
    states, so a clique of player-i incompatible class representatives
    lower-bounds the played-state count of any pair replaying the sequence.
    The side builds one incompatibility relation over the representatives
    and reads every clique from it.
    """
    if certify == "none" or played is None or not played.enforceable:
        return None
    seq = played.seq
    forcing, _ = is_sequence_forcing(m_j, seq, i, game)
    if not forcing:
        return None
    M = incumbent_value
    reps = played.representatives
    relation = incompatibility(seq, reps, i)
    clique_all = _max_clique(range(len(reps)), relation)

    def rigid_below(played_cap: int) -> Certificate | None:
        # any best response with at most played_cap played states has too few
        # B-outputting states, so the pair cannot be at Nash
        for subset in _nonempty_subsets(game.actions(i)):
            b = sum(1 for e in seq.entries if e[i - 1] in subset)
            if b == 0:
                continue
            verdict = is_rigid(seq, i, subset, game)
            if not verdict.rigid:
                continue
            outside = [v for v, t in enumerate(reps) if seq.entries[t - 1][i - 1] not in subset]
            clique_out = _max_clique(outside, relation)
            if played_cap - clique_out < b:
                label = ",".join(sorted(subset))
                return Certificate(
                    "rigid",
                    i,
                    f"B={{{label}}} b={b}: at most {played_cap} played states, "
                    f"{clique_out} forced outside B",
                )
        return None

    if measure in (Measure.NORMAL_STATES, Measure.NORMAL_TRANSITIONS):
        if certify in ("auto", "irreducible", "foolable") and clique_all >= M:
            return Certificate(
                "irreducible-classes",
                i,
                f"{clique_all} pairwise-incompatible suffix classes >= measure {M}",
            )
        if kind == "lean" and certify in ("auto", "rigid", "foolable"):
            return rigid_below(M - 1)
        return None

    # total-state measure: smaller machines either play all their states
    # (killed by foolability) or play at most M-2 states
    if kind != "lean" or certify not in ("auto", "foolable"):
        return None
    witness = is_foolable(seq, i, game)
    if witness is None:
        return None
    fool_note = f"foolable via rotation offset {witness.rotation_offset}, action {witness.action}"
    if clique_all >= M - 1:
        return Certificate(
            "foolable+irreducible",
            i,
            f"{fool_note}; {clique_all} incompatible classes >= {M - 1}",
        )
    partial = rigid_below(M - 2)
    if partial is not None:
        return Certificate("foolable+rigid", i, f"{fool_note}; {partial.detail}")
    return None


def _pair_sequence(m1: Machine, m2: Machine, game: StageGame) -> _PlayedSequence | None:
    """The pair's played cycle as a sequence, when the play is purely cyclic."""
    play = simulate(m1, m2)
    if play.preperiod:
        return None
    return _PlayedSequence(ActionSeq(play.cycle_actions), game)


def _refinement_verdict(
    kind: str,
    m1: Machine,
    m2: Machine,
    game: StageGame,
    measure: Measure,
    bound: SearchBound | None,
    certify: str,
) -> Verdict:
    if certify not in _CERT_MODES:
        raise ValueError(f"certify must be one of {_CERT_MODES}")
    nash = is_nash(m1, m2, game)
    if nash.witness is not None:
        side = Side(nash.witness_player, Decided.NOT_NASH)
        return Verdict(kind, measure, nash.witness, nash.witness_player, bound, (side,))
    played = _pair_sequence(m1, m2, game)
    records: list[Side] = []
    for i in (1, 2):
        m_i, m_j = (m1, m2) if i == 1 else (m2, m1)
        M = measure_value(m_i, game, measure)
        if M == 0:
            records.append(Side(i, Decided.MEASURE_ZERO, M))
            continue
        side_bound = bound if bound is not None else default_bound(m_i, game, measure)
        cert = _side_certificate(game, i, m_j, measure, M, played, kind, certify)
        if cert is not None:
            records.append(Side(i, Decided.CERTIFICATE, M, side_bound, cert))
            continue
        dev = _find_deviation(game, i, M, m_j, measure, side_bound, require_nash=(kind == "lean"))
        if dev is not None:
            records.append(Side(i, Decided.DEVIATION, M, side_bound))
            return Verdict(kind, measure, dev, i, side_bound, tuple(records))
        complete = measure is Measure.TOTAL_STATES and side_bound.max_total_states >= M - 1
        decided = Decided.COMPLETE if complete else Decided.WITHIN_BOUND
        records.append(Side(i, decided, M, side_bound))
    bounds = [r.bound for r in records if r.bound is not None]
    if bound is None and bounds:
        bound = SearchBound(
            max(b.max_total_states for b in bounds),
            max(b.max_threat_states for b in bounds),
        )
    return Verdict(kind, measure, bound=bound, records=tuple(records))


def is_abreu_rubinstein(
    m1: Machine,
    m2: Machine,
    game: StageGame,
    measure: Measure,
    bound: SearchBound | None = None,
    certify: str = "auto",
) -> Verdict:
    """Nash plus: no strictly simpler machine is an equally good response.

    Fails whenever some player could keep the exact same payoff with a
    simpler machine, whether or not the opponent would then deviate.
    """
    return _refinement_verdict("ar", m1, m2, game, measure, bound, certify)


def is_lean(
    m1: Machine,
    m2: Machine,
    game: StageGame,
    measure: Measure,
    bound: SearchBound | None = None,
    certify: str = "auto",
) -> Verdict:
    """Nash plus: no strictly simpler unilateral deviation preserves Nash.

    A player only counts a simplification against leanness when the
    simplified pair would still be a Nash equilibrium, so a simplification
    that invites the opponent to deviate does not refute leanness.
    """
    return _refinement_verdict("lean", m1, m2, game, measure, bound, certify)


def simplify_to_lean(
    m1: Machine,
    m2: Machine,
    game: StageGame,
    measure: Measure,
    bound: SearchBound | None = None,
) -> tuple[Machine, Machine]:
    """Descend from a Nash pair to a lean-within-bound pair.

    While `is_lean` fails, replaces the machine of its witness player by its
    witness: the first strictly simpler machine (measure ascending, then
    canonical order) that keeps the pair at Nash.  Measures are nonnegative
    integers, so the descent terminates with componentwise measure at most
    the input's.
    """
    if is_nash(m1, m2, game).result != HOLDS:
        raise ValueError("simplify_to_lean requires a Nash equilibrium as input")
    current = [m1, m2]
    while (verdict := is_lean(*current, game, measure, bound)).result == FAILS:
        current[verdict.witness_player - 1] = verdict.witness
    return current[0], current[1]
