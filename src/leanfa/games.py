"""Two-player stage games with exact rational payoffs."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

PlayerId = int


class ParseError(ValueError):
    """A malformed game, machine, or sequence text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def opponent(player: PlayerId) -> PlayerId:
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player!r}")
    return 3 - player


def parse_rational(text: str) -> Fraction:
    """Parse an optionally signed integer or p/q token into an exact rational."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


class PayoffProfile(NamedTuple):
    """A pair of exact payoffs, one per player."""

    p1: Fraction
    p2: Fraction

    def for_player(self, player: PlayerId) -> Fraction:
        return self.p1 if player == 1 else self.p2

    def __str__(self) -> str:
        return f"{self.p1} {self.p2}"


@dataclass(frozen=True, eq=False)
class StageGame:
    """A finite two-player game in strategic form.

    Payoffs are exact rationals and all downstream equilibrium verdicts
    compare them exactly, so floating point never enters the analysis.
    Equality and hashing are by the payoff table, not the name.  The table
    is a read-only view of a private copy, so the hash, computed once, and
    the equality key cannot go stale.
    """

    name: str
    actions1: tuple[str, ...]
    actions2: tuple[str, ...]
    payoff: Mapping[tuple[str, str], PayoffProfile]

    def __post_init__(self):
        object.__setattr__(self, "payoff", MappingProxyType(dict(self.payoff)))
        for player, actions in ((1, self.actions1), (2, self.actions2)):
            if not actions:
                raise ValueError(f"player {player} has no actions")
            if len(set(actions)) != len(actions):
                raise ValueError(f"player {player} has duplicate action labels")
            for a in actions:
                if not a or any(c.isspace() for c in a):
                    raise ValueError(f"bad action label {a!r}")
        cells = {(a1, a2) for a1 in self.actions1 for a2 in self.actions2}
        if set(self.payoff) != cells:
            missing = sorted(cells - set(self.payoff))
            extra = sorted(set(self.payoff) - cells)
            raise ValueError(f"payoff table mismatch: missing {missing}, extra {extra}")
        key = (
            self.actions1,
            self.actions2,
            tuple(self.payoff[(a1, a2)] for a1 in self.actions1 for a2 in self.actions2),
        )
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __reduce__(self):
        # a mappingproxy does not pickle; rebuilding from a plain dict also
        # recomputes the hash under the unpickling process's string hashing
        return (StageGame, (self.name, self.actions1, self.actions2, dict(self.payoff)))

    def actions(self, player: PlayerId) -> tuple[str, ...]:
        return self.actions1 if player == 1 else self.actions2

    def profile(self, a1: str, a2: str) -> PayoffProfile:
        return self.payoff[(a1, a2)]

    def u(self, player: PlayerId, a1: str, a2: str) -> Fraction:
        return self.payoff[(a1, a2)].for_player(player)

    def max_abs_payoff(self) -> Fraction:
        return max(max(abs(p.p1), abs(p.p2)) for p in self.payoff.values())

    def __eq__(self, other):
        return isinstance(other, StageGame) and self._key == other._key

    def __hash__(self):
        return self._hash


@lru_cache(maxsize=None)
def minmax(game: StageGame, player: PlayerId) -> Fraction:
    """Lowest payoff the opponent can force on `player`, pure actions only."""
    opp = opponent(player)
    column_best = []
    for b in game.actions(opp):
        if player == 1:
            column_best.append(max(game.u(1, a, b) for a in game.actions1))
        else:
            column_best.append(max(game.u(2, b, a) for a in game.actions2))
    return min(column_best)


@lru_cache(maxsize=None)
def forcing_actions(game: StageGame, player: PlayerId) -> tuple[str, ...]:
    """Actions of `player` that hold the opponent down to its minmax payoff.

    At least one such action always exists: the minimizing action in the
    opponent's minmax expression is one.
    """
    opp = opponent(player)
    v = minmax(game, opp)
    out = []
    for a in game.actions(player):
        if player == 1:
            reply = max(game.u(2, a, b) for b in game.actions2)
        else:
            reply = max(game.u(1, b, a) for b in game.actions1)
        if reply == v:
            out.append(a)
    return tuple(out)


def convex_combination(
    profiles: Iterable[PayoffProfile], weights: Iterable[Fraction]
) -> PayoffProfile:
    """Componentwise weighted sum of payoff profiles, exact."""
    profiles = list(profiles)
    weights = [Fraction(w) for w in weights]
    if len(profiles) != len(weights):
        raise ValueError("invalid weights: length mismatch with profiles")
    if any(w < 0 for w in weights):
        raise ValueError("invalid weights: negative weight")
    if sum(weights, Fraction(0)) != 1:
        raise ValueError("invalid weights: weights must sum to 1")
    p1 = sum((w * p.p1 for w, p in zip(weights, profiles)), Fraction(0))
    p2 = sum((w * p.p2 for w, p in zip(weights, profiles)), Fraction(0))
    return PayoffProfile(p1, p2)


def is_enforceable(game: StageGame, profile: PayoffProfile) -> bool:
    return profile.p1 >= minmax(game, 1) and profile.p2 >= minmax(game, 2)


def is_strictly_enforceable(game: StageGame, profile: PayoffProfile) -> bool:
    return profile.p1 > minmax(game, 1) and profile.p2 > minmax(game, 2)


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_game(text: str) -> StageGame:
    """Parse the line-oriented game text format.

    game <name>
    actions 1: <tok> <tok> ...
    actions 2: <tok> <tok> ...
    payoff <a1> <a2> = <rat> <rat>

    '#' starts a comment; every action pair must get exactly one payoff line.
    """
    name = None
    actions: dict[int, tuple[str, ...]] = {}
    cells: dict[tuple[str, str], PayoffProfile] = {}
    cell_lines: dict[tuple[str, str], int] = {}
    for lineno, line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "game":
            if len(tokens) != 2:
                raise ParseError("expected: game <name>", lineno)
            if name is not None:
                raise ParseError("duplicate game line", lineno)
            name = tokens[1]
        elif tokens[0] == "actions":
            rest = line[len("actions"):].strip()
            if ":" not in rest:
                raise ParseError("expected: actions <1|2>: <tok> ...", lineno)
            who, _, labels = rest.partition(":")
            who = who.strip()
            if who not in ("1", "2"):
                raise ParseError(f"bad player {who!r} in actions line", lineno)
            toks = tuple(labels.split())
            if not toks:
                raise ParseError("empty action list", lineno)
            player = int(who)
            if player in actions:
                raise ParseError(f"duplicate actions line for player {player}", lineno)
            actions[player] = toks
        elif tokens[0] == "payoff":
            if len(tokens) != 6 or tokens[3] != "=":
                raise ParseError("expected: payoff <a1> <a2> = <rat> <rat>", lineno)
            a1, a2 = tokens[1], tokens[2]
            try:
                p1, p2 = parse_rational(tokens[4]), parse_rational(tokens[5])
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from None
            if (a1, a2) in cells:
                raise ParseError(
                    f"duplicate payoff for ({a1},{a2}), first given on line {cell_lines[(a1, a2)]}",
                    lineno,
                )
            cells[(a1, a2)] = PayoffProfile(p1, p2)
            cell_lines[(a1, a2)] = lineno
        else:
            raise ParseError(f"unrecognized directive {tokens[0]!r}", lineno)
    if name is None:
        raise ParseError("missing game line")
    for player in (1, 2):
        if player not in actions:
            raise ParseError(f"missing actions line for player {player}")
    expected = {(a1, a2) for a1 in actions[1] for a2 in actions[2]}
    unknown = sorted(set(cells) - expected)
    if unknown:
        raise ParseError(f"payoff for unknown action pair {unknown[0]}", cell_lines[unknown[0]])
    missing = sorted(expected - set(cells))
    if missing:
        raise ParseError(f"missing payoff for action pair {missing[0]}")
    try:
        return StageGame(name, actions[1], actions[2], cells)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def game_to_text(game: StageGame) -> str:
    lines = [f"game {game.name}"]
    lines.append("actions 1: " + " ".join(game.actions1))
    lines.append("actions 2: " + " ".join(game.actions2))
    for a1 in game.actions1:
        for a2 in game.actions2:
            p = game.payoff[(a1, a2)]
            lines.append(f"payoff {a1} {a2} = {p.p1} {p.p2}")
    return "\n".join(lines) + "\n"


def _make_pd() -> StageGame:
    F = Fraction
    table = {
        ("C", "C"): PayoffProfile(F(2), F(2)),
        ("C", "D"): PayoffProfile(F(-1), F(3)),
        ("D", "C"): PayoffProfile(F(3), F(-1)),
        ("D", "D"): PayoffProfile(F(0), F(0)),
    }
    return StageGame("pd", ("C", "D"), ("C", "D"), table)


PRISONERS_DILEMMA = _make_pd()

BUILTIN_GAMES = {"pd": PRISONERS_DILEMMA}
