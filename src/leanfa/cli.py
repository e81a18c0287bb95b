"""Command-line front end: simulate, check, seq, enumerate, export-dot.

Exit codes: 0 holds / success, 1 fails, 2 holds-within-bound, 64 usage
errors, 65 parse errors and paths that cannot be read or written.
Reports are plain "key: value" text with stable field order so they can
be parsed by scripts and diffed across runs.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from .equilibrium import (
    _CERT_MODES,
    FAILS,
    HOLDS,
    Measure,
    SearchBound,
    Verdict,
    enumerate_machines,
    is_abreu_rubinstein,
    is_lean,
    is_nash,
    nash_deviator,
)
from .games import (
    BUILTIN_GAMES, ParseError, StageGame, forcing_actions, is_strictly_enforceable, parse_game,
)
from .machines import (
    Machine,
    classify_states,
    finite_mean_payoff,
    limit_mean_payoff,
    machine_to_dot,
    machine_to_text,
    parse_machine,
    played_states,
    simulate,
    validate_machine,
)
from .sequences import (
    build_internal_threat_machines,
    build_trigger_machines,
    internal_threat_blocks,
    is_foolable,
    is_irreducible,
    is_rigid,
    is_strictly_enforceable_seq,
    parse_sequence,
    seq_payoff,
)
from .structure import audit_pair

EXIT_USAGE = 64
EXIT_PARSE = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_game(ref: str) -> StageGame:
    if ref in BUILTIN_GAMES:
        return BUILTIN_GAMES[ref]
    path = Path(ref)
    if not path.exists():
        raise ParseError(f"no such game {ref!r} (not a builtin, not a file)")
    return parse_game(path.read_text())


def _load_machine(game: StageGame, ref: str, player: int | None = None) -> Machine:
    """The machine in file `ref`, validated against `game`; given a
    `player`, the file must declare that player."""
    path = Path(ref)
    if not path.exists():
        raise ParseError(f"no such machine file {ref!r}")
    machine = parse_machine(path.read_text())
    if player is not None and machine.player != player:
        raise ParseError(
            f"{ref}: declares player {machine.player}, expected player {player}"
        )
    validate_machine(machine, game)
    return machine


def _machine_brief(machine: Machine) -> str:
    states, inputs, nxt = machine.states, machine.input_actions, iter(machine._nxt)
    parts = []
    for q, out in zip(states, machine._outs):
        moves = ",".join(f"{a}>{states[next(nxt)]}" for a in inputs)
        parts.append(f"{q}:{out}[{moves}]")
    return ";".join(parts)


def _print_verdict(verdict: Verdict, out) -> None:
    print(f"kind: {verdict.kind}", file=out)
    if verdict.measure is not None:
        print(f"measure: {verdict.measure.value}", file=out)
    print(f"result: {verdict.result}", file=out)
    if verdict.bound is not None:
        print(f"bound: {verdict.bound}", file=out)
    for side in verdict.sides:
        print(f"side: {side}", file=out)
    for cert in verdict.certificates:
        print(f"certificate: player {cert.player} {cert}", file=out)
    if verdict.witness is None:
        print("witness: none", file=out)
    else:
        print(f"witness-player: {verdict.witness_player}", file=out)
        print("witness:", file=out)
        text = machine_to_text(verdict.witness)
        for line in text.rstrip().splitlines():
            print(f"  {line}", file=out)


def _cmd_simulate(args, out) -> int:
    if args.horizon is not None and args.horizon < 1:
        raise _UsageError("--horizon must be a positive step count")
    game = _load_game(args.game)
    m1 = _load_machine(game, args.machine1, 1)
    m2 = _load_machine(game, args.machine2, 2)
    play = simulate(m1, m2)
    print(f"game: {game.name}", file=out)
    print(f"machine-1: {m1.name} ({len(m1.states)} states)", file=out)
    print(f"machine-2: {m2.name} ({len(m2.states)} states)", file=out)
    fmt = lambda steps: " ".join(f"({a},{b})" for _, (a, b) in steps)
    fmt_q = lambda steps: " ".join(f"({q1},{q2})" for (q1, q2), _ in steps)
    print(f"preperiod: {fmt(play.preperiod)}", file=out)
    print(f"preperiod-states: {fmt_q(play.preperiod)}", file=out)
    print(f"cycle: {fmt(play.cycle)}", file=out)
    print(f"cycle-states: {fmt_q(play.cycle)}", file=out)
    payoff = limit_mean_payoff(play, game)
    print(f"payoff: {payoff}", file=out)
    enforce = is_strictly_enforceable(game, payoff)
    print(f"strictly-enforceable: {'yes' if enforce else 'no'}", file=out)
    for i, m in ((1, m1), (2, m2)):
        played = ",".join(sorted(played_states(play, i)))
        print(f"played-{i}: {played}", file=out)
        rep = classify_states(m, game)
        threat = ",".join(sorted(rep.threat_states)) or "-"
        print(
            f"measures-{i}: total={rep.total_states} threat={threat} "
            f"normal={len(rep.normal_states)} normal-transitions={rep.normal_transitions}",
            file=out,
        )
    if args.horizon is not None:
        avg = finite_mean_payoff(play, game, args.horizon)
        print(f"average-T{args.horizon}: {avg}", file=out)
    return 0


def _cmd_check(args, out) -> int:
    game = _load_game(args.game)
    m1 = _load_machine(game, args.machine1, 1)
    m2 = _load_machine(game, args.machine2, 2)
    if args.kind == "nash":
        flags = (("--measure", args.measure), ("--bound", args.bound), ("--certify", args.certify))
        for flag, value in flags:
            if value is not None:
                raise _UsageError(f"{flag} only applies to --kind ar|lean")
        verdict = is_nash(m1, m2, game)
    else:
        if args.measure is None:
            raise _UsageError(f"--kind {args.kind} requires --measure")
        measure = Measure.from_text(args.measure)
        bound = None
        if args.bound is not None:
            if args.bound < 1:
                raise _UsageError("--bound must be a positive state count")
            # the default bounds' threat cap: one threat state per forcing output
            threat = max(len(forcing_actions(game, p)) for p in (1, 2))
            bound = SearchBound(args.bound, threat)
        check = is_abreu_rubinstein if args.kind == "ar" else is_lean
        verdict = check(m1, m2, game, measure, bound, certify=args.certify or "auto")
    _print_verdict(verdict, out)
    return verdict.exit_code()


def _parse_player(text: str | None, what: str) -> int | None:
    if text is None:
        return None
    if text not in ("1", "2"):
        raise _UsageError(f"{what} expects a player id 1 or 2, got {text!r}")
    return int(text)


def _cmd_seq(args, out) -> int:
    game = _load_game(args.game)
    seq = parse_sequence(args.sequence, game)
    irreducible = _parse_player(args.irreducible, "--irreducible")
    foolable = _parse_player(args.foolable, "--foolable")
    rigid = None
    if args.rigid is not None:
        if ":" not in args.rigid:
            raise _UsageError("--rigid expects <player>:<action>[,<action>...]")
        who, _, actions = args.rigid.partition(":")
        player = _parse_player(who, "--rigid")
        subset = frozenset(actions.split(","))
        if not subset <= set(game.actions(player)):
            raise _UsageError(
                f"--rigid actions {actions!r} are not all in player {player}'s actions"
            )
        rigid = player, subset
    print(f"sequence: {seq}", file=out)
    payoff = seq_payoff(seq, game)
    print(f"payoff: {payoff}", file=out)
    enforce = is_strictly_enforceable_seq(seq, game)
    print(f"strictly-enforceable: {'yes' if enforce else 'no'}", file=out)
    if irreducible is not None:
        answer = is_irreducible(seq, irreducible)
        print(f"irreducible-{irreducible}: {'yes' if answer else 'no'}", file=out)
    if rigid is not None:
        player, subset = rigid
        verdict = is_rigid(seq, player, subset, game)
        label = ",".join(sorted(subset))
        if verdict.rigid:
            print(f"rigid-{player}-{{{label}}}: yes", file=out)
        else:
            print(
                f"rigid-{player}-{{{label}}}: no "
                f"(rotation offset {verdict.rotation_offset}, prefix {verdict.prefix_len})",
                file=out,
            )
    if foolable is not None:
        witness = is_foolable(seq, foolable, game)
        if witness is None:
            print(f"foolable-{foolable}: no", file=out)
        else:
            print(
                f"foolable-{foolable}: yes (rotation offset {witness.rotation_offset}, "
                f"s'={witness.action})",
                file=out,
            )
    if args.build is not None:
        try:
            if args.build == "sigma":
                pair = build_trigger_machines(seq, game)
            else:
                pair = build_internal_threat_machines(*internal_threat_blocks(seq), game)
        except ValueError as exc:
            print(f"build rejected: {exc}", file=out)
            return 1
        outdir = Path(args.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for m in pair:
            path = outdir / f"{m.name}.machine"
            path.write_text(machine_to_text(m))
            written.append(str(path))
        print(f"wrote: {' '.join(written)}", file=out)
    return 0


def _examine_pair(work, i: int, j: int) -> tuple[bool, str | None]:
    """Check pair (i, j) of an enumeration; returns (is nash, hit line or None).

    `work` is (game, pool1, pool2, find, measure text, audit structure).
    """
    game, pool1, pool2, find, measure_text, audit_structure = work
    m1, m2 = pool1[i], pool2[j]
    if nash_deviator(m1, m2, game) is not None:
        return False, None
    payoff = limit_mean_payoff(simulate(m1, m2), game)
    result = HOLDS
    if find != "nash":
        measure = Measure.from_text(measure_text)
        check = is_abreu_rubinstein if find == "ar" else is_lean
        result = check(m1, m2, game, measure).result
    if result == FAILS:
        return True, None
    line = (
        f"hit m1={i} m2={j} payoff={payoff} result={result} "
        f"def1={_machine_brief(m1)} def2={_machine_brief(m2)}"
    )
    if audit_structure:
        audit = audit_pair(m1, m2, game)
        sizes = ("-" if c is None else f"{len(c.tail)}+{len(c.head)}" for c in audit.chains)
        line += (
            f" audit: reuse={_yn(audit.first_reuse_ok)}"
            f" count-R={_yn(audit.counting_states_ok)}"
            f" count-delta={_yn(audit.counting_transitions_ok)}"
            f" relations={_yn(audit.relations_ok)}"
            f" chain={_yn(all(audit.chains_ok))}"
            f" tail+head={','.join(sizes)}"
            f" infer={_yn(all(audit.inference_ok))}"
        )
    return True, line


# the enumeration a --jobs worker process checks pairs of, set once per
# worker by the pool's initializer so that tasks carry only pair indices
_worker_work = None


def _start_worker(work) -> None:
    global _worker_work
    _worker_work = work


def _examine_chunk(pairs: list[tuple[int, int]]) -> list[tuple[bool, str | None]]:
    return [_examine_pair(_worker_work, i, j) for i, j in pairs]


def _chunks(items, size: int):
    while chunk := list(itertools.islice(items, size)):
        yield chunk


def _print_hits(results, out) -> tuple[int, int]:
    """Print each hit line in order; returns (nash pairs, hits)."""
    nash_count = hits = 0
    for was_nash, line in results:
        nash_count += was_nash
        if line is not None:
            hits += 1
            print(line, file=out)
    return nash_count, hits


def budget_from_env() -> int:
    """The LEANFA_BUDGET cap on enumerated pairs (default 1,000,000).

    Raises ValueError unless the value is a non-negative integer.
    """
    text = os.environ.get("LEANFA_BUDGET", "1000000")
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"LEANFA_BUDGET must be a non-negative integer, got {text!r}")
    return budget


def _cmd_enumerate(args, out) -> int:
    if args.states < 1:
        raise _UsageError("--states must be a positive state count")
    if args.threat is not None and args.threat < 0:
        raise _UsageError("--threat must be a non-negative state count")
    if args.jobs < 1:
        raise _UsageError("--jobs must be a positive worker count")
    if args.find in ("ar", "lean") and args.measure is None:
        raise _UsageError(f"--find {args.find} requires --measure")
    if args.find == "nash" and args.measure is not None:
        raise _UsageError("--measure only applies to --find ar|lean")
    try:
        budget = budget_from_env()
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    game = _load_game(args.game)
    bound = SearchBound(args.states, args.threat if args.threat is not None else args.states)
    pool1 = tuple(enumerate_machines(1, game, bound))
    pool2 = tuple(enumerate_machines(2, game, bound))
    print(f"machines-1: {len(pool1)}", file=out)
    print(f"machines-2: {len(pool2)}", file=out)
    total = len(pool1) * len(pool2)
    n_pairs = min(total, budget)
    pairs = itertools.islice(itertools.product(range(len(pool1)), range(len(pool2))), budget)
    work = (game, pool1, pool2, args.find, args.measure, args.audit == "structure")
    if args.jobs > 1 and n_pairs > 1:
        # imap hands chunk results back in canonical pair order, so output
        # is byte-identical to a sequential run
        import multiprocessing

        step = max(1, n_pairs // (args.jobs * 4))
        with multiprocessing.Pool(args.jobs, initializer=_start_worker, initargs=(work,)) as pool:
            chunks = pool.imap(_examine_chunk, _chunks(pairs, step))
            nash_count, hits = _print_hits(itertools.chain.from_iterable(chunks), out)
    else:
        results = (_examine_pair(work, i, j) for i, j in pairs)
        nash_count, hits = _print_hits(results, out)
    if total > budget:
        print(f"truncated: pair budget {budget} exceeded, partial results", file=out)
    print(f"summary: pairs={n_pairs} nash={nash_count} hits={hits}", file=out)
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_export_dot(args, out) -> int:
    game = _load_game(args.game)
    out.write(machine_to_dot(_load_machine(game, args.machine), game))
    return 0


def _build_parser() -> _Parser:
    measures = tuple(m.value for m in Measure)
    parser = _Parser(
        prog="leanfa",
        description="Exact analysis of repeated two-player games played by finite-state machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a machine pair to its eventual play")
    p.add_argument("game", help="builtin game name (pd) or game file")
    p.add_argument("machine1", help="player-1 machine file")
    p.add_argument("machine2", help="player-2 machine file")
    p.add_argument("--horizon", type=int, default=None, help="also print the first-T average")

    p = sub.add_parser("check", help="decide nash / ar / lean for a machine pair")
    p.add_argument("game")
    p.add_argument("machine1")
    p.add_argument("machine2")
    p.add_argument("--kind", choices=("nash", "ar", "lean"), required=True)
    p.add_argument("--measure", choices=measures, default=None)
    p.add_argument("--bound", type=int, default=None, help="max total states searched")
    p.add_argument("--certify", choices=_CERT_MODES, default=None)

    p = sub.add_parser("seq", help="analyze a finite action sequence")
    p.add_argument("game")
    p.add_argument("sequence", help='e.g. "2*(C,C) 1*(D,D)"')
    p.add_argument("--irreducible", metavar="PLAYER", default=None)
    p.add_argument("--rigid", metavar="PLAYER:ACTS", default=None)
    p.add_argument("--foolable", metavar="PLAYER", default=None)
    p.add_argument("--build", choices=("sigma", "internal-threat"), default=None)
    p.add_argument("--out-dir", default=".", help="directory for --build machine files")

    p = sub.add_parser("enumerate", help="enumerate canonical machine pairs")
    p.add_argument("game")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--threat", type=int, default=None)
    p.add_argument("--find", choices=("nash", "ar", "lean"), default="nash")
    p.add_argument("--measure", choices=measures, default=None)
    p.add_argument("--audit", choices=("structure",), default=None)
    p.add_argument("--jobs", type=int, default=1, help="worker processes for pair checks")

    p = sub.add_parser("export-dot", help="emit a machine as a DOT graph")
    p.add_argument("game")
    p.add_argument("machine")

    return parser


_DISPATCH = {
    "simulate": _cmd_simulate,
    "check": _cmd_check,
    "seq": _cmd_seq,
    "enumerate": _cmd_enumerate,
    "export-dot": _cmd_export_dot,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:  # OSError: a path it cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
