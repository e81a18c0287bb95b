"""leanfa benchmark: three workloads, exact checks, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload census3-nash --seed 1 --seconds 20 --trace 0

Each workload runs in rounds. A round is one fresh interpreter
(`worker.py`) that imports leanfa from `src/`, sets up its inputs through
the program and runs a fixed list of operations; rounds run one at a time
until the timed regions add up to about `--seconds`. Every output is checked
against `oracle.py`, which shares no code with leanfa, outside the timed
regions. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The
same object, with every round's raw numbers, goes to
`bench/out/BENCH_<workload>-seed<seed>[-trace].json`.

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEQUENCES = BENCH / "data" / "trigger_sequences.txt"
PYCACHE = ROOT / ".bench_build" / "pycache"

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402
from layertrace import LAYERS  # noqa: E402

CENSUS_PAIRS = 20_000  # below 88,700 pairs every player-1 machine has 1-2 states
SETUP_PROBES = 5  # extra set-up-only interpreters per untraced run
RUN_LIMIT_S = 170  # no round may end later than this after the run starts
LAST_START_S = 110  # no round starts later than this

HIT = re.compile(
    r"^hit m1=(\d+) m2=(\d+) payoff=(\S+) (\S+) result=(\S+) def1=(\S+) def2=(\S+)"
    r"(?: audit: (.*))?$"
)
SUMMARY = re.compile(r"^summary: pairs=(\d+) nash=(\d+) hits=(\d+)$", re.M)
AUDIT_FIELDS = ("reuse", "count-R", "count-delta", "relations", "chain", "infer")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}
COUNT_METRICS = {
    "games.StageGame.hash_calls": ("counter", "games.StageGame.__hash__"),
    "games.forcing_actions.calls": ("calls", "games.forcing_actions"),
    "machines.Machine.built": ("counter", "machines.Machine.__post_init__"),
    "machines.classify_states.calls": ("calls", "machines.classify_states"),
    "machines.simulate.calls": ("calls", "machines.simulate"),
    "sequences.incompatible.calls": ("calls", "sequences.incompatible"),
    "cycles.max_mean_cycle.calls": ("calls", "cycles.max_mean_cycle"),
    "cycles.best_response_value.calls": ("calls", "cycles.best_response_value"),
    "cycles.construct_best_response.calls": ("calls", "cycles.construct_best_response"),
    "equilibrium.measure_value.calls": ("calls", "equilibrium.measure_value"),
    "equilibrium.is_nash.calls": ("calls", "equilibrium.is_nash"),
    "structure.audit_pair.calls": ("calls", "structure.audit_pair"),
}
TIME_METRICS = (
    "machines.classify_states", "machines.simulate", "sequences.is_foolable",
    "cycles.max_mean_cycle", "cycles.construct_best_response", "cycles.is_sequence_forcing",
    "equilibrium.is_nash", "equilibrium.enumerate_machines", "equilibrium.is_lean",
    "equilibrium.is_abreu_rubinstein",
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def fmt_payoff(p) -> str:
    return " ".join(str(x) for x in p)


# --- workloads --------------------------------------------------------------------
#
# Each workload gives the job its rounds run, the number of operations in
# one round, and a check of one round's output against the oracle.

class Workload:
    env: dict = {}  # environment of every round
    job: dict = {}  # fields of every round's job
    first_job: dict = {}  # fields of the first round's job only: what the checks need
    ops_per_round: int

    def next_job(self) -> dict:
        """Fields that change from one round to the next."""
        return {}


class Census3Nash(Workload):
    """`enumerate pd --states 3 --find nash` over the first CENSUS_PAIRS pairs."""

    env = {"LEANFA_BUDGET": str(CENSUS_PAIRS)}
    ops_per_round = CENSUS_PAIRS

    def __init__(self, seed: int):
        orc = oracle.Oracle()
        self.pools = [oracle.canonical_machines(p, 3, 3) for p in (1, 2)]
        self.expected = {}
        for k in range(CENSUS_PAIRS):
            i, j = divmod(k, len(self.pools[1]))
            m1, m2 = self.pools[0][i], self.pools[1][j]
            if orc.is_nash(m1, m2):
                self.expected[(i, j)] = fmt_payoff(oracle.payoff(m1, m2))

    def check(self, res, job, first):
        return check_enumeration(res, self.pools, CENSUS_PAIRS, self.expected, all_hits=True)


class Enum2LeanAudit(Workload):
    """`enumerate pd --states 2 --find lean --measure delta --audit structure`, all pairs."""

    ops_per_round = 2500

    def __init__(self, seed: int):
        self.orc = oracle.Oracle()
        self.pools = [oracle.canonical_machines(p, 2, 2) for p in (1, 2)]
        self.nash = {}
        for i, m1 in enumerate(self.pools[0]):
            for j, m2 in enumerate(self.pools[1]):
                if self.orc.is_nash(m1, m2):
                    self.nash[(i, j)] = fmt_payoff(oracle.payoff(m1, m2))
        self.first_job = {"refute": sorted(self.nash)}

    def check(self, res, job, first):
        problems = check_enumeration(res, self.pools, self.ops_per_round, self.nash, all_hits=False)
        hits = {}
        for line in res["stdout"].splitlines():
            m = HIT.match(line)
            if not m:
                continue
            hits[(int(m[1]), int(m[2]))] = m
            payoff = (Fraction(m[3]), Fraction(m[4]))
            if all(payoff[p - 1] > oracle.minmax(p) for p in (1, 2)):
                audit = dict(f.split("=", 1) for f in (m[8] or "").split())
                bad = [f for f in AUDIT_FIELDS if audit.get(f) != "yes"]
                if bad:
                    problems.append(f"hit {m[1]},{m[2]} strictly enforceable but audit {bad} not yes")
        if not first:
            return problems
        refuted = {(i, j): rest for i, j, *rest in res.get("refutations", [])}
        for pair in self.nash:
            if pair in hits:
                continue
            if pair not in refuted:
                problems.append(f"Nash pair {pair} neither hit nor refuted")
                continue
            problems += self.check_refutation(pair, *refuted[pair])
        return problems

    def check_refutation(self, pair, result, player, text):
        """The witness is strictly simpler in delta, a best response, and keeps Nash."""
        if result != "fails" or text is None:
            return [f"Nash pair {pair} not a hit yet is_lean gave {result} without a witness"]
        witness = oracle.parse_machine(text)
        incumbent = self.pools[player - 1][pair[player - 1]]
        other = self.pools[2 - player][pair[2 - player]]
        m1, m2 = (witness, other) if player == 1 else (other, witness)
        problems = []
        if oracle.measures(witness)["delta"] >= oracle.measures(incumbent)["delta"]:
            problems.append(f"witness for {pair} is not simpler in delta")
        if oracle.payoff(m1, m2)[player - 1] != self.orc.br(other):
            problems.append(f"witness for {pair} is not a best response")
        if not self.orc.is_nash(m1, m2):
            problems.append(f"witness for {pair} does not keep the pair at Nash")
        return problems


class TriggerVerdicts(Workload):
    """is_lean / is_abreu_rubinstein on the trigger pair of each stored sequence."""

    def __init__(self, seed: int):
        self.seqs, ops = [], []
        for line in SEQUENCES.read_text().splitlines():
            text, fool = line.split("\t")
            k = len(self.seqs)
            self.seqs.append(text)
            ops += [[k, "lean", "R"], [k, "ar", "R"], [k, "lean", "delta"], [k, "ar", "delta"]]
            if fool == "foolable-both":
                ops.append([k, "lean", "Q"])
        self.ops = ops
        self.ops_per_round = len(ops)
        self.rng = random.Random(seed)
        self.job = {"sequences": self.seqs}
        self.first_job = {"emit_pairs": True}

    def next_job(self):
        order = list(self.ops)
        self.rng.shuffle(order)
        return {"ops": order}

    def check(self, res, job, first):
        problems = [f"op {job['ops'][n]}: {out}" for n, out in enumerate(res["outcomes"])
                    if out != "holds 1,2"]
        if first:
            orc = oracle.Oracle()
            for text, (t1, t2) in zip(self.seqs, res["pairs"]):
                m1, m2 = oracle.parse_machine(t1), oracle.parse_machine(t2)
                if not orc.is_nash(m1, m2):
                    problems.append(f"trigger pair of {text} is not Nash")
                if oracle.play(m1, m2) != ([], list(oracle.parse_seq_text(text))):
                    problems.append(f"trigger pair of {text} does not replay it")
        return problems[:20]


def check_enumeration(res, pools, pairs, nash, all_hits):
    """Summary counts, and every hit's indices, definitions and payoff, against the oracle.

    `nash` maps each oracle-Nash pair to its payoff; with `all_hits` every
    one of them must be a hit.
    """
    problems = []
    out = res["stdout"]
    m = SUMMARY.search(out)
    if res["exit"] != 0 or m is None:
        return [f"enumerate exited {res['exit']} without a summary"]
    if int(m[1]) != pairs or int(m[2]) != len(nash):
        problems.append(f"summary {m[0]!r}: oracle has pairs={pairs} nash={len(nash)}")
    seen = set()
    for line in out.splitlines():
        if not line.startswith("hit "):
            continue
        h = HIT.match(line)
        pair = (int(h[1]), int(h[2]))
        seen.add(pair)
        if pair not in nash:
            problems.append(f"hit {pair} is not Nash for the oracle")
            continue
        if f"{h[3]} {h[4]}" != nash[pair]:
            problems.append(f"hit {pair} payoff {h[3]} {h[4]}, oracle {nash[pair]}")
        if (h[6], h[7]) != (oracle.brief(pools[0][pair[0]]), oracle.brief(pools[1][pair[1]])):
            problems.append(f"hit {pair} machines differ from the oracle's enumeration")
    if all_hits and seen != set(nash):
        problems.append(f"{len(seen)} hits, oracle expects {len(nash)}")
    return problems[:20]


WORKLOADS = {
    "census3-nash": Census3Nash,
    "enum2-lean-audit": Enum2LeanAudit,
    "trigger-verdicts": TriggerVerdicts,
}


# --- rounds ---------------------------------------------------------------------------

def child_env(extra: dict, write_bytecode: bool) -> dict:
    """Every round reads bytecode from one cache under .bench_build, warmed first."""
    env = dict(os.environ)
    env.pop("LEANFA_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(extra)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_round(name, job, env, deadline):
    """Start one worker and wait for it; returns (result or None, start time, error)."""
    payload = json.dumps(dict(job, workload=name, root=str(ROOT)))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=payload, capture_output=True,
            text=True, env=env, cwd=ROOT, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return None, spawned, "round timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, spawned, f"round exited {proc.returncode}: {' | '.join(tail)}"
    return json.loads(proc.stdout.splitlines()[-1]), spawned, None


def tail_percentile(n: int) -> float:
    """The highest of these percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.7, 99.5, 99.0, 95.0, 90.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50.0


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def e2e_metrics(rounds, setups) -> dict:
    """Rates and percentiles pool every round of the run; set-up is a median."""
    if "latencies" in rounds[0]:
        # the tail percentile is the highest with ten samples beyond it in a
        # single round, estimated from the latencies of all rounds together
        lat = sorted(x * 1e3 for r in rounds for x in r["latencies"])
        p = tail_percentile(min(len(r["latencies"]) for r in rounds))
        p50, tail = nearest_rank(lat, 50), nearest_rank(lat, p)
    else:
        # an enumeration is one call per round: with fewer than forty samples
        # there is no tail, so the tail reads the median alone
        p50 = tail = statistics.median(r["timed_s"] * 1e3 for r in rounds)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": sum(r["ops"] for r in rounds) / sum(r["timed_s"] for r in rounds),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in rounds),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def missing_names(trace) -> set[str]:
    """Functions and counters the metrics read that the traced program does not have."""
    wanted = {key for _, key in COUNT_METRICS.values()} | set(TIME_METRICS)
    return wanted - set(trace["functions"]) - set(trace["counters"])


def layer_metrics(traced, untraced) -> dict:
    """Each per-layer number's median over the traced rounds, plus the tracing overhead."""
    def per_round(r):
        t = r["trace"]
        fns, counters = t["functions"], t["counters"]
        vals = {}
        for layer in LAYERS:
            vals[f"{layer}.self_s"] = (t["layer_self_s"][layer], "s")
        for metric, (kind, key) in COUNT_METRICS.items():
            src = counters if kind == "counter" else {k: v["calls"] for k, v in fns.items()}
            vals[metric] = (src.get(key, 0), "count")
        for key in TIME_METRICS:
            vals[f"{key}.s"] = (fns.get(key, {}).get("s", 0.0), "s")
        sim = fns.get("machines.simulate", {}).get("in_search", 0)
        scored = fns.get("machines.classify_states", {}).get("in_search", 0)
        vals["equilibrium.deviation.simulate_calls"] = (sim, "count")
        vals["equilibrium.deviation.tried_per_scored"] = (sim / scored if scored else 0.0, "ratio")
        return vals

    rows = [per_round(r) for r in traced]
    out = {k: {"value": statistics.median(row[k][0] for row in rows), "unit": rows[0][k][1]}
           for k in rows[0]}
    traced_rate = sum(r["ops"] for r in traced) / sum(r["timed_s"] for r in traced)
    untraced_rate = sum(r["ops"] for r in untraced) / sum(r["timed_s"] for r in untraced)
    out["trace.ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    out["trace.overhead_ops_per_s"] = {"value": traced_rate - untraced_rate, "unit": "1/s"}
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    if not (ROOT / "src" / "leanfa" / "__init__.py").is_file():
        fail(f"no leanfa source under {ROOT / 'src'}; run from the root of a leanfa checkout")
    if not SEQUENCES.is_file():
        fail(f"missing {SEQUENCES}; regenerate it with python3 bench/gen_sequences.py")

    workload = WORKLOADS[args.workload](args.seed)
    env = child_env(workload.env, write_bytecode=False)
    deadline = t_start + RUN_LIMIT_S
    base_job = dict(workload.job, trace=False, setup_only=False)

    # warm the bytecode cache, then time set-up alone a few times
    _, _, err = run_round(args.workload, dict(base_job, setup_only=True),
                          child_env(workload.env, write_bytecode=True), deadline)
    if err:
        fail(f"warm-up {err}")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            res, spawned, err = run_round(args.workload, dict(base_job, setup_only=True), env,
                                          deadline)
            if err:
                fail(f"set-up probe {err}")
            setups.append(res["t_first_op"] - spawned)

    rounds, problems, attempted, failed = [], [], 0, 0
    label = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    OUT.mkdir(exist_ok=True)

    def enough() -> bool:
        # stop where the measured time lands nearest to --seconds
        timed = [r["timed_s"] for r in rounds if r["traced"] == bool(args.trace)]
        return bool(timed) and sum(timed) + timed[-1] / 2 > args.seconds

    while not enough() and time.monotonic() - t_start < LAST_START_S:
        first = not rounds
        # a traced run starts with one untraced round, the overhead baseline
        traced = bool(args.trace) and not first
        job = dict(base_job, trace=traced, **workload.next_job())
        if first:
            job.update(workload.first_job)
        if traced and not any(r["traced"] for r in rounds):
            job["dump"] = str(OUT / f"trace-{label}.spans")
        res, spawned, err = run_round(args.workload, job, env, deadline)
        attempted += workload.ops_per_round
        if err:  # a crashed round ends the run
            failed += workload.ops_per_round
            problems.append(err)
            break
        res["traced"] = traced
        res["ops"] = workload.ops_per_round
        failed += sum(1 for o in res.get("outcomes", ()) if o.startswith("error"))
        problems += workload.check(res, job, first)
        if not traced:
            setups.append(res["t_first_op"] - spawned)
        for bulky in ("stdout", "pairs", "refutations", "outcomes"):
            res.pop(bulky, None)
        rounds.append(res)

    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if not untraced or (args.trace and not traced_rounds):
        fail("no round completed: " + "; ".join(problems[:3]))
    if args.trace:
        metrics = layer_metrics(traced_rounds, untraced)
    else:
        metrics = e2e_metrics(untraced, setups)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    missing = sorted(set().union(*(missing_names(r["trace"]) for r in traced_rounds)))
    if missing:
        print(f"bench: missing from the program, reported as 0: {', '.join(missing)}",
              file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples=setups, problems=problems, missing=missing,
                  rounds=[{k: v for k, v in r.items() if k != "latencies"} for r in rounds],
                  wall_s=time.monotonic() - t_start)
    (OUT / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
