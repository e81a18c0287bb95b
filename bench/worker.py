"""One measured round of one workload, in a fresh interpreter.

`run.py` starts this script once per round, one process at a time, and
writes a JSON job to its standard input. The round imports leanfa from the
checkout's `src/`, sets up the workload's inputs through the program, runs
the timed operations, and prints one JSON line: the monotonic time at which
the first timed operation started (so the parent can measure set-up from
process start), the timed seconds, the peak resident set, and the raw
outputs the parent checks against the oracle.
"""

import io
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(job, argv):
    from leanfa import cli

    if job["setup_only"]:
        return {"t_first_op": time.monotonic()}
    out = io.StringIO()
    t0 = time.monotonic()
    code = cli.main(argv, out=out)
    timed = time.monotonic() - t0
    return {"t_first_op": t0, "timed_s": timed, "rss_kb": peak_rss_kb(), "exit": code,
            "stdout": out.getvalue()}


def census3_nash(job):
    return run_cli(job, ["enumerate", "pd", "--states", "3", "--find", "nash"])


def enum2_lean_audit(job):
    res = run_cli(
        job, ["enumerate", "pd", "--states", "2", "--find", "lean", "--measure", "delta",
              "--audit", "structure"],
    )
    if job.get("refute"):
        # after the timed region: the witness is_lean gives for each Nash pair
        # that the enumeration did not report as a hit
        from leanfa import (PRISONERS_DILEMMA, Measure, SearchBound, enumerate_machines,
                            is_lean, machine_to_text)

        bound = SearchBound(2, 2)
        pools = [tuple(enumerate_machines(p, PRISONERS_DILEMMA, bound)) for p in (1, 2)]
        hits = {tuple(int(w.split("=")[1]) for w in line.split()[1:3])
                for line in res["stdout"].splitlines() if line.startswith("hit ")}
        refutations = []
        for i, j in job["refute"]:
            if (i, j) in hits:
                continue
            v = is_lean(pools[0][i], pools[1][j], PRISONERS_DILEMMA, Measure.NORMAL_TRANSITIONS)
            witness = machine_to_text(v.witness) if v.witness is not None else None
            refutations.append([i, j, v.result, v.witness_player, witness])
        res["refutations"] = refutations
    return res


def trigger_verdicts(job):
    from leanfa import (PRISONERS_DILEMMA, Measure, build_trigger_machines,
                        is_abreu_rubinstein, is_lean, machine_to_text, parse_sequence)

    checks = {"lean": is_lean, "ar": is_abreu_rubinstein}
    pairs = [build_trigger_machines(parse_sequence(text, PRISONERS_DILEMMA), PRISONERS_DILEMMA)
             for text in job["sequences"]]
    ops = [(pairs[k], checks[kind], Measure.from_text(measure))
           for k, kind, measure in job.get("ops", ())]
    t_first = time.monotonic()
    if job["setup_only"]:
        return {"t_first_op": t_first}
    latencies, outcomes = [], []
    clock = time.perf_counter
    t0 = clock()
    for (m1, m2), check, measure in ops:
        start = clock()
        try:
            verdict = check(m1, m2, PRISONERS_DILEMMA, measure)
        except Exception as exc:  # a failed verdict is counted, the round goes on
            latencies.append(clock() - start)
            outcomes.append(f"error {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - start)
        players = ",".join(str(c.player) for c in verdict.certificates)
        outcomes.append(f"{verdict.result} {players}")
    timed = clock() - t0
    res = {"t_first_op": t_first, "timed_s": timed, "rss_kb": peak_rss_kb(),
           "latencies": latencies, "outcomes": outcomes}
    if job.get("emit_pairs"):
        res["pairs"] = [[machine_to_text(m1), machine_to_text(m2)] for m1, m2 in pairs]
    return res


WORKLOADS = {
    "census3-nash": census3_nash,
    "enum2-lean-audit": enum2_lean_audit,
    "trigger-verdicts": trigger_verdicts,
}


def main():
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import leanfa

    if not os.path.abspath(leanfa.__file__).startswith(src + os.sep):
        sys.exit(f"worker: leanfa imported from {leanfa.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        sys.path.insert(0, BENCH_DIR)
        from layertrace import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    res = WORKLOADS[job["workload"]](job)
    if tracer is not None:
        res["trace"] = tracer.summary()
        if job.get("dump"):
            tracer.dump(job["dump"])
    json.dump(res, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
