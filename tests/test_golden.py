"""CLI stdout and exit codes pinned byte for byte, witness text included.

The expected output lives in `tests/data/golden/stdout.txt`, one block per
command: a `$ leanfa ...` header, the command's stdout, then `[exit N]`.
Arguments that name a file in `tests/data/golden/` are read from there.
Leading `NAME=value` words set environment variables for that command only
and head the block as `$ NAME=value leanfa ...`.

Regenerate the file only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import itertools
import os
import shlex
from pathlib import Path
from unittest import mock

from leanfa.cli import main

DATA = Path(__file__).parent / "data" / "golden"
EXPECTED = DATA / "stdout.txt"

ENUMERATE = [
    ["enumerate", "pd", "--states", "2", "--find", "nash", "--audit", "structure"],
] + [
    ["enumerate", "pd", "--states", "2", "--find", kind, "--measure", measure,
     "--audit", "structure"]
    for kind, measure in itertools.product(("lean", "ar"), ("Q", "R", "delta"))
]

CHECK_PAIRS = [
    ("pd", "pd1-1.machine", "pd2-5.machine"),
    ("pd", "pd1-3.machine", "pd2-12.machine"),
    ("pd", "pd1-1.machine", "pd2-47.machine"),
    ("pd", "pd1-0.machine", "pd2-0.machine"),
    ("pd", "trigger1.machine", "trigger2.machine"),
]

CHECK = [
    ["check", *pair, "--kind", "nash"] for pair in CHECK_PAIRS
] + [
    ["check", *pair, "--kind", kind, "--measure", measure]
    for pair in CHECK_PAIRS
    for kind, measure in itertools.product(("lean", "ar"), ("Q", "R", "delta"))
]

SIMULATE = [
    ["simulate", "pd", "pd1-3.machine", "pd2-12.machine", "--horizon", "7"],
    ["simulate", "pd", "trigger1.machine", "trigger2.machine", "--horizon", "7"],
    ["simulate", "frac.game", "frac1.machine", "frac2.machine", "--horizon", "7"],
]

SEQ = [
    ["seq", "pd", "2*(C,C) 1*(D,C) 1*(C,D)",
     "--rigid", "1:C", "--foolable", "1", "--irreducible", "2"],
    ["seq", "pd", "3*(C,C) 2*(C,D)",
     "--rigid", "2:C,D", "--foolable", "2", "--irreducible", "1"],
    ["seq", "pd", "2*(C,C) 2*(C,D)",
     "--rigid", "1:C", "--foolable", "1", "--irreducible", "1"],
    ["seq", "frac.game", "(a0,b1) 2*(a1,b2) (a0,b0)",
     "--rigid", "1:a1", "--foolable", "2", "--irreducible", "1"],
]

# the Nash screen on a 3-state census prefix, and on a non-integer 2x3 game
# whose declared action orders are not the sorted ones
CENSUS = [
    ["LEANFA_BUDGET=3000", "enumerate", "pd", "--states", "3", "--find", "nash"],
    ["enumerate", "unsorted.game", "--states", "2", "--find", "nash"],
    ["enumerate", "unsorted.game", "--states", "2", "--find", "lean", "--measure", "R"],
]

# best-response witnesses on a non-integer game, and on the unsorted game,
# where the witness's tie-break must follow the declared action order
WITNESS = [
    ["check", "frac.game", "frac1.machine", "frac2.machine", "--kind", "nash"],
    ["check", "unsorted.game", "unsorted1.machine", "unsorted2.machine", "--kind", "nash"],
]

# a pool pair of the unsorted game (`enumerate_machines` index 0 for player
# 1, index 6 for player 2, 2 states): each verdict fails with a 2-state
# player-2 pool witness, whose inputs are declared U D but sorted D U
POOL_PAIR = [
    ["check", "unsorted.game", "unsorted1-0.machine", "unsorted2-6.machine",
     "--kind", kind, "--measure", measure]
    for kind, measure in (("lean", "R"), ("lean", "delta"), ("ar", "delta"))
]

CASES = ENUMERATE + CHECK + SIMULATE + SEQ + CENSUS + WITNESS + POOL_PAIR


def _run(words: list[str]) -> str:
    split = next(k for k, w in enumerate(words) if "=" not in w)
    env = dict(w.split("=", 1) for w in words[:split])
    argv = words[split:]
    resolved = [str(DATA / a) if (DATA / a).is_file() else a for a in argv]
    buf = io.StringIO()
    with mock.patch.dict(os.environ, env):
        code = main(resolved, out=buf)
    prefix = "".join(f"{w} " for w in words[:split])
    return f"$ {prefix}leanfa {shlex.join(argv)}\n{buf.getvalue()}[exit {code}]\n"


def _blocks(text: str) -> list[str]:
    blocks: list[list[str]] = []
    for line in text.splitlines(keepends=True):
        if line.startswith("$ "):
            blocks.append([])
        blocks[-1].append(line)
    return ["".join(b) for b in blocks]


def test_cli_stdout_matches_golden():
    expected = _blocks(EXPECTED.read_text())
    assert len(expected) == len(CASES)
    for argv, want in zip(CASES, expected):
        assert _run(argv) == want


if __name__ == "__main__":
    EXPECTED.write_text("".join(_run(argv) for argv in CASES))
