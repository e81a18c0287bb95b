import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import leanfa
from leanfa.cli import EXIT_PARSE, EXIT_USAGE, main
from leanfa.games import game_to_text
from leanfa.machines import machine_to_text, parse_machine
from leanfa import grim_trigger

from conftest import random_game


GRIM_1 = machine_to_text(grim_trigger(1))
GRIM_2 = machine_to_text(grim_trigger(2))


@pytest.fixture()
def grim_files(tmp_path):
    f1 = tmp_path / "grim1.machine"
    f2 = tmp_path / "grim2.machine"
    f1.write_text(GRIM_1)
    f2.write_text(GRIM_2)
    return str(f1), str(f2)


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def test_simulate_grim(grim_files):
    code, out = run("simulate", "pd", *grim_files, "--horizon", "5")
    assert code == 0
    assert "cycle: (C,C)" in out
    assert "payoff: 2 2" in out
    assert "average-T5: 2 2" in out
    assert "played-1: g0" in out


def test_simulate_trigger_files(tmp_path):
    code, out = run(
        "seq", "pd", "1*(C,C) 1*(D,D)", "--build", "sigma", "--out-dir", str(tmp_path)
    )
    assert code == 0
    assert "wrote:" in out
    code, out = run(
        "simulate",
        "pd",
        str(tmp_path / "trigger1.machine"),
        str(tmp_path / "trigger2.machine"),
    )
    assert code == 0
    assert "cycle: (C,C) (D,D)" in out
    assert "payoff: 1 1" in out


def test_simulate_rejects_machine_with_hole(tmp_path, grim_files):
    broken = tmp_path / "broken.machine"
    broken.write_text(
        "machine broken player=1\nstart a\nstate a out=C\nstate b out=D\n"
        "a --C--> a\na --D--> b\nb --C--> b\n"
    )
    code, out = run("simulate", "pd", str(broken), grim_files[1])
    assert code == EXIT_PARSE


def test_check_exit_codes(grim_files):
    code, _ = run("check", "pd", *grim_files, "--kind", "nash")
    assert code == 0
    code, _ = run("check", "pd", *grim_files, "--kind", "lean", "--measure", "Q")
    assert code == 0
    code, out = run("check", "pd", *grim_files, "--kind", "ar", "--measure", "Q")
    assert code == 1
    assert "result: fails" in out
    assert "witness:" in out and "out=C" in out


def test_check_certificates_reported(tmp_path):
    run("seq", "pd", "1*(C,C) 1*(C,D)", "--build", "sigma", "--out-dir", str(tmp_path))
    code, out = run(
        "check",
        "pd",
        str(tmp_path / "trigger1.machine"),
        str(tmp_path / "trigger2.machine"),
        "--kind",
        "lean",
        "--measure",
        "R",
        "--certify",
        "auto",
    )
    assert code == 0
    assert "certificate: player 1 rigid" in out
    assert "certificate: player 2 irreducible-classes" in out


def test_check_requires_measure(grim_files):
    code, _ = run("check", "pd", *grim_files, "--kind", "lean")
    assert code == EXIT_USAGE


def test_check_witness_reparses(grim_files, tmp_path):
    buf = io.StringIO()
    code = main(
        ["check", "pd", *grim_files, "--kind", "ar", "--measure", "Q"], out=buf
    )
    assert code == 1
    lines = buf.getvalue().splitlines()
    start = lines.index("witness:")
    text = "\n".join(l[2:] for l in lines[start + 1 :])
    witness = parse_machine(text)
    assert len(witness.states) == 1


def test_seq_reports(tmp_path):
    code, out = run("seq", "pd", "1*(C,C) 1*(D,D)", "--foolable", "1")
    assert code == 0
    assert "payoff: 1 1" in out
    assert "strictly-enforceable: yes" in out
    assert "foolable-1: yes (rotation offset 2, s'=D)" in out

    code, out = run("seq", "pd", "1*(C,C) 1*(C,D)", "--rigid", "1:C")
    assert code == 0
    assert "rigid-1-{C}: yes" in out

    code, out = run("seq", "pd", "1*(C,C) 1*(C,D)", "--irreducible", "2")
    assert "irreducible-2: yes" in out


def test_seq_build_rejects_unenforceable(tmp_path):
    code, out = run(
        "seq", "pd", "1*(D,D)", "--build", "sigma", "--out-dir", str(tmp_path)
    )
    assert code == 1
    assert "not strictly enforceable" in out


def test_seq_build_internal_threat(tmp_path):
    code, out = run(
        "seq",
        "pd",
        "1*(C,D) 1*(D,D) 1*(D,C)",
        "--build",
        "internal-threat",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    m1 = parse_machine((tmp_path / "internal1.machine").read_text())
    assert len(m1.states) == 3

    code, out = run(
        "seq", "pd", "1*(D,D) 1*(C,D)", "--build", "internal-threat",
        "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "rejected" in out


def test_enumerate_one_state_nash(grim_files):
    code, out = run("enumerate", "pd", "--states", "1", "--find", "nash")
    assert code == 0
    hits = [l for l in out.splitlines() if l.startswith("hit ")]
    assert len(hits) == 1
    assert "payoff=0 0" in hits[0]
    assert "0:D" in hits[0]  # mutual defection is the only one-state Nash pair


def test_enumerate_budget_truncation(monkeypatch):
    monkeypatch.setenv("LEANFA_BUDGET", "2")
    code, out = run("enumerate", "pd", "--states", "1", "--find", "nash")
    assert code == 0
    assert "truncated: pair budget 2 exceeded" in out
    assert "summary: pairs=2" in out


@pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
def test_enumerate_bad_budget_is_usage_error(monkeypatch, value):
    # -1 once sliced pairs[:-1] and dropped the only Nash pair; abc printed
    # the pool sizes and then exited 65
    monkeypatch.setenv("LEANFA_BUDGET", value)
    code, out = run("enumerate", "pd", "--states", "1", "--find", "nash")
    assert code == EXIT_USAGE
    assert out == ""


def test_enumerate_zero_budget(monkeypatch):
    monkeypatch.setenv("LEANFA_BUDGET", "0")
    code, out = run("enumerate", "pd", "--states", "1", "--find", "nash")
    assert code == 0
    assert out.endswith("truncated: pair budget 0 exceeded, partial results\n"
                        "summary: pairs=0 nash=0 hits=0\n")


@pytest.mark.parametrize(
    "args",
    [("--states", "0"), ("--states", "1", "--threat", "-1"), ("--states", "1", "--find", "lean")],
)
def test_enumerate_bad_arguments_are_usage_errors(args):
    code, out = run("enumerate", "pd", *args)
    assert code == EXIT_USAGE
    assert out == ""


def test_python_m_entry_point():
    src = Path(leanfa.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("LEANFA_BUDGET", None)
    proc = subprocess.run(
        [sys.executable, "-m", "leanfa.cli", "enumerate", "pd", "--states", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1] == "summary: pairs=4 nash=1 hits=1"


def test_enumerate_audit_structure():
    code, out = run(
        "enumerate",
        "pd",
        "--states",
        "2",
        "--find",
        "lean",
        "--measure",
        "delta",
        "--audit",
        "structure",
    )
    assert code == 0
    hits = [l for l in out.splitlines() if l.startswith("hit ")]
    assert hits, "the grim pair must appear"
    for line in hits:
        if "payoff=0 0" in line:
            continue  # minmax-level profiles are outside the structure theory
        assert "reuse=yes" in line
        assert "count-delta=yes" in line
        assert "relations=yes" in line
        assert "chain=yes" in line
        assert "infer=yes" in line


def test_enumerate_jobs_deterministic():
    code1, out1 = run("enumerate", "pd", "--states", "1", "--find", "nash", "--jobs", "1")
    code2, out2 = run("enumerate", "pd", "--states", "1", "--find", "nash", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_enumerate_jobs_deterministic_under_budget(monkeypatch):
    # 1,237 pairs split into uneven chunks, with hits spread over them
    monkeypatch.setenv("LEANFA_BUDGET", "1237")
    code1, out1 = run("enumerate", "pd", "--states", "2", "--find", "nash", "--jobs", "1")
    code2, out2 = run("enumerate", "pd", "--states", "2", "--find", "nash", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "summary: pairs=1237 nash=108 hits=108" in out1


def test_enumerate_jobs_deterministic_on_a_random_game(tmp_path, monkeypatch):
    path = tmp_path / "random.game"
    path.write_text(game_to_text(random_game(random.Random(23), 2, 3)))
    monkeypatch.setenv("LEANFA_BUDGET", "700")
    code1, out1 = run("enumerate", str(path), "--states", "2", "--find", "nash", "--jobs", "1")
    code2, out2 = run("enumerate", str(path), "--states", "2", "--find", "nash", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "summary: pairs=700 nash=69 hits=69" in out1


def test_export_dot_deterministic(grim_files):
    code1, out1 = run("export-dot", "pd", grim_files[0])
    code2, out2 = run("export-dot", "pd", grim_files[0])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("doublecircle") == 1
    assert len([l for l in out1.splitlines() if "->" in l and "label=" in l]) == 4


def test_usage_errors():
    code, _ = run("check", "pd")
    assert code == EXIT_USAGE
    code, _ = run("nonsense")
    assert code == EXIT_USAGE


def test_parse_error_exit(tmp_path, grim_files):
    bad = tmp_path / "bad.game"
    bad.write_text("game x\nactions 1: C\n")
    code, _ = run("simulate", str(bad), *grim_files)
    assert code == EXIT_PARSE
