"""Tests for the command-line front end: grammars, JSON schema, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import idealgate
from idealgate.cli import run

SRC = str(Path(idealgate.__file__).resolve().parents[1])


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_ideal_zd_worked_examples(capsys):
    code, doc = invoke_json(capsys, "ideal", "zd", "--gens", "2,0;3,1")
    assert code == 0
    assert doc["verdict"] == "not_ideal"
    assert doc["ring"] == {"kind": "zd", "dim": 2}
    assert doc["generators"] == [[2, 0], [3, 1]]
    assert doc["oracle_checked"] is False
    assert "witness" not in doc

    code, doc = invoke_json(capsys, "ideal", "zd", "--gens", "2,0;2,1", "--witness")
    assert code == 0
    assert doc["verdict"] == "ideal"
    assert sorted(abs(d) for d in doc["witness"]["diagonal"]) == [1, 2]
    assert doc["witness"]["support"] == [0, 1]


def test_ideal_zd_verify_and_dim(capsys):
    code, doc = invoke_json(capsys, "ideal", "zd", "--gens", "0,7", "--verify")
    assert code == 0 and doc["verdict"] == "ideal" and doc["oracle_checked"] is True
    code, doc = invoke_json(capsys, "ideal", "zd", "--gens", "", "--dim", "3")
    assert code == 0 and doc["verdict"] == "ideal"
    code, doc = invoke_json(capsys, "ideal", "zd", "--gens", "", "--dim", "3", "--witness")
    assert doc["witness"] == {"diagonal": [], "unimodular": [], "support": []}
    assert invoke(capsys, "ideal", "zd", "--gens", "1,0", "--dim", "3")[0] == 2
    assert invoke(capsys, "ideal", "zd", "--gens", "")[0] == 2


def test_ideal_zn(capsys):
    code, doc = invoke_json(capsys, "ideal", "zn", "--moduli", "4,2", "--gens", "2,0;2,1", "--verify")
    assert code == 0 and doc["verdict"] == "ideal" and doc["oracle_checked"] is True
    code, doc = invoke_json(capsys, "ideal", "zn", "--moduli", "2,2", "--gens", "1,1")
    assert code == 0 and doc["verdict"] == "not_ideal"
    code, doc = invoke_json(capsys, "ideal", "zn", "--moduli", "2,3,5", "--gens", "1,1,1")
    assert code == 0 and doc["verdict"] == "ideal"


def test_order_command(capsys):
    code, doc = invoke_json(capsys, "order", "--moduli", "4,2", "--gens", "2,0;3,1", "--verify")
    assert code == 0
    assert doc["verdict"] == 4
    assert doc["oracle_checked"] is True


def test_census_command(capsys):
    code, doc = invoke_json(capsys, "census", "--p", "2", "--r", "1", "--s", "2", "--verify")
    assert code == 0
    assert doc["counts"] == {"subgroups": 8, "ideals": 6}
    assert doc["oracle_checked"] is True
    assert doc["ring"] == {"kind": "zn", "moduli": [2, 4]}


def test_prob_command(capsys):
    code, doc = invoke_json(capsys, "prob", "--n", "2", "--m", "2")
    assert code == 0
    assert doc["probability"] == {"num": 4, "den": 5}
    assert doc["counts"] == {"subgroups": 5, "ideals": 4}

    code, doc = invoke_json(capsys, "prob", "--n", "6", "--m", "6", "--verify")
    assert code == 0
    assert doc["probability"] == {"num": 8, "den": 15}
    assert doc["oracle_checked"] is True

    code, doc = invoke_json(capsys, "prob", "--p", "2", "--dim", "3")
    assert code == 0
    assert doc["probability"] == {"num": 1, "den": 2}
    assert doc["ring"]["moduli"] == [2, 2, 2]


def test_prob_flag_combinations_rejected(capsys):
    assert invoke(capsys, "prob", "--n", "2")[0] == 2
    assert invoke(capsys, "prob", "--n", "2", "--m", "3", "--p", "2")[0] == 2
    assert invoke(capsys, "prob")[0] == 2


def test_verify_command(capsys):
    code, doc = invoke_json(capsys, "verify", "--primes", "2", "--max-order", "16", "--max-nm", "3")
    assert code == 0
    assert doc["verdict"] == "ok"
    assert all(row["ok"] for row in doc["rows"])
    checks = {row["check"] for row in doc["rows"]}
    assert checks == {"prime_power_census", "probability"}


def test_usage_errors_exit_2(capsys):
    assert run(["bogus"]) == 2
    assert run([]) == 2
    assert invoke(capsys, "ideal", "zd", "--gens", "2,x;1,0")[0] == 2
    assert invoke(capsys, "ideal", "zn", "--moduli", "0,2", "--gens", "1,0")[0] == 2
    assert invoke(capsys, "ideal", "zn", "--moduli", "4,2", "--gens", "1,0;0,1;1,1")[0] == 2
    assert invoke(capsys, "census", "--p", "6", "--r", "1", "--s", "1")[0] == 2
    assert invoke(capsys, "census", "--p", "2", "--r", "-1", "--s", "1")[0] == 2


def test_cap_exceeded_exit_3(capsys):
    assert invoke(capsys, "census", "--p", "2", "--r", "7", "--s", "7", "--verify", "--cap", "100")[0] == 3
    for command in (("ideal", "zn"), ("order",)):
        code, out = invoke(
            capsys, *command, "--moduli", "101,103,107",
            "--gens", "1,0,0;0,1,0;0,0,1", "--cap", "1000", "--verify",
        )
        assert code == 3 and out == ""


def test_zn_decided_beyond_cap(capsys):
    # verdicts and orders never enumerate, so the cap binds only the oracle
    args = ("--moduli", "101,103,107", "--gens", "1,0,0;0,1,0;0,0,1", "--cap", "1000")
    code, doc = invoke_json(capsys, "ideal", "zn", *args)
    assert code == 0 and doc["verdict"] == "ideal"
    code, doc = invoke_json(capsys, "order", *args)
    assert code == 0 and doc["verdict"] == 1113121
    code, doc = invoke_json(capsys, "order", "--moduli", f"{2**64},{3**40}", "--gens", "6,9;2,0")
    assert code == 0 and doc["verdict"] == 2**63 * 3**38


def test_integers_over_the_digit_limit(capsys):
    # a result too long for int/str conversion is an infeasible input (exit 3)
    for fmt in ("json", "text"):
        code = run(["prob", "--p", "2", "--dim", "250", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error:") and "digits" in captured.err
    # an over-long input integer is a usage error that says why
    code = run(["ideal", "zd", "--gens", "1" * 5000 + ",0;0,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "5000 digits" in captured.err and "unparseable" not in captured.err


def test_invariant_failure_exits_4_under_optimize():
    # exactness checks are explicit, so they still run when -O strips asserts
    script = (
        "import sys, idealgate.cli as cli\n"
        "assert False, 'asserts are live'\n"
        "cli.count_subgroups_sum = lambda p, r, s: -1\n"
        "sys.exit(cli.run(['census', '--p', '2', '--r', '1', '--s', '2']))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: internal invariant failed")


def test_cap_env_var_fallback(capsys, monkeypatch):
    monkeypatch.setenv("IDEALGATE_CAP", "100")
    assert invoke(capsys, "census", "--p", "2", "--r", "7", "--s", "7", "--verify")[0] == 3
    # explicit flag wins over the environment
    assert invoke(capsys, "census", "--p", "2", "--r", "2", "--s", "2", "--verify", "--cap", "10000")[0] == 0
    monkeypatch.setenv("IDEALGATE_CAP", "junk")
    assert invoke(capsys, "census", "--p", "2", "--r", "1", "--s", "1", "--verify")[0] == 2


def test_output_is_deterministic(capsys):
    args = ("census", "--p", "3", "--r", "1", "--s", "2", "--verify")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    strip = lambda s: re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', s)
    assert strip(first) == strip(second)


def test_json_roundtrip_and_field_order(capsys):
    _, out = invoke(capsys, "ideal", "zd", "--gens", "2,0;2,1", "--witness")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert list(doc) == ["command", "ring", "generators", "verdict", "witness", "oracle_checked", "elapsed_ms"]


def test_text_format(capsys):
    code, out = invoke(capsys, "ideal", "zd", "--gens", "2,0;2,1", "--witness", "--format", "text")
    assert code == 0
    assert "verdict: ideal" in out
    assert "witness diagonal: [2, 1]" in out
    code, out = invoke(capsys, "prob", "--n", "2", "--m", "2", "--format", "text")
    assert "probability: 4/5" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "idealgate", "prob", "--n", "2", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["probability"] == {"num": 4, "den": 5}
