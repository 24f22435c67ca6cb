"""Tests for the command-line front end: grammars, JSON schema, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idealgate
from idealgate import cli
from idealgate.census import CENSUS_SUBGROUP_BOUND
from idealgate.cli import run

SRC = str(Path(idealgate.__file__).resolve().parents[1])
# subprocesses import idealgate from the same src/ as this test run
ENV = dict(
    os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
)


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


def test_more_generators_than_moduli_are_decided(capsys):
    for flags in ((), ("--verify",)):
        code, doc = invoke_json(capsys, "ideal", "zn", "--moduli", "4,2", "--gens", "1,0;0,1;1,1", *flags)
        assert code == 0 and doc["verdict"] == "ideal", flags
        code, doc = invoke_json(capsys, "order", "--moduli", "6", "--gens", "2;3", *flags)
        assert code == 0 and doc["verdict"] == 6, flags


def test_usage_errors_exit_2(capsys):
    assert run(["bogus"]) == 2
    assert run([]) == 2
    assert invoke(capsys, "ideal", "zd", "--gens", "2,x;1,0")[0] == 2
    assert invoke(capsys, "ideal", "zn", "--moduli", "0,2", "--gens", "1,0")[0] == 2
    assert invoke(capsys, "census", "--p", "6", "--r", "1", "--s", "1")[0] == 2
    assert invoke(capsys, "census", "--p", "2", "--r", "-1", "--s", "1")[0] == 2


def test_cap_exceeded_exit_3(capsys, monkeypatch):
    assert invoke(capsys, "census", "--p", "2", "--r", "7", "--s", "7", "--verify", "--cap", "100")[0] == 3
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    for command in (("ideal", "zn"), ("order",)):
        code, out = invoke(
            capsys, *command, "--moduli", "101,103,107",
            "--gens", "1,0,0;0,1,0;0,0,1", "--cap", "1000", "--verify",
        )
        assert code == 3 and out == ""
        # the default cap, 10^6, one ring past it: --verify closes nothing
        assert run([*command, "--moduli", "1000,1001", "--gens", "1,0", "--verify"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ring order 1001000 exceeds the enumeration cap 1000000\n"


@pytest.mark.parametrize(
    "argv, predicted",
    [
        ("census --p 2 --r 1 --s 2", 8),
        ("prob --n 2 --m 4", 8),
        ("prob --p 2 --dim 3", 16),
        ("verify --primes 2 --max-order 2 --max-nm 1", 2),  # Z_1 x Z_2, a prime-power row
        ("verify --primes 2 --max-order 1 --max-nm 2", 5),  # Z_2 x Z_2, a probability row
    ],
)
def test_census_bounded_by_its_predicted_subgroup_count(capsys, monkeypatch, argv, predicted):
    # every route's census checks its own count of the ring's subgroups, the
    # only guard: a bound of exactly that count runs it, one less stops it
    # before it starts
    monkeypatch.setattr("idealgate.census.CENSUS_SUBGROUP_BOUND", predicted)
    code, doc = invoke_json(capsys, *argv.split(), "--verify")
    assert code == 0 and doc["oracle_checked"] is True
    monkeypatch.setattr("idealgate.census.CENSUS_SUBGROUP_BOUND", predicted - 1)
    assert run([*argv.split(), "--verify"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the census counts at least {predicted} subgroups, "
        f"over the bound of {predicted - 1} subgroups per census\n"
    )


def test_census_bound_is_not_the_cap(capsys, monkeypatch):
    # --cap and IDEALGATE_CAP bound the ring order only; Z_2^9 has order 512
    # and 8,283,458 subgroups
    argv = ["prob", "--p", "2", "--dim", "9", "--verify"]
    assert run([*argv, "--cap", "1000000"]) == 3
    monkeypatch.setenv(cli.CAP_ENV_VAR, "1000000")
    assert run(argv) == 3
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and len(set(errors)) == 1
    assert "8283458 subgroups" in errors[0] and f"{CENSUS_SUBGROUP_BOUND} subgroups" in errors[0]


def test_census_checks_the_cap_before_the_bound(capsys):
    # Z_2^9 is over both the census cap of 100 and the subgroup bound: the
    # cap, checked first, names the ring order
    assert run(["prob", "--p", "2", "--dim", "9", "--verify", "--cap", "100"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ring order 512 exceeds the census cap 100\n"


def test_verify_checks_the_census_cap_before_counting(capsys, monkeypatch):
    # 2147483647 * 2147483659 took 86 s to factor before the cap it was over
    # was read; under --verify the cap is checked before anything is counted
    def never(*args):
        raise AssertionError("counted a ring that the census cap refuses")

    counter = cli.prob
    monkeypatch.setattr(cli, "prob", never)
    for argv, order, cap in (
        ("prob --n 4611686039902224373 --m 1", 4611686039902224373, 10_000),
        ("prob --p 2 --dim 9 --cap 100", 512, 100),
        ("census --p 2 --r 7 --s 7 --cap 100", 2**14, 100),
    ):
        assert run([*argv.split(), "--verify"]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ring order {order} exceeds the census cap {cap}\n"
    # without --verify the cap is not read, and the counter runs
    calls = []
    monkeypatch.setattr(cli, "prob", lambda moduli: calls.append(moduli) or counter(moduli))
    code, doc = invoke_json(capsys, "prob", "--n", "101", "--m", "103", "--cap", "100")
    assert code == 0 and calls == [[101, 103]] and doc["counts"] == {"subgroups": 4, "ideals": 4}
    # input errors still come first
    assert run(["prob", "--n", "-200", "--m", "-200", "--verify", "--cap", "100"]) == 2
    assert capsys.readouterr().err == "error: moduli must be positive\n"


def test_large_censuses_exit_3_within_seconds():
    # Z_2^9 (8.3 million subgroups) and Z_2^13 (order 8192, within the ring-order
    # cap, 3.76 * 10^13 subgroups) would run for minutes to years and past 3 GiB
    for dim, count in ((9, 8283458), (13, 37558989808526)):
        argv = ["prob", "--p", "2", "--dim", str(dim), "--verify"]
        proc = subprocess.run(
            [sys.executable, "-m", "idealgate", *argv],
            capture_output=True, text=True, env=ENV, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
        assert f"{count} subgroups" in proc.stderr


def test_prob_on_a_square_of_a_large_prime():
    # 811612729801**2: trial division to the prime would run for hours
    proc = subprocess.run(
        [sys.executable, "-m", "idealgate", "prob", "--n", "658715223175031033499601", "--m", "1"],
        capture_output=True, text=True, env=ENV, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["counts"] == {"subgroups": 3, "ideals": 3}
    assert doc["probability"] == {"num": 1, "den": 1}


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


def test_unprintable_results_exit_3_before_counting(capsys, monkeypatch):
    # the census prints the modulus p**max(r, s), and the subspace count is at
    # least p**(dim*dim // 4): over the digit limit, nothing is counted
    def never(*args):
        raise AssertionError("counted a result that cannot be printed")

    for name in ("prob", "count_subgroups_sum"):  # every count the CLI makes
        monkeypatch.setattr(cli, name, never)
    for argv in (
        ["census", "--p", "2", "--r", "100000", "--s", "100000"],
        ["census", "--p", "2", "--r", "1", "--s", "1000000000", "--verify"],
        ["census", "--p", "2", "--r", "14285", "--s", "0"],
        ["census", "--p", "127", "--r", "0", "--s", "2044"],
        ["prob", "--p", "2", "--dim", "1500", "--verify"],
        ["prob", "--p", "3", "--dim", "200", "--format", "text"],
    ):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert captured.err.startswith("error:") and "digits" in captured.err, argv
    monkeypatch.undo()
    # 2**14284 and 127**2043 have 4300 and 4299 digits: they still print
    code, doc = invoke_json(capsys, "census", "--p", "2", "--r", "14284", "--s", "0")
    assert code == 0 and doc["ring"]["moduli"] == [2**14284, 1]
    code, doc = invoke_json(capsys, "census", "--p", "127", "--r", "0", "--s", "2043")
    assert code == 0 and doc["ring"]["moduli"] == [1, 127**2043]


def test_large_inputs_exit_within_seconds():
    # a composite --p above the Miller-Rabin bound is rejected by a failed
    # base, and unprintable results are refused before they are computed
    script = (
        "from idealgate.cli import run\n"
        "print([run(a.split()) for a in (\n"
        "    'census --p 4000000000252000000000369 --r 1 --s 1',\n"
        "    'census --p 2 --r 100000 --s 100000',\n"
        "    'prob --p 2 --dim 1500',\n"
        ")])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=20
    )
    assert proc.stdout == "[2, 3, 3]\n", proc.stderr


def test_zero_generators_at_any_dimension():
    # no generator columns: the zero subgroup is an ideal, decided and
    # verified without a loop over the --dim coordinates
    argv = ["ideal", "zd", "--gens", "", "--dim", "1000000000000", "--verify", "--witness"]
    proc = subprocess.run(
        [sys.executable, "-m", "idealgate", *argv], capture_output=True, text=True, env=ENV, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ring"] == {"kind": "zd", "dim": 10**12}
    assert doc["verdict"] == "ideal" and doc["oracle_checked"] is True
    assert doc["witness"] == {"diagonal": [], "unimodular": [], "support": []}


def test_import_boundary():
    # the paper's criteria are theorems for the tests: the CLI never loads them;
    # the value classes are plain slotted classes, so neither dataclasses nor
    # inspect (which dataclasses imports) is on the CLI's import path
    script = (
        "import sys, idealgate.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'idealgate.paper') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=ENV, timeout=30
    )
    assert proc.stdout == "[]\n", proc.stderr
    assert [name for name in idealgate.__all__ if not hasattr(idealgate, name)] == []


def test_verify_materializes_at_the_cap():
    # --verify closes the subgroup on bits: whole rings of order 10^6, the
    # default cap, and small subgroups of them, at arity 2 and 6, in one
    # process whose peak RSS stays below 64 MiB (element tuples of a whole
    # ring took about 200 MiB)
    whole6 = ";".join(",".join("1" if i == j else "0" for j in range(6)) for i in range(6))
    cases = [
        ("1000,1000", "1,0;0,1", "ideal", 10**6),
        ("1000,1000", "500,0", "ideal", 2),
        ("10,10,10,10,10,10", whole6, "ideal", 10**6),
        ("10,10,10,10,10,10", "1,1,0,0,0,0", "not_ideal", 10),
    ]
    argvs = [
        f"{command} --moduli {moduli} --gens {gens} --verify"
        for moduli, gens, _, _ in cases
        for command in ("ideal zn", "order")
    ]
    script = (
        "import resource, sys\n"
        "from idealgate.cli import run\n"
        "print([run(a.split()) for a in sys.argv[1:]])\n"
        # on Linux, ru_maxrss also counts the RSS of the forking test process,
        # so read this process's own peak, VmHWM (KiB); ru_maxrss is in bytes
        # on macOS
        "try:\n"
        "    status = open('/proc/self/status').read().split()\n"
        "    print(status[status.index('VmHWM:') + 1])\n"
        "except OSError:\n"
        "    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(kib // 1024 if sys.platform == 'darwin' else kib)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argvs], capture_output=True, text=True, env=ENV, timeout=60
    )
    *lines, codes, maxrss = proc.stdout.splitlines()
    assert codes == str([0] * len(argvs)), proc.stderr
    assert int(maxrss) < 64 * 1024, maxrss
    docs = [json.loads(line) for line in lines]
    for (_, _, verdict, order), ideal_doc, order_doc in zip(cases, docs[::2], docs[1::2]):
        assert (ideal_doc["verdict"], order_doc["verdict"]) == (verdict, order)
        assert ideal_doc["oracle_checked"] and order_doc["oracle_checked"]


def test_failed_stdout_write_exits_3():
    # a full device or a pipe with no reader: one error line and exit 3, with
    # no traceback and no second failure from the interpreter's exit flush
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open("/dev/full", "w") as full, os.fdopen(write_end, "w") as no_reader:
        for stdout in (full, no_reader):
            proc = subprocess.run(
                [sys.executable, "-m", "idealgate", "prob", "--n", "2", "--m", "2"],
                stdout=stdout, stderr=subprocess.PIPE, text=True, env=ENV, timeout=30,
            )
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
            assert "Traceback" not in proc.stderr


def test_invariant_failure_exits_4_under_optimize():
    # exactness checks are explicit, so they still run when -O strips asserts
    script = (
        "import sys, idealgate.cli as cli\n"
        "assert False, 'asserts are live'\n"
        "cli.count_subgroups_sum = lambda p, r, s: -1\n"
        "sys.exit(cli.run(['census', '--p', '2', '--r', '1', '--s', '2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV
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


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "zd", "--gens", "1,0;0,1", "--verify"],
        ["ideal", "zn", "--moduli", "4,2", "--gens", "2,0"],
        ["order", "--moduli", "4,2", "--gens", "2,0"],
        ["census", "--p", "2", "--r", "1", "--s", "1"],
        ["prob", "--n", "2", "--m", "2"],
        ["verify", "--primes", "2", "--max-order", "4", "--max-nm", "2"],
    ],
)
def test_cap_values_checked_for_every_subcommand(capsys, monkeypatch, argv):
    # ideal zd reads no cap, but a bad value is a usage error there too
    assert run([*argv, "--cap", "0"]) == 2
    assert capsys.readouterr() == ("", "error: cap must be positive\n")
    monkeypatch.setenv("IDEALGATE_CAP", "junk")
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: IDEALGATE_CAP must be an integer, got 'junk'\n")
    # the flag wins over the environment, and a valid cap computes
    assert invoke(capsys, *argv, "--cap", "10000")[0] == 0


def test_output_is_deterministic(capsys):
    args = ("census", "--p", "3", "--r", "1", "--s", "2", "--verify")
    _, first = invoke(capsys, *args)
    _, second = invoke(capsys, *args)
    strip = lambda s: re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": X', s)
    assert strip(first) == strip(second)


# README's field order; the optional fields appear only where a case lists them
DOC_FIELDS = [
    "command", "ring", "generators", "verdict", "witness", "counts", "probability", "rows",
    "oracle_checked", "elapsed_ms",
]
OPTIONAL_FIELDS = {"witness", "counts", "probability", "rows"}
FIELD_CASES = [
    ("ideal zd --gens 2,0;2,1 --witness", {"witness"}),
    ("ideal zd --gens 2,0;3,1 --witness", set()),
    ("ideal zn --moduli 4,2 --gens 2,0;2,1 --verify", set()),
    ("order --moduli 4,2 --gens 2,0;3,1", set()),
    ("census --p 2 --r 1 --s 2 --verify", {"counts"}),
    ("prob --n 2 --m 2", {"counts", "probability"}),
    ("prob --p 2 --dim 3 --verify", {"counts", "probability"}),
    ("verify --primes 2 --max-order 4 --max-nm 2", {"rows"}),
]


def test_json_roundtrip_and_field_order(capsys):
    for argv, optional in FIELD_CASES:
        code, out = invoke(capsys, *argv.split())
        doc = json.loads(out)
        assert code == 0 and json.loads(json.dumps(doc)) == doc, argv
        expected = [f for f in DOC_FIELDS if f not in OPTIONAL_FIELDS or f in optional]
        assert list(doc) == expected, argv


TEXT_CASES = {
    "ideal zd --gens 2,0;2,1 --witness": [
        "command: ideal zd", "ring: Z^2", "generators: 2,0; 2,1", "verdict: ideal",
        "witness diagonal: [2, 1]", "witness unimodular rows: [[1, 0], [0, 1]]",
        "witness support: [0, 1]", "oracle_checked: False",
    ],
    "ideal zd --gens 2,0;3,1 --verify": [
        "command: ideal zd", "ring: Z^2", "generators: 2,0; 3,1", "verdict: not_ideal",
        "oracle_checked: True",
    ],
    "ideal zn --moduli 4,2 --gens 2,0;2,1": [
        "command: ideal zn", "ring: Z_4 x Z_2", "generators: 2,0; 2,1", "verdict: ideal",
        "oracle_checked: False",
    ],
    "order --moduli 4,2 --gens 2,0;3,1 --verify": [
        "command: order", "ring: Z_4 x Z_2", "generators: 2,0; 3,1", "verdict: 4",
        "oracle_checked: True",
    ],
    "census --p 2 --r 1 --s 2": [
        "command: census", "ring: Z_2 x Z_4", "subgroups: 8  ideals: 6", "oracle_checked: False",
    ],
    "prob --n 2 --m 2": [
        "command: prob", "ring: Z_2 x Z_2", "subgroups: 5  ideals: 4", "probability: 4/5",
        "oracle_checked: False",
    ],
    "prob --p 2 --dim 3 --verify": [
        "command: prob", "ring: Z_2 x Z_2 x Z_2", "subgroups: 16  ideals: 8", "probability: 1/2",
        "oracle_checked: True",
    ],
    "verify --primes 2 --max-order 2 --max-nm 1": [
        "command: verify", "verdict: ok",
        "check=prime_power_census  p=2  r=0  s=0  subgroups_formula=1  subgroups_census=1"
        "  ideals_formula=1  ideals_census=1  ok=True",
        "check=prime_power_census  p=2  r=0  s=1  subgroups_formula=2  subgroups_census=2"
        "  ideals_formula=2  ideals_census=2  ok=True",
        "check=probability  n=1  m=1  probability={'num': 1, 'den': 1}"
        "  census_probability={'num': 1, 'den': 1}  ok=True",
        "oracle_checked: True",
    ],
}


def test_text_format(capsys):
    code, out = invoke(capsys, "ideal", "zd", "--gens", "2,0;2,1", "--witness", "--format", "text")
    assert code == 0
    assert "verdict: ideal" in out
    assert "witness diagonal: [2, 1]" in out
    code, out = invoke(capsys, "prob", "--n", "2", "--m", "2", "--format", "text")
    assert "probability: 4/5" in out
    for argv, lines in TEXT_CASES.items():
        code, out = invoke(capsys, *argv.split(), "--format", "text")
        *head, elapsed = out.splitlines()
        assert code == 0 and head == lines, argv
        assert re.fullmatch(r"elapsed_ms: [0-9.]+", elapsed), argv


class _Miscounted(cli.FiniteSubgroup):
    """A subgroup whose unmaterialized order is one too many."""

    def order(self):
        return super().order() + 1


# (command, name in idealgate.cli, replacement): the replacement makes the
# oracle, the census tally or the primary answer disagree with the other
DISAGREEMENTS = [
    ("ideal zd --gens 2,0;2,1", "_zd_closure_oracle", lambda matrix: False),
    ("ideal zn --moduli 4,2 --gens 2,0;2,1", "_is_ideal_bits", lambda bits, gens, strides: False),
    ("order --moduli 4,2 --gens 2,0;3,1", "FiniteSubgroup", _Miscounted),
    ("census --p 2 --r 1 --s 2", "census_ideal_count", lambda census: 0),
    ("prob --n 6 --m 6", "census_ideal_count", lambda census: 0),
    ("prob --p 2 --dim 3", "census_ideal_count", lambda census: 0),
]


@pytest.mark.parametrize("argv, name, replacement", DISAGREEMENTS)
def test_oracle_disagreement_exits_4(capsys, monkeypatch, argv, name, replacement):
    # the document is still printed; only the exit code reports the disagreement
    monkeypatch.setattr(cli, name, replacement)
    code, doc = invoke_json(capsys, *argv.split(), "--verify")
    assert code == 4 and doc["oracle_checked"] is True
    code, doc = invoke_json(capsys, *argv.split())
    assert code == 0 and doc["oracle_checked"] is False


def test_verify_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(cli, "census_ideal_count", lambda census: 0)
    code, doc = invoke_json(capsys, "verify", "--primes", "2", "--max-order", "4", "--max-nm", "2")
    assert code == 4 and doc["verdict"] == "mismatch" and doc["oracle_checked"] is True
    assert not any(row["ok"] for row in doc["rows"])


def test_verify_compares_counts_not_only_their_ratio(capsys, monkeypatch):
    # doubling both census counts of Z_2 x Z_2 keeps their ratio, 4/5
    census_counts = cli._census_counts

    def doubled(moduli, cap):
        subgroups, ideals = census_counts(moduli, cap)
        return (2 * subgroups, 2 * ideals) if tuple(moduli) == (2, 2) else (subgroups, ideals)

    monkeypatch.setattr(cli, "_census_counts", doubled)
    code, doc = invoke_json(capsys, "verify", "--primes", "2", "--max-order", "2", "--max-nm", "2")
    assert code == 4 and doc["verdict"] == "mismatch"
    bad = [row for row in doc["rows"] if not row["ok"]]
    assert [(row["n"], row["m"]) for row in bad] == [(2, 2)]
    assert bad[0]["census_probability"] == bad[0]["probability"] == {"num": 4, "den": 5}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "idealgate", "prob", "--n", "2", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["probability"] == {"num": 4, "den": 5}
