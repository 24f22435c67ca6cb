"""The CLI's exit-code contract as a property: for any argv over the six
subcommands, cli.run returns 0, 2, 3 or 4, and stdout is empty or one JSON
document.  Runs in-process and starts no process.

The property (tests/cli_contract_property.py) needs hypothesis and is skipped
without it; one explicit case, which needs no hypothesis, checks a 40 x 40
ideal zd, far above the generated dimensions.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from idealgate import cli


def test_exit_codes_and_stdout_follow_the_contract():
    pytest.importorskip("hypothesis")
    from cli_contract_property import exit_codes_and_stdout_follow_the_contract

    exit_codes_and_stdout_follow_the_contract()


def test_a_40_by_40_ideal_zd_is_one_json_document(monkeypatch):
    # the echelon core size-reduces as it goes, so this takes milliseconds;
    # with entries left to grow this draw ran past 25 s
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    rng = random.Random(0)
    gens = ";".join(",".join(str(rng.randint(0, 99)) for _ in range(40)) for _ in range(40))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(["ideal", "zd", "--gens", gens])
    assert code == 0
    stdout = out.getvalue()
    assert stdout.endswith("\n") and stdout.count("\n") == 1
    document = json.loads(stdout)
    assert document["ring"] == {"kind": "zd", "dim": 40} and document["verdict"] == "not_ideal"
