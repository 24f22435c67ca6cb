"""The CLI's exit-code contract as a property: for any argv over the six
subcommands, cli.run returns 0, 2, 3 or 4, and stdout is empty or one JSON
document.  Runs in-process and starts no process.

Inputs are bounded so that nothing factors or censuses for long: integers up
to 10^6 in absolute value, rings under --verify up to order 10^4, verify's
--max-order up to 256 and --max-nm up to 12.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from idealgate import cli

BIG = 10**6
# small values reach the computing paths, big ones the caps; zero, negative
# and composite values are usage errors where a positive or prime one is due
INTS = st.one_of(st.integers(-3, 16), st.integers(-BIG, BIG))
POSITIVE = st.one_of(st.integers(1, 16), st.integers(1, BIG))
PRIMES = st.sampled_from([2, 3, 5, 999983])
EXPONENTS = st.one_of(st.integers(-1, 8), st.integers(-BIG, BIG))
BAD_CAPS = st.sampled_from(["junk", "1e3", "", "0", "-5"])


def _mostly(draw, good, bad):
    """A draw from good three times in four, else from bad."""
    return draw(good if draw(st.integers(0, 3)) else bad)


def _values(draw, good, bad, most):
    """A comma-separated list of 1 to most values, each _mostly good."""
    return ",".join(str(_mostly(draw, good, bad)) for _ in range(draw(st.integers(1, most))))


def _generators(draw, length, most):
    gens = draw(st.lists(st.lists(INTS, min_size=length, max_size=length), max_size=most))
    if gens and not draw(st.integers(0, 9)):
        gens[-1] = gens[-1] + [1]  # a generator of the wrong length
    return ";".join(",".join(map(str, g)) for g in gens)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["ideal zd", "ideal zn", "order", "census", "prob", "verify"]))
    argv = command.split()
    verify = draw(st.booleans())
    if command == "ideal zd":
        dim = draw(st.integers(0, 4))
        argv.append("--gens=" + _generators(draw, dim, 5))
        if draw(st.booleans()):
            argv.append(f"--dim={_mostly(draw, st.just(dim), EXPONENTS)}")
        if draw(st.booleans()):
            argv.append("--witness")
    elif command in ("ideal zn", "order"):
        # --verify closes the whole ring, so it gets only rings up to 10^4
        if verify:
            moduli = _values(draw, st.integers(1, 100), st.integers(-3, 0), 2)
        else:
            moduli = _values(draw, POSITIVE, INTS, 4)
        # up to 2k+1 generators: more than the k factors is a valid subgroup
        k = moduli.count(",") + 1
        argv += [f"--moduli={moduli}", "--gens=" + _generators(draw, k, 2 * k + 1)]
    elif command == "census":
        argv += [f"--p={_mostly(draw, PRIMES, INTS)}", f"--r={draw(EXPONENTS)}", f"--s={draw(EXPONENTS)}"]
    elif command == "prob":
        if draw(st.booleans()):
            argv += [f"--n={_mostly(draw, POSITIVE, INTS)}", f"--m={_mostly(draw, POSITIVE, INTS)}"]
        else:
            argv += [f"--p={_mostly(draw, PRIMES, INTS)}", f"--dim={draw(EXPONENTS)}"]
        if not draw(st.integers(0, 4)):
            argv.append(draw(st.sampled_from(["--n=2", "--m=3", "--dim=2"])))  # mixed forms
    else:
        argv.append(f"--primes={_values(draw, PRIMES, INTS, 3)}")
        argv += [f"--max-order={draw(st.integers(-1, 256))}", f"--max-nm={draw(st.integers(-1, 12))}"]
    if draw(st.booleans()):
        argv.append(f"--cap={_mostly(draw, st.integers(1, 10**4), BAD_CAPS)}")
    if verify:
        argv.append("--verify")
    return argv


@st.composite
def _env_cap(draw):
    """IDEALGATE_CAP: unset, a cap of at most 10^4, or junk."""
    return _mostly(draw, st.sampled_from([None, None, "100", "10000"]), BAD_CAPS)


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(argv=_argv(), env_cap=_env_cap())
def test_exit_codes_and_stdout_follow_the_contract(monkeypatch, argv, env_cap):
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as patch:
        if env_cap is None:
            patch.delenv(cli.CAP_ENV_VAR, raising=False)
        else:
            patch.setenv(cli.CAP_ENV_VAR, env_cap)
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    assert code in (0, 2, 3, 4), (argv, env_cap, code)
    stdout = out.getvalue()
    if code in (2, 3) or not stdout:
        assert stdout == "" and code != 0, (argv, env_cap, code)
    else:
        assert stdout.endswith("\n") and stdout.count("\n") == 1, argv
        assert isinstance(json.loads(stdout), dict), argv
