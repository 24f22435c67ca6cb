"""Tests for the exact ideal probabilities."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from math import prod
from pathlib import Path

import pytest

import idealgate
from idealgate.census import census_ideal_count, enumerate_subgroups_bruteforce
from idealgate.finite import ProductRing
from idealgate.probability import (
    ProbabilityReport,
    count_subspaces,
    prob_nm,
    prob_pp,
    prob_vector_space,
)
from number_oracle import trial_division_factorize

SRC = str(Path(idealgate.__file__).resolve().parents[1])


def _census_ratio(moduli) -> tuple[int, int]:
    census = enumerate_subgroups_bruteforce(ProductRing(moduli))
    return census_ideal_count(census), len(census)


def test_report_invariants():
    with pytest.raises(ValueError):
        ProbabilityReport("Z_2 x Z_2", 4, 5, Fraction(3, 5))
    with pytest.raises(ValueError):
        ProbabilityReport("bad", 6, 5, Fraction(6, 5))


def test_prob_pp_frozen_examples():
    assert prob_pp(2, 1, 1).probability == Fraction(4, 5)
    assert prob_pp(3, 1, 1).probability == Fraction(2, 3)
    assert prob_pp(2, 1, 2).probability == Fraction(3, 4)
    report = prob_pp(2, 1, 2)
    assert (report.ideal_count, report.subgroup_count) == (6, 8)
    assert report.ring == "Z_2 x Z_4"


def test_prob_pp_equal_prime_closed_form():
    for p in (2, 3, 5, 7, 11):
        assert prob_pp(p, 1, 1).probability == Fraction(4, p + 3)


def test_prob_pp_normalizes_exponents():
    assert prob_pp(2, 2, 1).probability == prob_pp(2, 1, 2).probability


def test_prob_pp_rejects_nonprime():
    with pytest.raises(ValueError):
        prob_pp(6, 1, 1)


def test_prob_pp_matches_census():
    # p = 5 covers its full stated range here (5^(r+s) <= 10^4); the deeper
    # p in {2, 3} sweeps run in the acceptance suite
    for p, cap in ((2, 729), (3, 729), (5, 10_000)):
        for r in range(8):
            for s in range(r, 8):
                if p ** (r + s) > cap:
                    continue
                ideals, subgroups = _census_ratio((p**r, p**s))
                report = prob_pp(p, r, s)
                assert (report.ideal_count, report.subgroup_count) == (ideals, subgroups)


def test_prob_pp_equal_exponent_closed_form():
    # the closed form specializes cleanly at r == s
    for p in (2, 3, 5):
        for r in range(1, 5):
            expected = Fraction(
                (r + 1) ** 2 * (p - 1) ** 2,
                p ** (r + 1) * (p + 1) - 2 * r * (p - 1) - 3 * p + 1,
            )
            assert prob_pp(p, r, r).probability == expected


def test_prob_pp_strictly_decreasing_in_exponent():
    for p in (2, 3):
        values = [prob_pp(p, r, r).probability for r in range(0, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_prob_nm_frozen_examples():
    report = prob_nm(6, 6)
    assert report.probability == Fraction(8, 15)
    assert (report.ideal_count, report.subgroup_count) == (16, 30)
    assert prob_nm(1, 9).probability == 1
    assert prob_nm(7, 1).probability == 1
    assert prob_nm(1, 1).probability == 1
    assert prob_nm(4, 2).probability == Fraction(3, 4)


def test_prob_nm_rejects_bad_moduli():
    with pytest.raises(ValueError):
        prob_nm(0, 3)
    with pytest.raises(ValueError):
        prob_nm(3, -1)


def test_prob_nm_is_product_of_prime_power_parts():
    from idealgate.exactarith import factorize

    for n in range(1, 31):
        for m in range(1, 31):
            expected = Fraction(1)
            en, em = dict(factorize(n)), dict(factorize(m))
            for p in sorted(set(en) | set(em)):
                lo, hi = sorted((en.get(p, 0), em.get(p, 0)))
                expected *= prob_pp(p, lo, hi).probability
            assert prob_nm(n, m).probability == expected


def test_prob_nm_matches_census():
    for n in range(1, 9):
        for m in range(1, 9):
            ideals, subgroups = _census_ratio((n, m))
            report = prob_nm(n, m)
            assert (report.ideal_count, report.subgroup_count) == (ideals, subgroups), (n, m)


# about 0.1 s per prime near 10^12, so each number is factored once
_factored = cache(trial_division_factorize)


def _prime_wise_oracle(n, m):
    """(ring, ideals, subgroups, probability) of Z_n x Z_m as the product of
    prob_pp over the primes of a trial-division factorization."""
    en, em = dict(_factored(n)), dict(_factored(m))
    parts = [prob_pp(p, en.get(p, 0), em.get(p, 0)) for p in en.keys() | em.keys()]
    return (
        f"Z_{n} x Z_{m}",
        prod(part.ideal_count for part in parts),
        prod(part.subgroup_count for part in parts),
        prod((part.probability for part in parts), start=Fraction(1)),
    )


def test_prob_nm_at_scale_matches_the_prime_wise_oracle():
    rng = random.Random(2015)
    primes = []
    while len(primes) < 6:
        c = rng.randrange(10**10, 10**12) | 1
        if _factored(c) == [(c, 1)]:
            primes.append(c)

    def smooth():
        n = 1
        while True:
            p = rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
            if n * p > 10**12:
                return n
            n *= p

    prime_powers = [2**39, 3**25, 7**14, 65537**2, 1000003**2, 9973**3, 101**5, primes[0]]
    smooths = [smooth() for _ in range(6)]
    pairs = list(zip(primes, primes[1:] + primes[:1]))
    pairs += [(primes[i], smooths[i]) for i in range(6)] + [(smooths[i], primes[i]) for i in range(3)]
    pairs += list(zip(smooths, smooths[1:]))
    pairs += [(a, b) for a in prime_powers for b in (prime_powers[0], prime_powers[3], smooths[0])]
    pairs += [(1, primes[0]), (primes[0], 1)]
    for n, m in pairs:
        report = prob_nm(n, m)
        got = (report.ring, report.ideal_count, report.subgroup_count, report.probability)
        assert got == _prime_wise_oracle(n, m), (n, m)


def test_prob_nm_cross_check_runs_under_optimization():
    # a wrong per-prime ideal count must still reach the integer cross-check
    # (exit 4) with asserts stripped
    script = (
        "import sys\n"
        "import idealgate.probability as probability\n"
        "probability.count_ideals_pp = lambda r, s: (r + 1) * (s + 1) + 1\n"
        "from idealgate.cli import main\n"
        "sys.argv = ['idealgate', 'prob', '--n', '12', '--m', '18']\n"
        "main()\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: internal invariant failed: "
        "prob_nm(12, 18): count ratio differs from the prime-wise product\n"
    )


def test_count_subspaces_frozen_examples():
    assert count_subspaces(2, 2) == 5
    assert count_subspaces(2, 3) == 16
    assert count_subspaces(7, 0) == 1
    with pytest.raises(ValueError):
        count_subspaces(4, 2)


def test_count_subspaces_matches_census():
    # subgroups of a product of Z_p factors are exactly the subspaces
    assert count_subspaces(2, 3) == len(enumerate_subgroups_bruteforce(ProductRing((2, 2, 2))))
    assert count_subspaces(3, 2) == len(enumerate_subgroups_bruteforce(ProductRing((3, 3))))
    assert count_subspaces(2, 4) == len(
        enumerate_subgroups_bruteforce(ProductRing((2, 2, 2, 2)))
    )


def test_prob_vector_space_frozen_examples():
    assert prob_vector_space(2, 2).probability == Fraction(4, 5)
    assert prob_vector_space(2, 3).probability == Fraction(1, 2)
    assert prob_vector_space(3, 2).probability == Fraction(2, 3)
    report = prob_vector_space(2, 3)
    assert (report.ideal_count, report.subgroup_count) == (8, 16)
    assert report.ring == "Z_2^3"


def test_prob_vector_space_matches_census():
    ideals, subgroups = _census_ratio((2, 2, 2))
    report = prob_vector_space(2, 3)
    assert (report.ideal_count, report.subgroup_count) == (ideals, subgroups)


def test_prob_vector_space_cross_module_identity():
    for p in (2, 3, 5, 7):
        assert prob_vector_space(p, 2).probability == prob_pp(p, 1, 1).probability


def test_prob_vector_space_rejects_bad_input():
    with pytest.raises(ValueError):
        prob_vector_space(6, 2)
    with pytest.raises(ValueError):
        prob_vector_space(2, 0)
