"""Tests for the exact integer primitives."""

import os
import subprocess
import sys
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest

import idealgate
from idealgate.exactarith import (
    additive_order,
    divisors,
    factorize,
    gaussian_binomial,
    is_prime,
    valuation,
    xgcd,
)

SRC = str(Path(idealgate.__file__).resolve().parents[1])


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


@pytest.mark.parametrize("bad", [0, -1, -360])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorize_roundtrip_exhaustive_small():
    for n in range(1, 2001):
        factors = factorize(n)
        assert prod(p**e for p, e in factors) == n
        assert all(e >= 1 for _, e in factors)
        primes = [p for p, _ in factors]
        assert primes == sorted(primes) and len(set(primes)) == len(primes)
        assert all(is_prime(p) for p in primes)


def test_factorize_roundtrip_desk_scale():
    for n in (10**6, 999_983, 2**19 * 3**5, 87_178_291_199 % 10**9, 999_999_937):
        assert prod(p**e for p, e in factorize(n)) == n


def test_factorize_roundtrip_sampled_to_million():
    import random

    rng = random.Random(1234)
    for _ in range(2000):
        n = rng.randint(1, 10**6)
        factors = factorize(n)
        assert prod(p**e for p, e in factors) == n
        assert all(is_prime(p) for p, _ in factors)


def test_is_prime_against_factorization():
    for n in range(2, 500):
        assert is_prime(n) == (factorize(n) == [(n, 1)])
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_against_trial_division():
    import random

    for n in range(-5, 2 * 10**5):
        assert is_prime(n) == _trial_division_is_prime(n), n
    rng = random.Random(4242)
    for _ in range(3000):
        n = rng.randint(1, 10**10)
        assert is_prime(n) == _trial_division_is_prime(n), n


def _trial_division_factorize(n):
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def test_factorize_against_trial_division():
    primes = [2, 3, 41, 43, 1847, 1861, 65537, 999983, 1000003, 2147483647, 999999999989]
    assert all(_trial_division_is_prime(p) for p in primes)
    cases = [1] + primes
    cases += [2**40, 3**25, 43**7, 65537**2, 1000003**2]  # prime powers
    cases += [3 * 999999999989, 41 * 999983, 1847 * 2147483647]  # p*q, p < sqrt(q)
    cases += [43 * 47, 1847 * 1000003, 65537 * 2147483647, 999983 * 1000003]  # p > sqrt(q)
    cases += [
        2**5 * 3**2 * 999999999989,  # products whose last cofactor is a large prime
        41 * 43**2 * 999983,
        2 * 3 * 5 * 7 * 11 * 13 * 2147483647,
        65537**2 * 1000003,
    ]
    above_bound = 2**30 * 3**20 * 999983  # prime checks start only below the bound
    assert above_bound >= 3317044064679887385961981
    cases.append(above_bound)
    for n in cases:
        assert factorize(n) == _trial_division_factorize(n), n


def test_factorize_stops_on_a_prime_cofactor():
    # trial division alone would take 5*10^6 to 8*10^8 divisions on these
    mersenne_61 = 2**61 - 1
    assert factorize(mersenne_61) == [(mersenne_61, 1)]
    assert factorize(10**14 + 31) == [(10**14 + 31, 1)]
    assert factorize(720 * mersenne_61) == [(2, 4), (3, 2), (5, 1), (mersenne_61, 1)]
    # at or above 3317044064679887385961981 the prime check is skipped, so
    # the cofactor is checked only once it falls below that bound
    n = 2**22 * mersenne_61
    assert n >= 3317044064679887385961981
    assert factorize(n) == [(2, 22), (mersenne_61, 1)]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the first 4, 9 and 12 prime bases, respectively
    for n, factors in (
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ):
        assert prod(factors) == n
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**79 - 67)


def test_is_prime_above_the_miller_rabin_bound():
    # at or above 3317044064679887385961981 only the numbers that pass every
    # base go on to trial division
    bound = 3317044064679887385961981
    assert not is_prime(bound + 1)
    assert not is_prime(3 * 5 * 7 * 10**24)
    assert not is_prime(7 * (bound // 7 + 1))


def test_is_prime_rejects_composites_above_the_bound_without_trial_division():
    # smallest prime factor over 10^12: trial division would take about 5*10^11
    # steps, so a fall-back to it shows as a timeout of the subprocess
    composites = (
        (2000000000003, 2000000000123),
        (1000000000039, 4000000000039),
        (2000001000001, 2000001000001),
    )
    for factors in composites:
        assert all(is_prime(f) and f > 10**12 for f in factors)
        assert prod(factors) >= 3317044064679887385961981
    script = (
        "from math import prod\n"
        "from idealgate.exactarith import is_prime\n"
        f"print([is_prime(prod(f)) for f in {composites!r}])\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[False, False, False]\n"


def test_xgcd_bezout_identity():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, x, y = xgcd(a, b)
            assert g == gcd(a, b)
            assert a * x + b * y == g
    assert xgcd(0, 0) == (0, 1, 0)


def test_divisors_and_count():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for n in range(1, 300):
        ds = divisors(n)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_valuation():
    assert valuation(24, 2) == 3
    assert valuation(24, 3) == 1
    assert valuation(-8, 2) == 3
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_additive_order_examples():
    assert additive_order(2, 8) == 4
    assert additive_order(0, 5) == 1
    assert additive_order(3, 9) == 3


@pytest.mark.parametrize("bad", [0, -3])
def test_additive_order_rejects_bad_modulus(bad):
    with pytest.raises(ValueError):
        additive_order(1, bad)


def test_additive_order_is_least_annihilating_multiple():
    # direct scan oracle for every modulus up to 200
    for s in range(1, 201):
        for c in range(s):
            t = 1
            while (t * c) % s:
                t += 1
            assert additive_order(c, s) == t
    # reduction mod s happens internally
    assert additive_order(-3, 9) == additive_order(6, 9)
    assert additive_order(11, 8) == additive_order(3, 8)


def _subspace_count_oracle(r: int, i: int, p: int) -> int:
    # Enumerate every subspace of F_p^r as the additive closure of a vector
    # tuple (subgroups of Z_p^r are exactly the subspaces).  Independent of
    # the product formula under test.
    vectors = list(product(range(p), repeat=r))

    def close(gens):
        elems = {(0,) * r} | set(gens)
        while True:
            sums = {
                tuple((a + b) % p for a, b in zip(v, w)) for v in elems for w in elems
            }
            if sums <= elems:
                return frozenset(elems)
            elems |= sums

    spaces = set()
    for size in range(r + 1):
        for gens in product(vectors, repeat=size):
            spaces.add(close(gens))
    return sum(1 for s in spaces if len(s) == p**i)


def test_gaussian_binomial_frozen_values():
    # frozen from the enumeration oracle below
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(2, 1, 3) == 4


def test_gaussian_binomial_matches_enumeration():
    for p, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        for i in range(r + 1):
            assert gaussian_binomial(r, i, p) == _subspace_count_oracle(r, i, p)


def test_gaussian_binomial_boundaries():
    for r in range(6):
        for p in (2, 3, 5):
            assert gaussian_binomial(r, 0, p) == 1
            assert gaussian_binomial(r, r, p) == 1


def test_gaussian_binomial_symmetry():
    for p in (2, 3, 5):
        for r in range(7):
            for i in range(r + 1):
                assert gaussian_binomial(r, i, p) == gaussian_binomial(r, r - i, p)


def test_gaussian_binomial_rejects_bad_input():
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(2, -1, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 1, 4)
