"""Tests for the exact integer primitives."""

from itertools import product
from math import gcd, prod

import pytest

from idealgate.exactarith import (
    additive_order,
    divisor_count,
    divisors,
    factorize,
    gaussian_binomial,
    is_prime,
    valuation,
    xgcd,
)


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
        assert divisor_count(n) == len(ds)


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
