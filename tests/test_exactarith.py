"""Tests for the exact integer primitives."""

import os
import subprocess
import sys
from itertools import product
from math import gcd, isqrt, prod
from pathlib import Path

import pytest

import idealgate
from idealgate import exactarith
from idealgate.exactarith import (
    additive_order,
    factorize,
    gaussian_binomial,
    is_prime,
    valuation,
    xgcd,
)
from number_oracle import divisors, trial_division_factorize

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
        assert factorize(n) == trial_division_factorize(n), n


def _block_primes(k):
    """The primes of the trial-division block [2**k + 1, 2**(k+1)), 5 (mod 6)
    and 1 (mod 6): from 2**8 on its divisors run in that order."""
    primes = [p for p in range(2**k + 1, 2 ** (k + 1)) if is_prime(p)]
    return [p for p in primes if p % 6 == 5], [p for p in primes if p % 6 == 1]


def _block_cases():
    """Products shaped by the trial-division blocks."""
    cases = []
    for k in range(8, 14):
        fives, ones = _block_primes(k)
        ends = fives[:2] + fives[-2:] + ones[:2] + ones[-2:]
        # p*q in one block: both classes, either one the smaller, and squares
        cases += [p * q for p in ends for q in ends if p <= q]
        # p*q*r in one block, in every order of the classes
        cases += [p * q * r for p in ends for q in ends for r in ends if p < q < r]
        # a prime cofactor in the same block after a factor in its middle
        for mid in (fives[len(fives) // 2], ones[len(ones) // 2]):
            cases += [mid * fives[-1], mid * ones[-1]]
        # a prime whose square root lies past the block's last divisor
        edge = 2 ** (k + 1) - 1
        cases.append(next(q for q in range(edge**2, 0, -1) if is_prime(q)))
    for k in range(8, 18):
        # squares of the last prime below a block edge and the first above it
        below = next(p for p in range(2**k - 1, 0, -1) if is_prime(p))
        above = next(p for p in range(2**k + 1, 2 ** (k + 1)) if is_prime(p))
        cases += [below**2, above**2, 3 * below**2, below * above]
    for k in range(8, 31):
        cases += [2**k + e for e in range(-3, 4)]
    return cases


def test_factorize_across_the_blocks(monkeypatch):
    # a block whose divisors run out below isqrt(n) proves the rest prime, so
    # a power is looked for at d only when trial division could not stop
    def checked(n, d):
        assert isqrt(n) >= d - 1, (n, d)
        return power_root(n, d)

    power_root = exactarith._power_root
    monkeypatch.setattr(exactarith, "_power_root", checked)
    cases = _block_cases()
    for n in cases:
        assert factorize(n) == trial_division_factorize(n), n
    # a prime cofactor far above the block, after a factor in its middle
    for k in range(8, 14):
        for primes in _block_primes(k):
            mid = primes[len(primes) // 2]
            assert factorize(mid * 999999999989) == [(mid, 1), (999999999989, 1)]
    # with no Miller-Rabin stop, each rest is proven prime by the square-root
    # bound alone, in the middle of a block or at its end
    monkeypatch.setattr(exactarith, "_MILLER_RABIN_EXACT_BELOW", 0)
    for n in cases:
        assert factorize(n) == trial_division_factorize(n), n


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


def test_factorize_prime_powers_at_once():
    # trial division alone would take about 4*10^11 divisions to reach p
    p = 811612729801
    assert is_prime(p) and p * p < exactarith._MILLER_RABIN_EXACT_BELOW
    for n, factors in (
        (p**2, [(p, 2)]),
        (p**3, [(p, 3)]),  # above the Miller-Rabin bound: a cube root at d = 2**14
        (3 * p**2, [(3, 1), (p, 2)]),  # the square is the cofactor after 3
        (2**5 * 7 * p**2, [(2, 5), (7, 1), (p, 2)]),
        (p**6, [(p, 6)]),  # a square of a cube
        ((2**61 - 1) ** 5, [(2**61 - 1, 5)]),
        (1009 * p**13, [(1009, 1), (p, 13)]),  # a 13th root at d = 2**16
    ):
        assert factorize(n) == factors, n
    # the same shapes where the trial-division oracle finishes: roots on
    # either side of the checkpoints 2**14 and 2**16
    for q in (16381, 16411, 65521, 65537, 1000003):
        for n in (q**2, q**3, 3 * q**2, 5 * q**3, q**5, 2**3 * q**2 * 17):
            assert factorize(n) == trial_division_factorize(n), n


def test_factorize_roots_are_exact():
    # a power's neighbours are not powers
    assert exactarith._integer_root(2**64, 2) == 2**32
    for k in range(2, 40):
        for n in range(1, 1100):
            r = exactarith._integer_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
    for k in (2, 3, 5, 7, 11, 97, 211, 1009):
        for r in (2, 3, 2**16 + 1, 10**6 + 3, 2**61 - 1):
            n = r**k
            assert exactarith._integer_root(n, k) == r
            assert exactarith._integer_root(n - 1, k) == r - 1
            assert exactarith._integer_root(n + 1, k) == r
    # _power_root at d, the greatest power of two up to the root, finds
    # squares, and k-th powers for the primes 3 <= k <= d / 4
    for k in (2, 3, 5, 7, 11, 97, 211):
        for r in (2**16 + 1, 10**6 + 3, 2**61 - 1):
            d = 1 << (r.bit_length() - 1)
            n = r**k
            assert exactarith._power_root(n, d) == (r, k), (r, k)
            assert exactarith._power_root(n + 2, d) is None
    assert exactarith._power_root(257**61, 256) == (257, 61)
    assert exactarith._power_root(257**67, 256) is None
    # 607 is the least prime q = 1 (mod 101); it divides 607**101, so the
    # residue check passes over it to the next such prime
    assert exactarith._power_root(607**101, 512) == (607, 101)


def test_power_search_cost(monkeypatch):
    # a root with no prime factor below the first checkpoint, 2**8, is found
    # there for k <= 2**8 / 4: trial division stops after 2**7 divisors
    calls = []

    def counting(n, d):
        calls.append(d)
        return power_root(n, d)

    power_root = exactarith._power_root
    monkeypatch.setattr(exactarith, "_power_root", counting)
    p = 10**9 + 7
    for k in (23, 37, 61):
        calls.clear()
        assert factorize(p**k) == [(p, k)]
        assert calls == [2**8], k
    # no power, 3831 bits: the residue checks rule out every k-th power
    # without a Newton root, where the roots alone would take 934 steps
    roots = []
    monkeypatch.setattr(exactarith, "_integer_root", lambda n, k: roots.append(k))
    primes = [q for q in range(301, 3000, 2) if is_prime(q)]
    assert factorize(prod(primes)) == [(q, 1) for q in primes]
    assert roots == []


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


# psi_k (OEIS A014233): the least composite that is a strong pseudoprime to
# each of the first k prime bases, for k = 1..13
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**i, n) == n - 1 for i in range(s))


def test_is_prime_at_each_base_count_threshold():
    # is_prime runs only the first k bases below psi_k, so psi_k itself is
    # where the (k+1)-th base (or a later one) has to reject.  is_prime(psi_13)
    # is not asked: a number at the bound that passes every base falls back
    # to trial division
    for k, psi in enumerate(PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[:k]), k
        if k < len(PSI):
            assert not is_prime(psi), k
    assert exactarith._MILLER_RABIN_PSI == PSI


def test_is_prime_against_a_sieve():
    limit = 2 * 10**6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit, q)))
    mismatches = [n for n in range(limit) if is_prime(n) != sieve[n]]
    assert mismatches == []


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
