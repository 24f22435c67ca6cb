"""Exact integer primitives: factorization, additive orders, Gaussian binomials.

All arithmetic is arbitrary precision; nothing here ever goes through floats.
gcd conventions follow math.gcd: always nonnegative, gcd(0, 0) == 0.
"""

from __future__ import annotations

from math import gcd


class InvariantError(RuntimeError):
    """An exactness invariant failed.  This is a bug, never a property of the input;
    the checks raise it explicitly so that they also run under ``python -O``."""


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with a*x + b*y == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of n >= 1 as (prime, exponent) pairs, primes ascending.

    factorize(1) == [] (empty product).  The loop stops once the unfactored
    part is below d*d or is a prime below 3317044064679887385961981 (checked
    by is_prime before the loop and after each prime factor is divided out).
    Reaching a prime factor p takes about p/2 divisions, so the cost follows
    the second largest prime factor of n, counted with multiplicity: a prime
    n, or a prime cofactor, costs one is_prime.  A product p*q of two large
    primes p <= q still takes about p/2 divisions, with no bound.
    """
    if n <= 0:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: list[tuple[int, int]] = []
    d = 2
    if not _is_prime_below_bound(n):
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                factors.append((d, e))
                if _is_prime_below_bound(n):
                    break
            d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def _is_prime_below_bound(n: int) -> bool:
    """n is prime and below the Miller-Rabin bound.  At or above the bound
    is_prime proves a prime only by trial division itself, so it is not asked
    there."""
    return n < _MILLER_RABIN_EXACT_BELOW and is_prime(n)


# The first 13 prime bases decide primality exactly below this bound: no
# composite below it is a strong pseudoprime to all of them (Sorenson and
# Webster 2015, "Strong pseudoprimes to twelve prime bases").
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Trial division by the primes up to 41, then Miller-Rabin with those
    primes as bases, at most 13 modular exponentiations.  Below
    3317044064679887385961981 this is exact.  At or above that bound a base
    that fails still proves n composite, so composites are decided at once
    unless they are strong pseudoprimes to all 13 bases; only the numbers
    that pass every base fall back to trial division, which is exact at any
    size but takes time proportional to sqrt(n).  So a prime above the bound
    still takes unbounded time: no primality certificate is built yet.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, so no factor up to sqrt(n)
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_EXACT_BELOW:
        q = 43
        while q * q <= n:
            if n % q == 0:
                return False
            q += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n (n != 0, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def additive_order(c: int, s: int) -> int:
    """Order of c in (Z_s, +): the least t >= 1 with t*c == 0 mod s, i.e. s // gcd(c, s)."""
    if s <= 0:
        raise ValueError(f"modulus must be positive, got {s}")
    return s // gcd(c % s, s)


def gaussian_binomial(r: int, i: int, p: int) -> int:
    """Number of i-dimensional subspaces of an r-dimensional vector space over F_p.

    Computed as the exact quotient of the products (p^r - p^j) / (p^i - p^j)
    over j = 0..i-1; the division is always exact.
    """
    if i < 0 or i > r:
        raise ValueError(f"need 0 <= i <= r, got i={i}, r={r}")
    require_prime(p)
    num = 1
    den = 1
    for j in range(i):
        num *= p**r - p**j
        den *= p**i - p**j
    q, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"gaussian_binomial({r}, {i}, {p}): inexact division")
    return q
