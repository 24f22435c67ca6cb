"""Exact integer primitives: factorization, additive orders, Gaussian binomials.

All arithmetic is arbitrary precision; nothing here ever goes through floats.
gcd conventions follow math.gcd: always nonnegative, gcd(0, 0) == 0.  Record,
the base of the value classes of every layer, lives here too.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import attrgetter
from typing import Iterable


class Record:
    """Base of the package's immutable value classes: plain __slots__ classes.

    A subclass lists its fields in __slots__, in the order of its __init__,
    which sets them with object.__setattr__.  Equality (same class, then the
    fields), hashing, repr and pickling read the fields; pickling and copying
    go back through __init__, so its checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # the fields in one C call, for __eq__ and __hash__ (one field: its bare value)
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
    by is_prime before the loop and after each prime factor is divided out:
    Miller-Rabin with the first k bases, as many as its size needs), or is a
    perfect power r**k, whose root is then factored recursively.  Powers are
    looked for each time d reaches a power of two from 2**8 on (see
    _power_root): squares (math.isqrt), and k-th powers for the primes
    k <= d / 4, each behind a residue check of a few divisions, so a search
    costs at most about as much as the d / 4 divisions since the last one.
    At any size of p, p**k costs 86 candidates (2, 3 and the 84 numbers
    prime to 6 below 256) up to k = 64 and under 4k beyond, and p**2 times
    primes below q at most max(q, 86); a prime found is divided out by p,
    p**2, p**4, ... (_divide_out).  Otherwise reaching a prime factor p takes
    about p/3 candidates (2, 3, then the numbers prime to 6 from 5 on): the
    cost follows the second largest prime factor of n, counted with
    multiplicity.  A product p*q of two large primes p < q still takes about
    p/3 candidates, with no bound.
    """
    if n <= 0:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n == 1:
        return []
    if _is_prime_below_bound(n):
        return [(n, 1)]
    factors: list[tuple[int, int]] = []
    classes: tuple[Iterable[int], ...] = _FIRST_BLOCK
    d = 1 << 8  # the first power check, where _FIRST_BLOCK ends
    while True:
        n = _trial_divide(n, classes, d - 1, factors)
        if n == 1:
            return factors
        root = _power_root(n, d)  # n has no prime factor below d
        if root is not None:
            r, k = root
            factors.extend((p, e * k) for p, e in factorize(r))
            return factors
        classes = _prime_to_6(d + 1, 2 * d)
        d *= 2


def _prime_to_6(lo: int, hi: int) -> tuple[range, range]:
    """The numbers prime to 6 in [lo, hi): the class 5 (mod 6), then 1 (mod 6)."""
    return range(lo + (5 - lo) % 6, hi, 6), range(lo + (1 - lo) % 6, hi, 6)


_FIRST_BLOCK = ((2, 3), *_prime_to_6(5, 1 << 8))  # built once: it is the same for every n


def _trial_divide(
    n: int, classes: Iterable[Iterable[int]], last: int, factors: list[tuple[int, int]]
) -> int:
    """Divide n > 1 by the divisors of each class in turn, each class
    ascending and ending at or before last, appending the prime factors found,
    sorted, until the rest is 1 or provably prime (appended too); return that
    rest: 1 once n is factored, else the part left when the classes run out.

    No composite divisor divides n: a prime factor of it is divided out
    first.  In a block [d + 1, 2d) that factor lies below sqrt(2d) < d.
    Below 2**8, after 2 and 3, a composite has one earlier in its class, or
    is 1 (mod 6) with two 5 (mod 6), as 25 and 55 are: so the class 5 (mod 6)
    runs first.  Each class stops past isqrt(n), which is computed again only
    after a factor; once all have run with isqrt(n) < last, every divisor up
    to isqrt(n) is tried and the rest is prime."""
    found = []
    r = isqrt(n)
    for divisors in classes:
        for d in divisors:
            if d > r:
                break
            if n % d == 0:
                e, n = _divide_out(n, d)
                found.append((d, e))
                if n > 1 and _is_prime_below_bound(n):
                    found.append((n, 1))
                    n = 1
                r = isqrt(n)
    if n > 1 and r < last:
        found.append((n, 1))
        n = 1
    factors.extend(sorted(found))
    return n


def _is_prime_below_bound(n: int) -> bool:
    """n is prime and below the Miller-Rabin bound.  At or above the bound
    is_prime proves a prime only by trial division itself, so it is not asked
    there."""
    return n < _MILLER_RABIN_EXACT_BELOW and is_prime(n)


def _power_root(n: int, d: int) -> tuple[int, int] | None:
    """(r, k) with n == r**k for n >= 2 without a prime factor below d >= 2:
    a square (k = 2), or a k-th power for the least prime k >= 3 with one;
    else None.  Such a root is at least d, so only the primes k <= d / 4
    with d**k <= n are tried."""
    r = isqrt(n)
    if r * r == n:
        return r, 2
    # r >= d, so n has at least k * (d.bit_length() - 1) + 1 bits
    k_max = min(d >> 2, (n.bit_length() - 1) // (d.bit_length() - 1))
    for k in filter(is_prime, range(3, k_max + 1, 2)):
        # a k-th power is one modulo each prime q = 1 (mod k); two such q that do
        # not divide n leave about 1/k**2 of the other n to the Newton root
        qs = (q for q in range(2 * k + 1, n, 2 * k) if is_prime(q) and n % q)
        if all(pow(n, (q - 1) // k, q) == 1 for _, q in zip(range(2), qs)):
            r = _integer_root(n, k)
            if r**k == n:
                return r, k
    return None


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1 and k >= 2, by integer Newton steps from
    above, started from the root of the leading bits of n, which holds the
    upper half of the root's m bits; so a few steps suffice at any k, where
    starting from 2**m could take about k of them."""
    m = -(-n.bit_length() // k)  # the root is below 2**m
    if m <= 1:
        return 1
    t = m // 2
    # n >> (k*t) < (s + 1)**k, so n < ((s + 1) << t)**k
    r = (_integer_root(n >> (k * t), k) + 1) << t
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# psi_k, the least composite that is a strong pseudoprime to each of the first
# k prime bases (OEIS A014233; Jaeschke 1993, and Sorenson and Webster 2015,
# "Strong pseudoprimes to twelve prime bases"): below psi_k the first k bases
# decide primality exactly, and below psi_13 all 13 do.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
_MILLER_RABIN_EXACT_BELOW = _MILLER_RABIN_PSI[-1]


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Trial division by the primes up to 41, then Miller-Rabin with the first
    k of those primes as bases, one modular exponentiation each, where k is
    the least with n below psi_k (five bases below 2152302898747, all 13
    below 3317044064679887385961981); below psi_13 this is exact.  At or
    above that bound a base that fails still proves n composite, so
    composites are decided at once unless they are strong pseudoprimes to
    all 13 bases; only the numbers that pass every base fall back to trial
    division, which is exact at any size but takes time proportional to
    sqrt(n).  So a prime above the bound still takes unbounded time: no
    primality certificate is built yet.
    """
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, so no factor up to sqrt(n)
        return True
    s, d = _divide_out(n - 1, 2)
    for a, psi in zip(_MILLER_RABIN_BASES, _MILLER_RABIN_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return all(n % q for c in _prime_to_6(43, isqrt(n) + 1) for q in c)  # n >= psi_13 passed every base


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


def valuation(n: int, p: int) -> int:
    """Largest v with p^v dividing n (n != 0, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2:
        raise ValueError(f"valuation requires p >= 2, got {p}")
    return _divide_out(abs(n), p)[0]


def _divide_out(n: int, d: int) -> tuple[int, int]:
    """(e, n // d**e) for the largest e with d**e dividing n != 0, d >= 2: past
    e = 1, d**2 is divided out recursively, so the recursion depth is log2(e)."""
    q, r = divmod(n, d)
    if r or q % d:
        return (0, n) if r else (1, q)
    e, n = _divide_out(q, d * d)  # d divides this n at most once
    q, r = divmod(n, d)
    return (2 * e + 1, n) if r else (2 * e + 2, q)


def additive_order(c: int, s: int) -> int:
    """Order of c in (Z_s, +): the least t >= 1 with t*c == 0 mod s, i.e. s // gcd(c, s)."""
    if s <= 0:
        raise ValueError(f"modulus must be positive, got {s}")
    return s // gcd(c % s, s)


def gaussian_binomial(r: int, i: int, p: int) -> int:
    """Number of i-dimensional subspaces of an r-dimensional vector space over F_p."""
    if i < 0 or i > r:
        raise ValueError(f"need 0 <= i <= r, got i={i}, r={r}")
    require_prime(p)
    return _gaussian_binomial(r, i, p)


def _gaussian_binomial(r: int, i: int, p: int) -> int:
    """gaussian_binomial for 0 <= i <= r and a proven prime p: the exact
    quotient of the products (p^r - p^j) / (p^i - p^j) over j = 0..i-1."""
    num = 1
    den = 1
    for j in range(i):
        num *= p**r - p**j
        den *= p**i - p**j
    q, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"gaussian_binomial({r}, {i}, {p}): inexact division")
    return q
