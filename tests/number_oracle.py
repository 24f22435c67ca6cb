"""Divisor lists, and a factorization by plain trial division, for tests of
number-theoretic code."""

from idealgate.exactarith import factorize


def divisors(n):
    """All positive divisors of n >= 1, ascending, built from factorize()."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def trial_division_factorize(n):
    """(prime, exponent) pairs of n >= 1 by trial division alone, independent
    of exactarith; about sqrt(n) steps for a prime n."""
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
