"""Divisor lists for tests that sweep every divisor of a number."""

from idealgate.exactarith import factorize


def divisors(n):
    """All positive divisors of n >= 1, ascending, built from factorize()."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
