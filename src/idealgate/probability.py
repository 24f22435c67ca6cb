"""Exact probabilities that a randomly chosen subgroup of a finite ring is an ideal."""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .exactarith import InvariantError, Record, factorize, require_prime
from .census import _p_group_count, count_ideals_pp, count_subgroups_closed


class ProbabilityReport(Record):
    """Ideal count over subgroup count for one ring, as an exact rational."""

    __slots__ = ("ring", "ideal_count", "subgroup_count", "probability")

    def __init__(self, ring: str, ideal_count: int, subgroup_count: int, probability: Fraction) -> None:
        if probability != Fraction(ideal_count, subgroup_count):
            raise ValueError("probability must equal ideal_count / subgroup_count")
        if not 0 < probability <= 1:
            raise ValueError("probability must lie in (0, 1]")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ideal_count", ideal_count)
        object.__setattr__(self, "subgroup_count", subgroup_count)
        object.__setattr__(self, "probability", probability)


def prob_pp(p: int, r: int, s: int) -> ProbabilityReport:
    """Probability for Z_{p^r} x Z_{p^s}: (r+1)(s+1) ideals over the closed-form count."""
    subgroups = count_subgroups_closed(p, r, s)  # proves p, checks r and s
    r, s = (r, s) if r <= s else (s, r)
    ideals = count_ideals_pp(r, s)
    return ProbabilityReport(
        f"Z_{p**r} x Z_{p**s}", ideals, subgroups, Fraction(ideals, subgroups)
    )


def prob_nm(n: int, m: int) -> ProbabilityReport:
    """Probability for Z_n x Z_m, multiplicative over the primes dividing n*m.

    Per prime, the subgroup count comes from the census's counter core,
    _p_group_count.  Ideals count as d(n) * d(m) (one per divisor pair), read
    off the same factorizations; both counts and the probability are exact.
    The primes come from factorize, which has proven them, so they are not
    proven again; the counts stay integers up to the one Fraction of the report.
    """
    if n <= 0 or m <= 0:
        raise ValueError("moduli must be positive")
    exponents_n = dict(factorize(n))
    exponents_m = dict(factorize(m))
    ideals = prod(e + 1 for e in exponents_n.values()) * prod(e + 1 for e in exponents_m.values())
    local_ideals = subgroups = 1
    for p in exponents_n.keys() | exponents_m.keys():
        r, s = exponents_n.get(p, 0), exponents_m.get(p, 0)
        local_ideals *= count_ideals_pp(r, s)
        subgroups *= _p_group_count(p, (r, s))
    # the ratio equals the product of the prime-wise ratios iff the ideal counts agree
    if ideals != local_ideals:
        raise InvariantError(f"prob_nm({n}, {m}): count ratio differs from the prime-wise product")
    return ProbabilityReport(f"Z_{n} x Z_{m}", ideals, subgroups, Fraction(ideals, subgroups))


def count_subspaces(p: int, r: int) -> int:
    """Number of subspaces of an r-dimensional vector space over F_p (all dimensions 0..r)."""
    require_prime(p)
    if r < 0:
        raise ValueError("dimension must be nonnegative")
    return _p_group_count(p, (1,) * r)


def prob_vector_space(p: int, r: int) -> ProbabilityReport:
    """Probability for the r-fold product of Z_p: 2^r ideals over the subspace count."""
    if r < 1:
        raise ValueError("need at least one factor")
    subgroups = count_subspaces(p, r)  # proves p
    return ProbabilityReport(f"Z_{p}^{r}", 2**r, subgroups, Fraction(2**r, subgroups))
