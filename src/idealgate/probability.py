"""Exact probabilities that a randomly chosen subgroup of a finite ring is an ideal."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactarith import InvariantError, divisor_count, factorize, gaussian_binomial, require_prime
from .census import count_ideals_pp, count_subgroups_closed


@dataclass(frozen=True)
class ProbabilityReport:
    """Ideal count over subgroup count for one ring, as an exact rational."""

    ring: str
    ideal_count: int
    subgroup_count: int
    probability: Fraction

    def __post_init__(self) -> None:
        if self.probability != Fraction(self.ideal_count, self.subgroup_count):
            raise ValueError("probability must equal ideal_count / subgroup_count")
        if not 0 < self.probability <= 1:
            raise ValueError("probability must lie in (0, 1]")


def prob_pp(p: int, r: int, s: int) -> ProbabilityReport:
    """Probability for Z_{p^r} x Z_{p^s}: (r+1)(s+1) ideals over the closed-form count."""
    require_prime(p)
    r, s = (r, s) if r <= s else (s, r)
    ideals = count_ideals_pp(r, s)
    subgroups = count_subgroups_closed(p, r, s)
    return ProbabilityReport(
        f"Z_{p**r} x Z_{p**s}", ideals, subgroups, Fraction(ideals, subgroups)
    )


def prob_nm(n: int, m: int) -> ProbabilityReport:
    """Probability for Z_n x Z_m, multiplicative over the primes dividing n*m.

    Per prime, the exponent pair is sorted ascending before the closed formula
    applies.  Ideals count as d(n) * d(m) (one per divisor pair); both counts
    and the probability are exact.
    """
    if n <= 0 or m <= 0:
        raise ValueError("moduli must be positive")
    exponents_n = dict(factorize(n))
    exponents_m = dict(factorize(m))
    ideals = divisor_count(n) * divisor_count(m)
    subgroups = 1
    probability = Fraction(1)
    for p in sorted(set(exponents_n) | set(exponents_m)):
        lo, hi = sorted((exponents_n.get(p, 0), exponents_m.get(p, 0)))
        local = prob_pp(p, lo, hi)
        subgroups *= local.subgroup_count
        probability *= local.probability
    report = ProbabilityReport(f"Z_{n} x Z_{m}", ideals, subgroups, Fraction(ideals, subgroups))
    if report.probability != probability:
        raise InvariantError(f"prob_nm({n}, {m}): count ratio differs from the prime-wise product")
    return report


def count_subspaces(p: int, r: int) -> int:
    """Number of subspaces of an r-dimensional vector space over F_p (all dimensions 0..r)."""
    require_prime(p)
    if r < 0:
        raise ValueError("dimension must be nonnegative")
    return sum(gaussian_binomial(r, i, p) for i in range(r + 1))


def prob_vector_space(p: int, r: int) -> ProbabilityReport:
    """Probability for the r-fold product of Z_p: 2^r ideals over the subspace count."""
    require_prime(p)
    if r < 1:
        raise ValueError("need at least one factor")
    subgroups = count_subspaces(p, r)
    return ProbabilityReport(f"Z_{p}^{r}", 2**r, subgroups, Fraction(2**r, subgroups))
