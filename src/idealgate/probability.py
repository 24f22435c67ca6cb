"""Exact probabilities that a randomly chosen subgroup of a finite ring is an ideal."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactarith import Record, require_prime
from .census import _counts, _sorted_exponents, count_subgroups


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


def prob(moduli: Sequence[int]) -> ProbabilityReport:
    """Probability for Z_{n_1} x ... x Z_{n_k}: count_ideals over count_subgroups,
    both read off one factorization of each n_i, exact up to the one Fraction."""
    _require_moduli(moduli)
    subgroups, ideals = _counts(moduli)
    ring = " x ".join(f"Z_{n}" for n in moduli)
    return ProbabilityReport(ring, ideals, subgroups, Fraction(ideals, subgroups))


def _require_moduli(moduli: Sequence[int]) -> None:
    if min(moduli, default=0) < 1:  # no moduli at all is refused too
        raise ValueError("moduli must be positive")


# The wrappers below stay only because perfbench/ reads them.
def prob_pp(p: int, r: int, s: int) -> ProbabilityReport:
    """Probability for Z_{p^r} x Z_{p^s}, named with the smaller exponent first."""
    require_prime(p)
    return prob([p**e for e in _sorted_exponents(r, s)])


def prob_nm(n: int, m: int) -> ProbabilityReport:
    """Probability for Z_n x Z_m."""
    return prob((n, m))


def count_subspaces(p: int, r: int) -> int:
    """Number of subspaces of an r-dimensional vector space over F_p (all dimensions 0..r)."""
    require_prime(p)
    if r < 0:
        raise ValueError("dimension must be nonnegative")
    return count_subgroups((p,) * r)


def prob_vector_space(p: int, r: int) -> ProbabilityReport:
    """Probability for the r-fold product of Z_p, named Z_p^r: 2^r ideals over the subspace count."""
    if r < 1:
        raise ValueError("need at least one factor")
    require_prime(p)
    report = prob((p,) * r)
    return ProbabilityReport(f"Z_{p}^{r}", report.ideal_count, report.subgroup_count, report.probability)
