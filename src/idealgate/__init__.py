"""Exact ideal tests, subgroup censuses, and ideal probabilities for Z^d and finite product rings.

The paper's special criteria are theorems in idealgate.paper, not imported here.
The references that only the benchmark and the tests call (closure,
is_ideal_bruteforce, kernel_lattice, twogen_is_ideal, and the wrappers of
count_subgroups, count_ideals and prob) are imported from their modules.
"""

from .exactarith import (
    InvariantError,
    additive_order,
    factorize,
    gaussian_binomial,
    is_prime,
    xgcd,
)
from .lattice import (
    IdealWitness,
    IntMatrix,
    LatticeBasis,
    ZdDecision,
    adjugate,
    canonical_basis,
    determinant,
    fullrank_is_ideal,
    is_ideal_zd,
    member,
)
from .finite import (
    DEFAULT_MATERIALIZE_CAP,
    EnumerationCapExceeded,
    FiniteSubgroup,
    ProductRing,
    general_is_ideal,
)
from .census import (
    DEFAULT_CENSUS_CAP,
    SubgroupSet,
    census_ideal_count,
    count_ideals,
    count_subgroups,
    count_subgroups_sum,
    enumerate_subgroups_bruteforce,
)
from .probability import ProbabilityReport, prob

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CENSUS_CAP",
    "DEFAULT_MATERIALIZE_CAP",
    "EnumerationCapExceeded",
    "FiniteSubgroup",
    "IdealWitness",
    "IntMatrix",
    "InvariantError",
    "LatticeBasis",
    "ProbabilityReport",
    "ProductRing",
    "SubgroupSet",
    "ZdDecision",
    "additive_order",
    "adjugate",
    "canonical_basis",
    "census_ideal_count",
    "count_ideals",
    "count_subgroups",
    "count_subgroups_sum",
    "determinant",
    "enumerate_subgroups_bruteforce",
    "factorize",
    "fullrank_is_ideal",
    "gaussian_binomial",
    "general_is_ideal",
    "is_ideal_zd",
    "is_prime",
    "member",
    "prob",
    "xgcd",
]
