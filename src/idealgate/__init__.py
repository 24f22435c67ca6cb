"""Exact ideal tests, subgroup censuses, and ideal probabilities for Z^d and finite product rings.

The paper's special criteria are theorems in idealgate.paper, not imported here.
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
    KernelLattice,
    ProductRing,
    closure,
    general_is_ideal,
    kernel_lattice,
    twogen_is_ideal,
)
from .census import (
    DEFAULT_CENSUS_CAP,
    SubgroupSet,
    census_ideal_count,
    count_ideals_pp,
    count_subgroups,
    count_subgroups_closed,
    count_subgroups_sum,
    enumerate_subgroups_bruteforce,
    is_ideal_bruteforce,
)
from .probability import (
    ProbabilityReport,
    count_subspaces,
    prob_nm,
    prob_pp,
    prob_vector_space,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CENSUS_CAP",
    "DEFAULT_MATERIALIZE_CAP",
    "EnumerationCapExceeded",
    "FiniteSubgroup",
    "IdealWitness",
    "IntMatrix",
    "InvariantError",
    "KernelLattice",
    "LatticeBasis",
    "ProbabilityReport",
    "ProductRing",
    "SubgroupSet",
    "ZdDecision",
    "additive_order",
    "adjugate",
    "canonical_basis",
    "census_ideal_count",
    "closure",
    "count_ideals_pp",
    "count_subgroups",
    "count_subgroups_closed",
    "count_subgroups_sum",
    "count_subspaces",
    "determinant",
    "enumerate_subgroups_bruteforce",
    "factorize",
    "fullrank_is_ideal",
    "gaussian_binomial",
    "general_is_ideal",
    "is_ideal_bruteforce",
    "is_ideal_zd",
    "is_prime",
    "kernel_lattice",
    "member",
    "prob_nm",
    "prob_pp",
    "prob_vector_space",
    "twogen_is_ideal",
    "xgcd",
]
