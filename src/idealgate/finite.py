"""Finite product rings Z_{n1} x ... x Z_{nk}: subgroups and exact ideal criteria.

Elements are tuples of residues, one per factor, always reduced into [0, n_i).

One lattice core decides every subgroup H = <g_1, ..., g_r>: its preimage in
Z^k is the full-rank lattice L = span(g_j) + n1*e1 + ... + nk*ek.  H is an
ideal exactly when L is (ideals of the quotient are the ideals containing the
kernel), i.e. when the canonical basis of L is diagonal, and |H| is the index
of n1*Z x ... x nk*Z in L, prod(n_i) / prod(pivots of L).  Neither needs the
elements, so verdicts and orders are exact at any ring size.

The paper's criteria (cyclic_is_ideal, twogen_is_ideal, kernel lattices,
subgroup_order_two_gen, kernel_sum_order_mod_lcm) stay as theorems that tests
check against this core and against the materialized closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from math import gcd, lcm, prod
from typing import Iterator, Sequence

from .exactarith import InvariantError, additive_order, xgcd
from .lattice import IntMatrix, LatticeBasis, canonical_basis, member

DEFAULT_MATERIALIZE_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    """A computation would materialize more ring elements than the configured cap."""


@dataclass(frozen=True)
class ProductRing:
    """The ring Z_{n1} x ... x Z_{nk} with componentwise operations."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(int(n) for n in self.moduli))
        if not self.moduli:
            raise ValueError("a product ring needs at least one factor")
        if any(n < 1 for n in self.moduli):
            raise ValueError(f"moduli must be >= 1, got {self.moduli}")

    @property
    def arity(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.arity

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.arity:
            raise ValueError(f"element length {len(vec)} != arity {self.arity}")
        return tuple(x % n for x, n in zip(vec, self.moduli))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.moduli))

    def neg(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple((-a) % n for a, n in zip(x, self.moduli))

    def scale(self, k: int, x: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * a) % n for a, n in zip(x, self.moduli))

    def mul(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return tuple((a * b) % n for a, b, n in zip(x, y, self.moduli))

    def project(self, x: Sequence[int], i: int) -> tuple[int, ...]:
        """Multiply by the i-th coordinate idempotent: keep coordinate i, zero the rest."""
        return tuple(a if t == i else 0 for t, a in enumerate(x))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return iter_product(*(range(n) for n in self.moduli))

    def element_order(self, x: Sequence[int]) -> int:
        return lcm(*(additive_order(a, n) for a, n in zip(x, self.moduli)))


@dataclass(frozen=True)
class FiniteSubgroup:
    """Subgroup of a product ring given by at most arity-many generators.

    elements, when present, is the full materialized element set; it must be
    the closure of the generators (constructors in this package guarantee it).
    """

    ring: ProductRing
    generators: tuple[tuple[int, ...], ...]
    elements: frozenset[tuple[int, ...]] | None = None

    def __post_init__(self) -> None:
        reduced = tuple(self.ring.reduce(g) for g in self.generators)
        object.__setattr__(self, "generators", reduced)
        if len(reduced) > self.ring.arity:
            raise ValueError(
                f"{len(reduced)} generators exceed the arity bound {self.ring.arity}"
            )
        if self.elements is not None:
            if self.ring.zero() not in self.elements:
                raise ValueError("materialized subgroup must contain zero")
            if self.ring.order % len(self.elements):
                raise ValueError("materialized size must divide the ring order")

    def materialize(self, cap: int = DEFAULT_MATERIALIZE_CAP) -> "FiniteSubgroup":
        if self.elements is not None:
            return self
        if self.ring.order > cap:
            raise EnumerationCapExceeded(
                f"ring order {self.ring.order} exceeds the enumeration cap {cap}"
            )
        return FiniteSubgroup(self.ring, self.generators, closure(self.ring, self.generators))

    def order(self) -> int:
        """Subgroup order: the element count when materialized, else the index
        of n1*Z x ... x nk*Z in the lifted lattice (exact at any ring size)."""
        if self.elements is not None:
            return len(self.elements)
        basis = _lifted_basis(self).matrix
        return self.ring.order // prod(basis.at(j, j) for j in range(basis.cols))


def _lifted_basis(subgroup: FiniteSubgroup) -> LatticeBasis:
    """Canonical basis of span(generators) + n1*e1 + ... + nk*ek in Z^k.

    The lattice has full rank, so the basis is lower triangular and square.
    """
    ring = subgroup.ring
    moduli_columns = IntMatrix.diagonal(ring.moduli).columns()
    return canonical_basis(
        IntMatrix.from_columns(list(subgroup.generators) + moduli_columns, rows=ring.arity)
    )


def closure(ring: ProductRing, generators: Sequence[Sequence[int]]) -> frozenset[tuple[int, ...]]:
    """Additive closure of the generators (contains zero, closed under + and -)."""
    elems: set[tuple[int, ...]] = {ring.zero()}
    for g in generators:
        g = ring.reduce(g)
        if g in elems:
            continue
        # least k >= 1 with k*g already in the current subgroup
        step = g
        k = 1
        while step not in elems:
            step = ring.add(step, g)
            k += 1
        total = set(elems)
        shift = ring.zero()
        for _ in range(k - 1):
            shift = ring.add(shift, g)
            total.update(ring.add(shift, e) for e in elems)
        elems = total
    return frozenset(elems)


def cyclic_is_ideal(gen: Sequence[int], ring: ProductRing) -> bool:
    """Single-generator criterion: the component additive orders are pairwise coprime.

    Zero coordinates have order 1 and are coprime to everything, which folds
    the one-sided trivial cases into the same formula.
    """
    orders = [additive_order(a, n) for a, n in zip(ring.reduce(gen), ring.moduli)]
    return all(
        gcd(orders[i], orders[j]) == 1
        for i in range(len(orders))
        for j in range(i + 1, len(orders))
    )


@dataclass(frozen=True)
class KernelLattice:
    """Full-rank sublattice {(x, y) in Z^2 : alpha*x + beta*y == 0 mod n}."""

    modulus: int
    basis: LatticeBasis

    def __post_init__(self) -> None:
        n = self.modulus
        if self.basis.ambient_dim != 2 or self.basis.rank != 2:
            raise ValueError("kernel lattice must have full rank in Z^2")
        if not (member((n, 0), self.basis) and member((0, n), self.basis)):
            raise ValueError("kernel lattice must contain n*Z^2")

    def index(self) -> int:
        """Index in Z^2 (product of the two pivots of the canonical basis)."""
        m = self.basis.matrix
        return m.at(0, 0) * m.at(1, 1)


@lru_cache(maxsize=None)
def kernel_lattice(alpha: int, beta: int, n: int) -> KernelLattice:
    """Canonical basis of the kernel of (x, y) -> alpha*x + beta*y mod n.

    Generators come from the extended gcd: the homogeneous solution of
    alpha*x + beta*y = 0 over Z plus a lift of n/gcd(alpha, beta, n) through a
    Bezout pair; together they span the whole kernel.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    a, b = alpha % n, beta % n
    if a == 0 and b == 0:
        cols: list[tuple[int, int]] = [(1, 0), (0, 1)]
    else:
        g_ab, x1, y1 = xgcd(a, b)
        g = gcd(g_ab, n)
        cols = [
            (b // g_ab, -(a // g_ab)),
            (x1 * (n // g), y1 * (n // g)),
            (n, 0),
            (0, n),
        ]
    basis = canonical_basis(IntMatrix.from_columns(cols, rows=2))
    lat = KernelLattice(n, basis)
    if lat.index() * gcd(a, b, n) != n or any(
        (a * vx + b * vy) % n for vx, vy in basis.matrix.columns()
    ):
        raise InvariantError(f"kernel_lattice({alpha}, {beta}, {n}) is not the exact kernel")
    return lat


def twogen_is_ideal(n: int, m: int, g1: Sequence[int], g2: Sequence[int]) -> bool:
    """Two-generator criterion in Z_n x Z_m via kernel lattices.

    With generators (a, b) and (c, d), the subgroup is an ideal exactly when
    the kernel of (x, y) -> a*x + c*y mod n and the kernel of
    (x, y) -> b*x + d*y mod m together span all of Z^2.
    """
    (a, b), (c, d) = _two_generators(n, m, g1, g2)
    k1 = kernel_lattice(a, c, n)
    k2 = kernel_lattice(b, d, m)
    total = canonical_basis(
        IntMatrix.from_columns(k1.basis.matrix.columns() + k2.basis.matrix.columns(), rows=2)
    )
    return total.matrix == IntMatrix.identity(2)


def kernel_sum_order_mod_lcm(n: int, m: int, g1: Sequence[int], g2: Sequence[int]) -> int:
    """Order of the sum of the two kernels reduced into Z_l x Z_l, l = lcm(n, m).

    Finite counterpart of the lattice condition: the subgroup is an ideal
    exactly when this order is l^2 (the reduced sum is the whole group).
    """
    (a, b), (c, d) = _two_generators(n, m, g1, g2)
    l = lcm(n, m)
    square = ProductRing((l, l))
    gens = (
        kernel_lattice(a, c, n).basis.matrix.columns()
        + kernel_lattice(b, d, m).basis.matrix.columns()
    )
    return len(closure(square, [square.reduce(v) for v in gens]))


def subgroup_order_two_gen(n: int, m: int, g1: Sequence[int], g2: Sequence[int]) -> int:
    """Order of <(a, b), (c, d)> in Z_n x Z_m, without materializing it.

    The first projection has order n/gcd(a, c, n); the kernel of the first
    projection maps onto a subgroup of Z_m generated by the images of the
    kernel-lattice basis vectors.  The product of the two sizes is the order.
    """
    (a, b), (c, d) = _two_generators(n, m, g1, g2)
    size_a1 = n // gcd(a, c, n)
    k1 = kernel_lattice(a, c, n)
    images = [(b * vx + d * vy) % m for vx, vy in k1.basis.matrix.columns()]
    size_b2 = m // gcd(m, *images)
    return size_a1 * size_b2


def _two_generators(
    n: int, m: int, g1: Sequence[int], g2: Sequence[int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    if n <= 0 or m <= 0:
        raise ValueError("moduli must be positive")
    if len(g1) != 2 or len(g2) != 2:
        raise ValueError("two-generator criteria require arity-2 elements")
    return (g1[0] % n, g1[1] % m), (g2[0] % n, g2[1] % m)


def general_is_ideal(subgroup: FiniteSubgroup) -> bool:
    """Ideal test for any arity and any ring size: the canonical basis of the
    lifted lattice span(generators) + n1*e1 + ... + nk*ek is diagonal."""
    return _lifted_basis(subgroup).matrix.is_diagonal()
