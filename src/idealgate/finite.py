"""Finite product rings Z_{n1} x ... x Z_{nk}: subgroups, their orders and ideal verdicts.

Elements are tuples of residues, one per factor, always reduced into [0, n_i).

One lattice core decides every subgroup H = <g_1, ..., g_r>: its preimage in
Z^k is the full-rank lattice L = span(g_j) + n1*e1 + ... + nk*ek.  H is an
ideal exactly when L is (ideals of the quotient are the ideals containing the
kernel), i.e. when the canonical basis of L is diagonal, and |H| is the index
of n1*Z x ... x nk*Z in L, prod(n_i) / prod(pivots of L).  Neither needs the
elements, so verdicts and orders are exact at any ring size.  The columns
n_i*e_i are already an echelon basis of a sublattice of L, so they seed the
echelon form, only the generators are inserted, and the result is reduced
into the canonical basis (lattice._echelon_basis, which canonical_basis runs
from an empty start).

Apart from that core, the CLI's --verify (_closure_bits) and the census in
census.py close subgroups on one bitset engine, _TranslationEngine.

The paper's criteria for Z_n x Z_m are theorems in paper.py.  The kernel
lattices and twogen_is_ideal stay here only because the benchmark in
perfbench/ reads them from this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product as iter_product
from math import gcd, lcm, prod
from operator import mod
from typing import Iterable, Iterator, Sequence

from .exactarith import InvariantError, Record, additive_order, xgcd
from .lattice import IntMatrix, LatticeBasis, _echelon_basis, canonical_basis

# Max ring order to close, for --verify on ideal zn and order and for
# materialize.  At the cap on a shared 2-core x86-64 host, --verify closes all
# of Z_1000 x Z_1000 or Z_999983 on bits in about 0.1 s and 18-21 MiB per
# process; materialize builds their element tuples in 0.6-0.7 s (115-136 MiB).
DEFAULT_MATERIALIZE_CAP = 10**6


class EnumerationCapExceeded(RuntimeError):
    """A computation would materialize more ring elements than the configured cap."""


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    # integral values (4.0, True) become ints; anything else is refused
    given = tuple(values)
    try:
        ints = tuple(map(int, given))
    except (OverflowError, ValueError):  # inf, nan, "4.5"
        ints = None
    if ints != given:
        raise ValueError(f"{what} must be integers, got {given}")
    return ints


class ProductRing(Record):
    """The ring Z_{n1} x ... x Z_{nk} with componentwise operations."""

    __slots__ = ("moduli",)

    def __init__(self, moduli: Sequence[int]) -> None:
        moduli = _integers(moduli, "moduli")
        if not moduli:
            raise ValueError("a product ring needs at least one factor")
        if any(n < 1 for n in moduli):
            raise ValueError(f"moduli must be >= 1, got {moduli}")
        object.__setattr__(self, "moduli", moduli)

    @property
    def arity(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.arity

    # Only reduce is on a production route, and project and mul serve the oracles;
    # all seven methods stay because perfbench's tracer counts them via vars(ProductRing).
    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.arity:
            raise ValueError(f"element length {len(vec)} != arity {self.arity}")
        return tuple(map(mod, _integers(vec, "element entries"), self.moduli))

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


class FiniteSubgroup(Record):
    """Subgroup of a product ring given by any number of generators.

    elements, when present, is the full materialized element set; it must be
    the closure of the generators (constructors in this package guarantee it).
    """

    __slots__ = ("ring", "generators", "elements")

    def __init__(
        self,
        ring: ProductRing,
        generators: Sequence[Sequence[int]],
        elements: frozenset[tuple[int, ...]] | None = None,
    ) -> None:
        reduced = tuple(ring.reduce(g) for g in generators)
        if elements is not None:
            if ring.zero() not in elements:
                raise ValueError("materialized subgroup must contain zero")
            if ring.order % len(elements):
                raise ValueError("materialized size must divide the ring order")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", reduced)
        object.__setattr__(self, "elements", elements)

    # The tuple reference: only perfbench and the tests call it.
    def materialize(self, cap: int = DEFAULT_MATERIALIZE_CAP) -> "FiniteSubgroup":
        if self.elements is not None:
            return self
        return FiniteSubgroup(self.ring, self.generators, closure(self.ring, self.generators, cap))

    def order(self) -> int:
        """Subgroup order: the index of n1*Z x ... x nk*Z in the lifted lattice
        (exact at any ring size)."""
        basis = _lifted_basis(self).matrix
        return self.ring.order // prod(basis.entries[:: basis.cols + 1])


def _lifted_basis(subgroup: FiniteSubgroup) -> LatticeBasis:
    """Canonical basis of span(generators) + n1*e1 + ... + nk*ek in Z^k.

    The columns n_i*e_i are already an echelon basis with pivot row i, so
    they seed the echelon form and only the generators are inserted.  The
    lattice has full rank, so the basis is lower triangular and square.
    """
    moduli = subgroup.ring.moduli
    k = len(moduli)
    seed = [[0] * k for _ in moduli]
    for i, n in enumerate(moduli):
        seed[i][i] = n
    return _echelon_basis(seed, list(range(k)), subgroup.generators, k)


# bytes.translate table: the characters '0'/'1' of bin() to flags for
# itertools.compress
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _members(bits: int, elements: Iterable[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """The elements whose bits are set: bit e stands for the e-th of elements."""
    return frozenset(compress(elements, bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)))


def _strides(moduli: Sequence[int]) -> list[int]:
    """Mixed-radix strides: x is the (sum(x_i * strides[i]))-th of ring.elements()."""
    strides = [1] * len(moduli)
    for i in range(len(moduli) - 2, -1, -1):
        strides[i] = strides[i + 1] * moduli[i + 1]
    return strides


def _repunit(period: int, full: int) -> int:
    """full // ((1 << period) - 1), built by doubling shifts, not a long division."""
    bits = 1
    while period < full.bit_length():
        bits |= bits << period
        period += period
    return bits & full


class _TranslationEngine:
    """Subgroups of a product ring as N-bit integers, one bit per element.

    Bit e stands for the e-th element of ring.elements(), i.e. the element with
    mixed-radix index e = sum(x_i * strides[i]).  Translating a set by a ring
    element is a per-axis cyclic rotation of bit blocks, done with two shifts
    and two repeating masks per axis.  The masks are built on first use, one
    table per axis keyed by residue: Z_10000 would need about 25 MB of them
    up front.
    """

    def __init__(self, ring: ProductRing) -> None:
        self.moduli = ring.moduli
        self.strides = strides = _strides(self.moduli)
        self.full = full = (1 << ring.order) - 1
        # bit `start` set for every block start of the axis: a mask repeated
        # over all blocks is one multiplication by it
        self._repunits = [_repunit(n * s, full) for n, s in zip(self.moduli, strides)]
        self._rotations: list[dict[int, tuple[int, int, int, int]]] = [{} for _ in self.moduli]

    def _rotation(self, axis: int, d: int) -> tuple[int, int, int, int]:
        stride = self.strides[axis]
        shift = d * stride
        back = self.moduli[axis] * stride - shift
        repunit = self._repunits[axis]
        rotation = (shift, back, ((1 << back) - 1) * repunit, ((1 << shift) - 1) * repunit)
        self._rotations[axis][d] = rotation
        return rotation

    def translate(self, bits: int, vec: tuple[int, ...]) -> int:
        for axis, v in enumerate(vec):
            if v:
                rotation = self._rotations[axis].get(v) or self._rotation(axis, v)
                shift, back, m_lo, m_hi = rotation
                bits = ((bits & m_lo) << shift) | ((bits >> back) & m_hi)
        return bits

    def torsion(self, e: int) -> int:
        """G[e] = {x : e*x = 0}: the elements whose every coordinate x_i is a
        multiple of n_i / gcd(e, n_i).

        On an axis with stride s and step t = n_i / gcd(e, n_i) that keeps the
        first s-bit block of every t*s bits, which is one block times the
        repunit of period t*s over the whole ring.
        """
        full = self.full
        bits = full
        for n, stride in zip(self.moduli, self.strides):
            period = n // gcd(e, n) * stride
            if period > stride:
                bits &= ((1 << stride) - 1) * _repunit(period, full)
        return bits

    def extend(self, h_bits: int, g: tuple[int, ...], quotient: int = 0, c: int = 1) -> int:
        """The subgroup <H, g>, closed by doubling.

        S_1 = H and S_2c = S_c | (c*g + S_c), the union of the cosets i*g + H
        for i < 2c.  While c < |<H, g>/H| the coset c*g + H is new, so S_2c
        grows; once S_2c == S_c, S_c is all of <H, g>.  closure() extends {0}
        by each generator.  Given S_c (c a power of two) as h_bits, with c, it
        goes on from there; the census passes S_2, from its coset scan, and the
        quotient order q = |<H, g>/H| of every subgroup it closes, and the
        doubling stops after the ceil(log2(q)) steps that reach it, without the
        step that only confirms it.  The translation by c*g is translate() inlined.
        """
        # counts down to 0 when the quotient order is known, never reaches it otherwise
        steps_left = (quotient - 1).bit_length() - c.bit_length() + 1 if quotient else -1
        if not steps_left:
            return h_bits
        tables = self._rotations
        axes = [(axis, x, n, tables[axis]) for axis, (x, n) in enumerate(zip(g, self.moduli)) if x]
        bits = h_bits
        while steps_left:
            moved = bits
            for axis, x, n, table in axes:
                v = c * x % n
                if v:
                    rotation = table.get(v) or self._rotation(axis, v)
                    shift, back, m_lo, m_hi = rotation
                    moved = ((moved & m_lo) << shift) | ((moved >> back) & m_hi)
            grown = bits | moved
            if grown == bits:
                return bits
            bits = grown
            c += c
            steps_left -= 1
        return bits


def _closure_bits(ring: ProductRing, generators: Sequence[Sequence[int]], cap: int | None = None) -> int:
    """Additive closure of the generators as the engine's bitset: bit 0, the
    zero element, extended by each generator.  The cap bounds the ring order,
    for materialize and the CLI's --verify alike."""
    if cap is not None and ring.order > cap:
        raise EnumerationCapExceeded(f"ring order {ring.order} exceeds the enumeration cap {cap}")
    engine = _TranslationEngine(ring)
    bits = 1
    for g in generators:
        bits = engine.extend(bits, ring.reduce(g))
    return bits


# The tuple reference: only perfbench and the tests call it.
def closure(
    ring: ProductRing, generators: Sequence[Sequence[int]], cap: int | None = None
) -> frozenset[tuple[int, ...]]:
    """Additive closure of the generators (contains zero, closed under + and -),
    decoded from _closure_bits."""
    return _members(_closure_bits(ring, generators, cap), ring.elements())


# Kernel lattices for the paper's Z_n x Z_m criteria.  They stay here, not in
# paper.py: perfbench calls cache_clear/cache_info on finite.kernel_lattice,
# so it stays an lru_cache in this module, with _two_generators beside it
# (paper.py imports both).
@lru_cache(maxsize=None)
def kernel_lattice(alpha: int, beta: int, n: int) -> LatticeBasis:
    """Canonical basis of the kernel of (x, y) -> alpha*x + beta*y mod n.

    Generators come from the extended gcd: the homogeneous solution of
    alpha*x + beta*y = 0 over Z plus a lift of n/gcd(alpha, beta, n) through a
    Bezout pair; together they span the whole kernel.  They include (n, 0)
    and (0, n), or are the identity when alpha = beta = 0 mod n, so the
    kernel has full rank and contains n*Z^2.
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
    m = basis.matrix
    # the index in Z^2 is the product of the two pivots
    if m.at(0, 0) * m.at(1, 1) * gcd(a, b, n) != n or any(
        (a * vx + b * vy) % n for vx, vy in m.columns()
    ):
        raise InvariantError(f"kernel_lattice({alpha}, {beta}, {n}) is not the exact kernel")
    return basis


# Not a production route: perfbench's decide workload reads it from here as
# its ideal oracle above ring order 10^4.
def twogen_is_ideal(n: int, m: int, g1: Sequence[int], g2: Sequence[int]) -> bool:
    """Two-generator criterion in Z_n x Z_m via kernel lattices.

    With generators (a, b) and (c, d), the subgroup is an ideal exactly when
    the kernel of (x, y) -> a*x + c*y mod n and the kernel of
    (x, y) -> b*x + d*y mod m together span all of Z^2.
    """
    (a, b), (c, d) = _two_generators(n, m, g1, g2)
    k1 = kernel_lattice(a, c, n)
    k2 = kernel_lattice(b, d, m)
    total = canonical_basis(IntMatrix.from_columns(k1.matrix.columns() + k2.matrix.columns(), rows=2))
    return total.matrix == IntMatrix.identity(2)


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
