"""The paper's special criteria, kept as reproduced theorems that the tests
check against the lattice core and against materialized closures.

No production route calls them, and nothing in the package imports this
module.  Z x Z: the rank-1 and 2x2 determinant tests and the 2x2 witness.
Z_n x Z_m: the cyclic criterion and the kernel-lattice order formulas (the
kernel lattices and twogen_is_ideal stay in finite.py).  Z_{p^r} x Z_{p^s}:
Goursat 5-tuples, one per subgroup, with the maps both ways.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .exactarith import InvariantError, Record, additive_order, require_prime, valuation
from .finite import FiniteSubgroup, ProductRing, _closure_bits, _two_generators, kernel_lattice
from .lattice import IdealWitness, IntMatrix


def rank1_is_ideal(gen: Sequence[int]) -> bool:
    """A nonzero single-generator subgroup is an ideal iff only one coordinate is nonzero."""
    nonzero = sum(1 for x in gen if x)
    if nonzero == 0:
        raise ValueError("zero generator: the trivial subgroup is handled by the caller")
    return nonzero == 1


def is_ideal_2x2(a: int, b: int, c: int, d: int) -> bool:
    """Rank-2 test in Z x Z: the span of columns (a,b), (c,d) is an ideal iff
    ad - bc divides gcd(a, c) * gcd(b, d)."""
    det2 = a * d - b * c
    if det2 == 0:
        raise ValueError("singular input: route rank <= 1 cases through rank1_is_ideal")
    return (gcd(a, c) * gcd(b, d)) % det2 == 0


def witness_2x2(a: int, b: int, c: int, d: int) -> IdealWitness:
    """Explicit unimodular witness for an ideal span of (a,b), (c,d).

    Solves a*x12 + c*x22 = 0, b*x11 + d*x21 = 0, det(X) = 1 with the parameter
    choice alpha = -1, beta = gcd(a,c)*gcd(b,d)/(ad-bc); then A @ X is diagonal.
    """
    det2 = a * d - b * c
    if det2 == 0 or (gcd(a, c) * gcd(b, d)) % det2 != 0:
        raise ValueError("not an ideal: no unimodular witness exists")
    g_ac = gcd(a, c)
    g_bd = gcd(b, d)
    alpha = -1
    beta = (g_ac * g_bd) // det2
    x12 = (-c // g_ac) * alpha
    x22 = (a // g_ac) * alpha
    x11 = (-d // g_bd) * beta
    x21 = (b // g_bd) * beta
    x = IntMatrix.from_rows([[x11, x12], [x21, x22]])
    witness = IdealWitness((-g_ac, -det2 // g_ac), x, (0, 1))
    if not witness.holds_for(IntMatrix.from_rows([[a, c], [b, d]])):
        raise InvariantError(f"witness_2x2{(a, b, c, d)} does not diagonalize")
    return witness


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


def kernel_sum_order_mod_lcm(n: int, m: int, g1: Sequence[int], g2: Sequence[int]) -> int:
    """Order of the sum of the two kernels reduced into Z_l x Z_l, l = lcm(n, m).

    Finite counterpart of the lattice condition: the subgroup is an ideal
    exactly when this order is l^2 (the reduced sum is the whole group).
    """
    (a, b), (c, d) = _two_generators(n, m, g1, g2)
    l = lcm(n, m)
    square = ProductRing((l, l))
    gens = kernel_lattice(a, c, n).matrix.columns() + kernel_lattice(b, d, m).matrix.columns()
    return _closure_bits(square, gens).bit_count()


def subgroup_order_two_gen(n: int, m: int, g1: Sequence[int], g2: Sequence[int]) -> int:
    """Order of <(a, b), (c, d)> in Z_n x Z_m, without materializing it.

    The first projection has order n/gcd(a, c, n); the kernel of the first
    projection maps onto a subgroup of Z_m generated by the images of the
    kernel-lattice basis vectors.  The product of the two sizes is the order.
    """
    (a, b), (c, d) = _two_generators(n, m, g1, g2)
    size_a1 = n // gcd(a, c, n)
    k1 = kernel_lattice(a, c, n)
    images = [(b * vx + d * vy) % m for vx, vy in k1.matrix.columns()]
    size_b2 = m // gcd(m, *images)
    return size_a1 * size_b2


class GoursatTuple(Record):
    """Classifying datum of a subgroup of Z_{p^r} x Z_{p^s}.

    Subgroups of each cyclic factor form a chain, so the pairs are encoded by
    size exponents: |A1| = p^a1 with A1 = <p^(r-a1)>, and B1 inside A1 with
    |B1| = p^b1; same for (a2, b2) in the second factor.  The quotient
    isomorphism A1/B1 -> A2/B2 is the unit multiplier `unit` applied to the
    canonical generator cosets; both quotients have order p^(a1-b1).
    """

    __slots__ = ("p", "r", "s", "a1", "b1", "a2", "b2", "unit")

    def __init__(self, p: int, r: int, s: int, a1: int, b1: int, a2: int, b2: int, unit: int) -> None:
        require_prime(p)
        if r < 0 or s < 0:
            raise ValueError("exponents must be nonnegative")
        if not 0 <= b1 <= a1 <= r:
            raise ValueError("need 0 <= b1 <= a1 <= r")
        if not 0 <= b2 <= a2 <= s:
            raise ValueError("need 0 <= b2 <= a2 <= s")
        t = a1 - b1
        if t != a2 - b2:
            raise ValueError("quotients must have equal order")
        if t == 0:
            if unit != 1:
                raise ValueError("trivial quotient admits only the trivial map")
        elif not (1 <= unit < p**t and unit % p):
            raise ValueError("unit must be coprime to p and reduced mod p^(a1-b1)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "a2", a2)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "unit", unit)


def enumerate_goursat_tuples(p: int, r: int, s: int) -> list[GoursatTuple]:
    """All classifying tuples for Z_{p^r} x Z_{p^s}, pairwise distinct.

    For quotient order p^t there are (r-t+1)(s-t+1) placements and, for t >= 1,
    p^t - p^(t-1) unit choices; the list length therefore matches
    count_subgroups_sum(p, r, s).
    """
    require_prime(p)
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    out: list[GoursatTuple] = []
    for t in range(min(r, s) + 1):
        units = [1] if t == 0 else [u for u in range(1, p**t) if u % p]
        for a1 in range(t, r + 1):
            for a2 in range(t, s + 1):
                for u in units:
                    out.append(GoursatTuple(p, r, s, a1, a1 - t, a2, a2 - t, u))
    return out


def tuple_to_subgroup(t: GoursatTuple) -> FiniteSubgroup:
    """Materialize the subgroup classified by t inside Z_{p^r} x Z_{p^s}.

    Elements are the pairs (x, y) with x in A1, y in A2 and the quotient map
    matching x's coset to y's; the size is |A1| * |B2| exactly.
    """
    p = t.p
    n, m = p**t.r, p**t.s
    ring = ProductRing((n, m))
    gen1 = p ** (t.r - t.a1) % n
    gen2 = p ** (t.s - t.a2) % m
    step2 = p ** (t.s - t.b2) % m
    elements = frozenset(
        ((i * gen1) % n, (i * t.unit * gen2 + j * step2) % m)
        for i in range(p**t.a1)
        for j in range(p**t.b2)
    )
    if len(elements) != p ** (t.a1 + t.b2):
        raise InvariantError(f"{t} materializes {len(elements)} elements, not |A1|*|B2|")
    return FiniteSubgroup(ring, ((gen1, (t.unit * gen2) % m), (0, step2)), elements)


def tuple_from_subgroup(subgroup: FiniteSubgroup, p: int) -> GoursatTuple:
    """Recover the classifying tuple from a materialized subgroup of Z_{p^r} x Z_{p^s}."""
    require_prime(p)
    if subgroup.elements is None:
        raise ValueError("materialized subgroup required")
    if subgroup.ring.arity != 2:
        raise ValueError("classifying tuples exist for two factors only")
    n, m = subgroup.ring.moduli
    r, s = valuation(n, p) if n > 1 else 0, valuation(m, p) if m > 1 else 0
    if p**r != n or p**s != m:
        raise ValueError(f"moduli {subgroup.ring.moduli} are not powers of {p}")
    elems = subgroup.elements
    a1 = _size_exponent(len({x for x, _ in elems}), p)
    a2 = _size_exponent(len({y for _, y in elems}), p)
    b1 = _size_exponent(len({x for x, y in elems if y == 0}), p)
    b2 = _size_exponent(len({y for x, y in elems if x == 0}), p)
    t = a1 - b1
    if t == 0:
        unit = 1
    else:
        gen1 = p ** (r - a1)
        y0 = next(y for x, y in elems if x == gen1)
        unit = (y0 // p ** (s - a2)) % p**t
    return GoursatTuple(p, r, s, a1, b1, a2, b2, unit)


def _size_exponent(size: int, p: int) -> int:
    e = valuation(size, p) if size > 1 else 0
    if p**e != size:
        raise ValueError(f"{size} is not a power of {p}")
    return e
