"""Subgroup census machinery for finite product rings.

Two independent routes to the same answer: a structured enumeration of
subgroups of Z_{p^r} x Z_{p^s} through 5-tuple data (subgroup pair, normal
subgroup pair, quotient isomorphism), and a brute-force enumerator that closes
every generator tuple up to the arity bound.  Counting formulas with exact
integer division sit alongside both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .exactarith import InvariantError, divisors, require_prime, valuation
from .finite import EnumerationCapExceeded, FiniteSubgroup, ProductRing

DEFAULT_CENSUS_CAP = 10_000  # max ring order for a brute-force census (order^2 <= 10^8)


@dataclass(frozen=True)
class GoursatTuple:
    """Classifying datum of a subgroup of Z_{p^r} x Z_{p^s}.

    Subgroups of each cyclic factor form a chain, so the pairs are encoded by
    size exponents: |A1| = p^a1 with A1 = <p^(r-a1)>, and B1 inside A1 with
    |B1| = p^b1; same for (a2, b2) in the second factor.  The quotient
    isomorphism A1/B1 -> A2/B2 is the unit multiplier `unit` applied to the
    canonical generator cosets; both quotients have order p^(a1-b1).
    """

    p: int
    r: int
    s: int
    a1: int
    b1: int
    a2: int
    b2: int
    unit: int

    def __post_init__(self) -> None:
        require_prime(self.p)
        if self.r < 0 or self.s < 0:
            raise ValueError("exponents must be nonnegative")
        if not 0 <= self.b1 <= self.a1 <= self.r:
            raise ValueError("need 0 <= b1 <= a1 <= r")
        if not 0 <= self.b2 <= self.a2 <= self.s:
            raise ValueError("need 0 <= b2 <= a2 <= s")
        t = self.a1 - self.b1
        if t != self.a2 - self.b2:
            raise ValueError("quotients must have equal order")
        if t == 0:
            if self.unit != 1:
                raise ValueError("trivial quotient admits only the trivial map")
        elif not (1 <= self.unit < self.p**t and self.unit % self.p):
            raise ValueError("unit must be coprime to p and reduced mod p^(a1-b1)")

    @property
    def quotient_exponent(self) -> int:
        return self.a1 - self.b1


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


def count_subgroups_closed(p: int, r: int, s: int) -> int:
    """Closed-form subgroup count of Z_{p^r} x Z_{p^s}; the division is exact."""
    require_prime(p)
    r, s = _sorted_exponents(r, s)
    num = p ** (r + 1) * ((s - r + 1) * (p - 1) + 2) - ((s + r + 3) * (p - 1) + 2)
    q, rem = divmod(num, (p - 1) ** 2)
    if rem:
        raise InvariantError(f"count_subgroups_closed({p}, {r}, {s}): inexact division")
    return q


def count_subgroups_sum(p: int, r: int, s: int) -> int:
    """Subgroup count as a sum over quotient orders; equals count_subgroups_closed."""
    require_prime(p)
    r, s = _sorted_exponents(r, s)
    total = (r + 1) * (s + 1)
    for k in range(1, r + 1):
        total += (r - k + 1) * (s - k + 1) * (p**k - p ** (k - 1))
    return total


def count_ideals_pp(r: int, s: int) -> int:
    """Number of ideals in Z_{p^r} x Z_{p^s}: one per divisor pair, (r+1)(s+1)."""
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    return (r + 1) * (s + 1)


def _sorted_exponents(r: int, s: int) -> tuple[int, int]:
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    return (r, s) if r <= s else (s, r)


@dataclass(frozen=True)
class SubgroupSet:
    """Deduplicated, canonically ordered census of all subgroups of a ring."""

    ring: ProductRing
    members: tuple[FiniteSubgroup, ...]

    def __post_init__(self) -> None:
        if len({m.elements for m in self.members}) != len(self.members):
            raise ValueError("census members must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.members)

    def element_sets(self) -> set[frozenset[tuple[int, ...]]]:
        return {m.elements for m in self.members}


class _TranslationEngine:
    """Subgroups of a product ring as N-bit integers, one bit per element.

    Bit e stands for the element with mixed-radix index e.  Translating a set
    by a ring element is a per-axis cyclic rotation of bit blocks, done with
    two shifts and two precomputed repeating masks per axis.
    """

    def __init__(self, ring: ProductRing) -> None:
        self.moduli = ring.moduli
        k = len(self.moduli)
        strides = [1] * k
        for i in range(k - 2, -1, -1):
            strides[i] = strides[i + 1] * self.moduli[i + 1]
        self.strides = strides
        self.size = ring.order
        self._rotations: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    def index(self, vec: tuple[int, ...]) -> int:
        return sum(v * s for v, s in zip(vec, self.strides))

    def unindex(self, e: int) -> tuple[int, ...]:
        out = []
        for s in self.strides:
            q, e = divmod(e, s)
            out.append(q)
        return tuple(out)

    def _rotation(self, axis: int, d: int) -> tuple[int, int, int, int]:
        key = (axis, d)
        cached = self._rotations.get(key)
        if cached is None:
            stride = self.strides[axis]
            period = self.moduli[axis] * stride
            shift = d * stride
            back = period - shift
            unit_lo = (1 << back) - 1
            unit_hi = (1 << shift) - 1
            m_lo = 0
            m_hi = 0
            for start in range(0, self.size, period):
                m_lo |= unit_lo << start
                m_hi |= unit_hi << start
            cached = (shift, back, m_lo, m_hi)
            self._rotations[key] = cached
        return cached

    def translate(self, bits: int, vec: tuple[int, ...]) -> int:
        for axis, v in enumerate(vec):
            if v:
                shift, back, m_lo, m_hi = self._rotation(axis, v)
                bits = ((bits & m_lo) << shift) | ((bits >> back) & m_hi)
        return bits


def _iter_bits(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _union_of_multiples(
    eng: "_TranslationEngine", ring: ProductRing, h_bits: int, g: tuple[int, ...], k: int
) -> int:
    """Union of the k cosets j*g + H for j = 0..k-1, in O(log k) translations.

    Processes the bits of k from the top: F(2c) = F(c) | (c*g + F(c)) and
    F(2c+1) = F(2c) | (2c*g + H).
    """
    result = h_bits
    count = 1
    for shift in range(k.bit_length() - 2, -1, -1):
        result |= eng.translate(result, ring.scale(count, g))
        count *= 2
        if (k >> shift) & 1:
            result |= eng.translate(h_bits, ring.scale(count, g))
            count += 1
    return result


def enumerate_subgroups_bruteforce(
    ring: ProductRing, max_order: int = DEFAULT_CENSUS_CAP
) -> SubgroupSet:
    """Every subgroup of the ring: closures of all generator tuples up to the arity bound.

    Layered construction: closing (g1..gj) equals extending the closure of
    (g1..g_{j-1}) by gj, and extending by g' in the coset g + H gives the same
    subgroup, so each subgroup is extended once, with one representative per
    coset.  The result set is exactly the set of all tuple closures.
    """
    if ring.order > max_order:
        raise EnumerationCapExceeded(
            f"ring order {ring.order} exceeds the census cap {max_order}"
        )
    eng = _TranslationEngine(ring)
    full = (1 << ring.order) - 1
    exponent_divs = divisors(lcm(*ring.moduli))
    trivial = 1  # bit 0 == the zero element
    info: dict[int, tuple[tuple[tuple[int, ...], ...], frozenset[int]]] = {
        trivial: ((), frozenset({0}))
    }
    frontier = [trivial]
    for _ in range(ring.arity):
        next_frontier: list[int] = []
        for h_bits in frontier:
            gens_h, idx_h = info[h_bits]
            free = full & ~h_bits
            while free:
                e = (free & -free).bit_length() - 1
                g = eng.unindex(e)
                order_g = ring.element_order(g)
                k = next(
                    d for d in exponent_divs
                    if order_g % d == 0 and eng.index(ring.scale(d, g)) in idx_h
                )
                new_bits = _union_of_multiples(eng, ring, h_bits, g, k)
                free &= ~eng.translate(h_bits, g)
                if new_bits not in info:
                    info[new_bits] = (gens_h + (g,), frozenset(_iter_bits(new_bits)))
                    next_frontier.append(new_bits)
        frontier = next_frontier
        if not frontier:
            break
    members = [
        FiniteSubgroup(ring, gens, frozenset(eng.unindex(e) for e in idxs))
        for gens, idxs in info.values()
    ]
    members.sort(key=lambda h: (len(h.elements), sorted(h.elements)))
    return SubgroupSet(ring, tuple(members))


def is_ideal_bruteforce(subgroup: FiniteSubgroup) -> bool:
    """Independent ideal oracle: every coordinate-idempotent multiple of every
    generator stays in the subgroup.

    Multiplication by an arbitrary ring element decomposes into integer
    multiples of idempotent products of generators, so checking generators
    against the idempotents is equivalent to full multiplicative closure.
    """
    if subgroup.elements is None:
        raise ValueError("materialized subgroup required")
    gens = subgroup.generators or tuple(subgroup.elements)
    ring = subgroup.ring
    return all(
        ring.project(g, i) in subgroup.elements
        for g in gens
        for i in range(ring.arity)
    )


def is_ideal_exhaustive(subgroup: FiniteSubgroup) -> bool:
    """Paranoid ideal oracle straight from the definition: r*h in H for every
    ring element r and every h in H.  Costs |ring| * |H|; use at desk scale."""
    if subgroup.elements is None:
        raise ValueError("materialized subgroup required")
    ring = subgroup.ring
    return all(
        ring.mul(r, h) in subgroup.elements
        for r in ring.elements()
        for h in subgroup.elements
    )


def census_ideal_count(census: SubgroupSet) -> int:
    """Number of census members that pass the brute-force ideal oracle."""
    return sum(1 for m in census.members if is_ideal_bruteforce(m))
