"""Subgroup census for finite product rings: the brute-force enumerator, the
ideal oracles, and the subgroup and ideal counting formulas of Z_{p^r} x Z_{p^s}
(exact integer division).  The paper's Goursat 5-tuple enumeration of those
subgroups is a theorem in paper.py; tests check it against this census.

The enumerator runs on the bitset engine of finite.py, the one closure()
uses.  It enumerates each primary component G_p of the ring once and
assembles the ring's subgroups as the direct sums of theirs: every subgroup
is the direct sum of its intersections with the G_p.  Inside G_p
every subgroup K != 0 has one first-axis parent P, its elements that are zero
up to and including K's first nonzero axis j, and K = <P, g> for one coset
g + P with g zero before axis j; the docstring of _primary_subgroups shows
that (P, g + P) determines K and that every such pair gives a subgroup, so
each subgroup is closed exactly once, from its parent, without any counting
formula.  The census keeps each subgroup as its bitset: its size and the
ideal tally read the bits, and the element sets are decoded only on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm

from .exactarith import InvariantError, factorize, require_prime
from .finite import (
    EnumerationCapExceeded,
    FiniteSubgroup,
    ProductRing,
    _members,
    _strides,
    _TranslationEngine,
)

# Max ring order for a brute-force census.  A census takes one closure per
# subgroup but the trivial one: inside a primary component G_p from its
# first-axis parent, found by scanning the parent's cosets in a G[e] mask
# (one mask per e), and then one per sum of nontrivial subgroups of two
# components; a closure is a few doubling steps, each a few shifts and masks
# of order-bit integers, so the cost follows the subgroup count more than the
# order.  Census and ideal tally leave the members as bitsets, so no element
# tuple is built.  On a shared 2-core x86-64 host: Z_96 x Z_96 (order 9216,
# 1062 subgroups, 2-part Z_32 x Z_32 and 3-part Z_3 x Z_3) takes about
# 0.02-0.03 s, Z_64 x Z_128 (494 subgroups) 0.01-0.02 s, Z_10000 0.003 s, and
# Z_2^6 (order 64, 2825 subgroups) 0.02 s.  Reading members then decodes
# them: 0.13 s more for Z_96 x Z_96, 0.02-0.03 s for Z_2^6.
DEFAULT_CENSUS_CAP = 10_000

# byte b -> b with its eight bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


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
    """Deduplicated, canonically ordered census of all subgroups of a ring.

    Each subgroup is kept as the engine's bitset (bit e is the e-th element of
    ring.elements()) next to its generator tuple; counting and the ideal tally
    read the bits, and members decodes them into FiniteSubgroups on first use.
    """

    ring: ProductRing
    bitsets: tuple[int, ...]
    generators: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.bitsets):
            raise ValueError("census needs one generator tuple per member")
        if len(set(self.bitsets)) != len(self.bitsets):
            raise ValueError("census members must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.bitsets)

    @cached_property
    def members(self) -> tuple[FiniteSubgroup, ...]:
        elements = list(self.ring.elements())
        return tuple(
            FiniteSubgroup(self.ring, gens, _members(bits, elements))
            for bits, gens in zip(self.bitsets, self.generators)
        )

    def element_sets(self) -> set[frozenset[tuple[int, ...]]]:
        return {m.elements for m in self.members}


def enumerate_subgroups_bruteforce(
    ring: ProductRing, max_order: int = DEFAULT_CENSUS_CAP
) -> SubgroupSet:
    """Every subgroup of the ring, each closed once on the bitset engine.

    Primary decomposition: a subgroup K of a finite abelian group G is the
    direct sum of its intersections K_p with the primary components
    G_p = G[p^a] (p^a the full power of p in exp G), and each K_p is a
    subgroup of G_p; conversely every choice of one subgroup per G_p sums to
    a subgroup whose p-parts are the chosen ones.  So the subgroups of G are
    the direct sums of the subgroups of its primary components, each sum
    once.  The census enumerates each G_p by the first-axis parents of
    _primary_subgroups and assembles the sums in _direct_sums; a ring whose
    order is a prime power is one part and needs no assembly.  Every member
    keeps at most arity generators: a part's subgroup has at most one per
    axis, and a sum's are the position-wise sums of its parts' (see
    _direct_sums).  Every member but the trivial one costs one extend.

    The result holds the bitsets, sorted by (order, sorted elements), and
    decodes them into FiniteSubgroups only when members is read; bit order is
    the lexicographic order of ring.elements(), so a member's bitset,
    mirrored, sorts like its sorted elements (in reverse).
    """
    if ring.order > max_order:
        raise EnumerationCapExceeded(
            f"ring order {ring.order} exceeds the census cap {max_order}"
        )
    eng = _TranslationEngine(ring)
    elements = list(ring.elements())  # bit e <-> elements[e]
    parts = [
        _primary_subgroups(eng, elements, p, p**a) for p, a in factorize(lcm(*ring.moduli))
    ]
    generators = parts[0] if parts else {1: ()}  # the trivial ring: bit 0 alone
    for part in parts[1:]:
        generators = _direct_sums(eng, generators, part)
    nbytes = (ring.order + 7) // 8

    def key(bits: int) -> tuple[int, int]:
        # bytes in reverse order, each byte mirrored: bit e moves to place
        # 8*nbytes-1-e.  For two sets of one size, the first bit e where they
        # differ is in the one with the smaller sorted element list
        # (elements[e] against a larger element), whose value is larger
        mirrored = bits.to_bytes(nbytes, "little").translate(_BIT_REVERSE)
        return bits.bit_count(), -int.from_bytes(mirrored, "big")

    bitsets = tuple(sorted(generators, key=key))
    return SubgroupSet(ring, bitsets, tuple(generators[bits] for bits in bitsets))


def _primary_subgroups(
    eng: _TranslationEngine, elements: list[tuple[int, ...]], p: int, q: int
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Every subgroup of the primary component G[q] = {x : q*x = 0}, q = p^a,
    as bitset -> generators, each subgroup after its first-axis parent.

    First-axis parents: for a subgroup K != 0 of G[q], let j be the first
    axis on which K has a nonzero coordinate, G_{>j} the elements whose
    coordinates up to and including axis j are zero, and P = K & G_{>j}, its
    parent.  The projection of K onto axis j is <d> for a d | n_j with
    0 < d < n_j and q*d = 0 mod n_j, so t = n_j/d is a power of p dividing
    gcd(q, n_j); K holds some g = (0, ..., 0, d, c) with c in G_{>j}, and:

    - K = <P, g>: an element of K with axis-j coordinate s*d, minus s*g,
      lies in K & G_{>j} = P;
    - c is unique modulo P, since two such g differ by an element of P;
    - t*c is in P, since t*g = (0, ..., 0, 0, t*c) lies in K & G_{>j};
    - conversely, for any subgroup P of G_{>j} & G[q], any such d and any
      c in G_{>j} with t*c in P, K = <P, g> meets G_{>j} in P (s*g + P
      leaves G_{>j} unless t | s, and then s*g is in P), projects onto <d>
      and has |K/P| = t.

    So the subgroups of G[q] are exactly the <P, g> over the triples
    (P, d, c + P), each found once and closed by one extend with its
    quotient order t known, without any counting formula.  t*c in P needs
    t*exp(P)*c = 0, so the scan for c runs over the cosets of P in
    G[t*exp(P)] & G_{>j}, one translate and one bit test per coset.  The
    axes go from last to first, so the P for axis j are the subgroups found
    before it, and a subgroup's generators are its parent's, then g: at
    most one per axis.
    """
    moduli, strides = eng.moduli, eng.strides
    scans: dict[int, int] = {}  # G[e] by e
    trivial = 1  # bit 0 == the zero element
    generators: dict[int, tuple[tuple[int, ...], ...]] = {trivial: ()}
    exponents = {trivial: 1}
    for j in reversed(range(len(moduli))):
        n, stride = moduli[j], strides[j]
        m = gcd(q, n)
        if m == 1:
            continue
        tail = list(zip(moduli, strides))[j + 1 :]
        low = (1 << stride) - 1  # G_{>j}
        for parent, parent_gens in list(generators.items()):
            exp_parent = exponents[parent]
            t = p
            while m % t == 0:
                e = t * exp_parent
                scan = scans.get(e)
                if scan is None:
                    scan = scans[e] = eng.torsion(e)
                free = scan & low
                d_index = n // t * stride
                while free:
                    c_index = (free & -free).bit_length() - 1
                    c = elements[c_index]
                    free &= ~eng.translate(parent, c)
                    tc_index = sum([t * x % n_i * s for x, (n_i, s) in zip(c[j + 1 :], tail)])
                    if parent >> tc_index & 1:
                        g = elements[d_index + c_index]
                        k_bits = eng.extend(parent, g, t)
                        generators[k_bits] = parent_gens + (g,)
                        # exp(K) = max(exp(P), |<g>|), all powers of p
                        exponents[k_bits] = max(
                            exp_parent, *[n_i // gcd(x, n_i) for x, n_i in zip(g, moduli)]
                        )
                t *= p
    return generators


def _direct_sums(
    eng: _TranslationEngine,
    left: dict[int, tuple[tuple[int, ...], ...]],
    right: dict[int, tuple[tuple[int, ...], ...]],
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Every A + B for A of left and B of right, subgroups of coprime orders,
    as bitset -> generators.

    right is a part from _primary_subgroups: each B = <H, g> comes after H and
    has H's generators followed by g, so A + B is A + H extended by g, with
    the quotient order |B|/|H| known; that is one extend per A != 0 and
    nontrivial B.  0 + B is B, already closed in its part, and keeps B's
    bits and generators.  The generators of A + B are the position-wise sums
    a_i + b_i, the shorter tuple padded with zeros: a_i and b_i have coprime
    orders, so <a_i + b_i> = <a_i> + <b_i>, and the sums generate A + B.
    """
    moduli = eng.moduli
    zero = (0,) * len(moduli)
    size = {gens: bits.bit_count() for bits, gens in right.items()}
    steps = [
        (gens, gens[:-1], gens[-1], size[gens] // size[gens[:-1]])
        for gens in right.values()
        if gens
    ]
    sums: dict[int, tuple[tuple[int, ...], ...]] = {}
    for a_bits, a_gens in left.items():
        if a_bits == 1:  # A = 0
            sums.update(right)
            continue
        over_a = {(): a_bits}  # A + B by the generators of B
        sums[a_bits] = a_gens
        for gens, parent, g, quotient in steps:
            over_a[gens] = bits = eng.extend(over_a[parent], g, quotient)
            sums[bits] = tuple(
                tuple((x + y) % n for x, y, n in zip(a, b, moduli))
                for a, b in zip_longest(a_gens, gens, fillvalue=zero)
            )
    return sums


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
    """Number of census members that pass the brute-force ideal oracle.

    The predicate of is_ideal_bruteforce, read off the bits: the projection of
    a generator g onto axis i is the element with index g_i * strides[i].
    """
    strides = _strides(census.ring.moduli)
    return sum(
        1
        for bits, gens in zip(census.bitsets, census.generators)
        if all(bits >> (x * s) & 1 for g in gens for x, s in zip(g, strides))
    )
