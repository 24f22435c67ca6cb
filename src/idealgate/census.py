"""Subgroup census for finite product rings: the brute-force enumerator, the
ideal oracle, the one counting core (count_subgroups and count_ideals) and
count_subgroups_sum, the independent count of Z_{p^r} x Z_{p^s}.  The paper's
Goursat 5-tuple enumeration of those subgroups is a theorem in paper.py;
tests check it against this census.

The enumerator runs on the bitset engine of finite.py, the one the CLI's
--verify uses.  One loop over the axes of the whole ring finds every subgroup
K != 0 from its first-axis parent P, its elements that are zero up to and
including K's first nonzero axis: K = <P, g> for one coset g + P, and the
docstring of enumerate_subgroups_bruteforce shows that (P, g + P) determines
K and that every such pair gives a subgroup, so each subgroup is closed
exactly once, without any counting formula.  Before it starts, the census
checks the ring's exact subgroup count (count_subgroups) against its bound.
It keeps each subgroup as its bitset: its size and the ideal tally read the
bits (_is_ideal_bits, shared with --verify), and the element sets are decoded
only on first use.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm, prod
from typing import Sequence

from .exactarith import InvariantError, Record, _gaussian_binomial, factorize, require_prime
from .finite import (
    EnumerationCapExceeded,
    FiniteSubgroup,
    ProductRing,
    _members,
    _strides,
    _TranslationEngine,
)

# Max ring order for a brute-force census.  A census takes one closure per
# subgroup but the trivial one, from its first-axis parent, found by scanning
# the parent's cosets in a G[e] mask (one mask per e); a closure starts from
# the first doubling step, which the scan already holds, and takes a few more,
# each a few shifts and masks of order-bit integers, so the cost follows the
# subgroup count more than the order.  On a shared 2-core x86-64 host (min of
# 5): Z_96 x Z_96 (order 9216, 1062 subgroups) takes 10.5 ms, Z_64 x Z_128
# (494 subgroups) 4.8 ms, Z_10000 1.5 ms and Z_2^6 (order 64, 2825 subgroups)
# 7.7 ms.  Census and ideal tally leave the members as bitsets.  The census's
# one element list (bit index -> element, for the scanned cosets) stays: it
# costs 0.03 of 1.3 ms on Z_32 x Z_64 and 0.4 of 10.5 ms on Z_96 x Z_96, while
# decoding each index through the strides made the benchmark's 18 census
# rings 10-30% slower.  Reading members decodes every member: 0.13 s more
# for Z_96 x Z_96, 0.02-0.03 s for Z_2^6.
DEFAULT_CENSUS_CAP = 10_000

# Max subgroup count of a census, fixed: its time and memory follow the
# subgroup count (one extend and one bitset each), which the ring-order cap
# does not bound.  On a shared 2-core x86-64 host, `prob --p 2 --dim 8
# --verify` (Z_2^8, 417,199 subgroups) takes 2.3 s and 131 MiB per process;
# Z_2^9 (8,283,458) went past 3 GiB.  Only enumerate_subgroups_bruteforce
# checks it, after the ring-order cap: it compares count_subgroups against it
# before a census starts, and stops once its running count passes it.
CENSUS_SUBGROUP_BOUND = 500_000


# count_subgroups_closed and count_ideals_pp stay only because perfbench/ reads them.
def count_subgroups_closed(p: int, r: int, s: int) -> int:
    """Subgroup count of Z_{p^r} x Z_{p^s}, for a prime p."""
    require_prime(p)
    return count_subgroups([p**e for e in _sorted_exponents(r, s)])


def count_subgroups_sum(p: int, r: int, s: int) -> int:
    """Subgroup count of Z_{p^r} x Z_{p^s} as a sum over quotient orders; equals count_subgroups."""
    require_prime(p)
    r, s = _sorted_exponents(r, s)
    total = (r + 1) * (s + 1)
    for k in range(1, r + 1):
        total += (r - k + 1) * (s - k + 1) * (p**k - p ** (k - 1))
    return total


def count_ideals_pp(r: int, s: int) -> int:
    """Number of ideals in Z_{p^r} x Z_{p^s}: one per divisor pair, (r+1)(s+1)."""
    return _p_ideal_count(_sorted_exponents(r, s))


def _sorted_exponents(r: int, s: int) -> tuple[int, int]:
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    return (r, s) if r <= s else (s, r)


class SubgroupSet(Record):
    """Deduplicated, canonically ordered census of all subgroups of a ring.

    Each subgroup is kept as the engine's bitset (bit e is the e-th element of
    ring.elements()) next to its generator tuple; counting and the ideal tally
    read the bits, and members decodes them into FiniteSubgroups on first use.
    """

    # __dict__ holds the cached members
    __slots__ = ("ring", "bitsets", "generators", "__dict__")

    def __init__(
        self,
        ring: ProductRing,
        bitsets: tuple[int, ...],
        generators: tuple[tuple[tuple[int, ...], ...], ...],
    ) -> None:
        if len(generators) != len(bitsets):
            raise ValueError("census needs one generator tuple per member")
        if len(set(bitsets)) != len(bitsets):
            raise ValueError("census members must be pairwise distinct")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bitsets", bitsets)
        object.__setattr__(self, "generators", generators)

    def __len__(self) -> int:
        return len(self.bitsets)

    # The tuple reference: only perfbench and the tests read it.
    @cached_property
    def members(self) -> tuple[FiniteSubgroup, ...]:
        elements = list(self.ring.elements())
        return tuple(
            FiniteSubgroup(self.ring, gens, _members(bits, elements))
            for bits, gens in zip(self.bitsets, self.generators)
        )


def enumerate_subgroups_bruteforce(
    ring: ProductRing, max_order: int = DEFAULT_CENSUS_CAP
) -> SubgroupSet:
    """Every subgroup of the ring G, each closed once on the bitset engine.

    Before it closes anything, the census checks the ring's exact subgroup
    count (count_subgroups) against CENSUS_SUBGROUP_BOUND and raises
    EnumerationCapExceeded, naming that count, when it is over; a running
    count that passes the bound stops it too.

    First-axis parents: for a subgroup K != 0 of G, let j be the first axis
    on which K has a nonzero coordinate, G_{>j} the elements whose
    coordinates up to and including axis j are zero, and P = K & G_{>j}, its
    parent.  The projection of K onto axis j is <d> for a divisor d of n_j
    with d < n_j, so t = n_j/d > 1 divides n_j; K holds some
    g = (0, ..., 0, d, c) with c in G_{>j}, and:

    - K = <P, g>: an element of K with axis-j coordinate s*d, minus s*g,
      lies in K & G_{>j} = P;
    - c is unique modulo P, since two such g differ by an element of P;
    - t*c is in P, since t*g = (0, ..., 0, 0, t*c) lies in K & G_{>j};
    - conversely, for any subgroup P of G_{>j}, any divisor t > 1 of n_j,
      d = n_j/t and any c in G_{>j} with t*c in P, K = <P, g> meets G_{>j}
      in P (s*g + P leaves G_{>j} unless t | s, and then s*g is in P),
      projects onto <d> and has |K/P| = t.

    So the subgroups of G are exactly the <P, g> over the triples
    (P, d, c + P), each found once and closed by one extend with its
    quotient order t known, without any counting formula.  The scan for c
    needs only the primes of t: for a prime q that does not divide t, the
    q-part of t*c is t times the q-part of c and lies in P, and t is
    invertible on q-parts, so c's q-part lies in P and c + P has a
    representative c' with no q-part.  t*c' in P then gives e*c' = 0 for e = t
    times the part of exp(P) at the primes of t, so the scan runs over the
    cosets of P in G[e] & G_{>j}, one translate and one bit test per coset.
    The bit test is skipped when G_{>j} is cyclic: P is then G_{>j}[|P|], so
    e | t*|P| and e*c = 0 give |P|*(t*c) = 0.  P + g is the scan's P + c
    moved to axis-j coordinate d, so extend starts from S_2 = P | (P + g).
    The axes go from last to first, so the P for axis j are the subgroups
    found before it, and a subgroup's generators are its parent's, then g:
    at most one per axis.  exp(<P, g>) is lcm(exp(P), |<g>|), computed only
    for axes j >= 1: a subgroup found at the first axis is no parent.

    The result holds the bitsets, sorted by (order, bitset value), and
    decodes them into FiniteSubgroups only when members is read.
    """
    _require_census_cap(ring.moduli, max_order)
    count = count_subgroups(ring.moduli)
    if count > CENSUS_SUBGROUP_BOUND:
        raise _over_bound(count)
    eng = _TranslationEngine(ring)
    elements = list(ring.elements())  # bit e <-> elements[e]
    moduli, strides = eng.moduli, eng.strides
    bound = CENSUS_SUBGROUP_BOUND
    scans: dict[int, int] = {}  # G[e] by e
    trivial = 1  # bit 0 == the zero element
    generators: dict[int, tuple[tuple[int, ...], ...]] = {trivial: ()}
    exponents = {trivial: 1}
    for j in reversed(range(len(moduli))):
        n, stride = moduli[j], strides[j]
        divisors = [t for t in range(2, n + 1) if n % t == 0]
        tail = list(zip(moduli, strides))[j + 1 :]
        low = (1 << stride) - 1  # G_{>j}
        cyclic = lcm(*moduli[j + 1 :]) == prod(moduli[j + 1 :])  # G_{>j}: no t*c test
        for parent, parent_gens in list(generators.items()):
            exp_parent = exponents[parent]
            for t in divisors:
                # the part of exp(P) at the primes of t: t**k, k = exp(P).bit_length(),
                # holds each prime of t to a higher power than exp(P) does
                e = t * gcd(exp_parent, t ** exp_parent.bit_length())
                scan = scans.get(e)
                if scan is None:
                    scan = scans[e] = eng.torsion(e)
                free = scan & low
                d_index = n // t * stride
                while free:
                    c_index = (free & -free).bit_length() - 1
                    c = elements[c_index]
                    moved = eng.translate(parent, c)  # P + c, in G_{>j}
                    free &= ~moved
                    if not cyclic:
                        tc_index = sum([t * x % n_i * s for x, (n_i, s) in zip(c[j + 1 :], tail)])
                        if not parent >> tc_index & 1:
                            continue
                    g = elements[d_index + c_index]
                    k_bits = eng.extend(parent | moved << d_index, g, t, 2)
                    generators[k_bits] = parent_gens + (g,)
                    if len(generators) > bound:
                        raise _over_bound(len(generators))
                    if j:
                        exponents[k_bits] = lcm(exp_parent, *[n_i // gcd(x, n_i) for x, n_i in zip(g, moduli)])
    bitsets = tuple(sorted(sorted(generators), key=int.bit_count))  # stable: by (order, value)
    return SubgroupSet(ring, bitsets, tuple(generators[bits] for bits in bitsets))


def _require_census_cap(moduli: Sequence[int], max_order: int) -> None:
    if prod(moduli) > max_order:  # the census's first check; the CLI's too, before it counts
        raise EnumerationCapExceeded(f"ring order {prod(moduli)} exceeds the census cap {max_order}")


def _over_bound(count: int) -> EnumerationCapExceeded:
    return EnumerationCapExceeded(
        f"the census counts at least {count} subgroups, over the bound of "
        f"{CENSUS_SUBGROUP_BOUND} subgroups per census"
    )


def count_subgroups(moduli: Sequence[int]) -> int:
    """Exact subgroup count of Z_{n_1} x ... x Z_{n_k} (see _counts)."""
    return _counts(moduli)[0]


def count_ideals(moduli: Sequence[int]) -> int:
    """Exact ideal count of Z_{n_1} x ... x Z_{n_k}: d(n_1) ... d(n_k), since the ideals
    of a product ring are products of ideals of its factors, the dZ_n of each Z_n."""
    return _counts(moduli)[1]


def _counts(moduli: Sequence[int]) -> tuple[int, int]:
    """(subgroups, ideals) of Z_{n_1} x ... x Z_{n_k} from one factorization of each
    n_i: products over the primes p of the counts of the p-part, whose type is the
    exponents of p in the n_i.  The ideal count read per modulus, d(n_1) ... d(n_k),
    must equal the prime-wise one: an InvariantError, so it is checked under -O."""
    types: dict[int, list[int]] = {}
    ideals = 1
    for n in moduli:
        factors = factorize(n)
        ideals *= prod(a + 1 for _, a in factors)  # d(n)
        for p, a in factors:
            types.setdefault(p, []).append(a)
    if ideals != prod(_p_ideal_count(lam) for lam in types.values()):
        raise InvariantError(f"ideal count of {tuple(moduli)} differs from the prime-wise product")
    return prod(_p_group_count(p, lam) for p, lam in types.items()), ideals


def _p_ideal_count(exponents: Sequence[int]) -> int:
    """Ideal count of the p-part of type a = exponents: the products of the p^(b_i) Z_(p^(a_i))."""
    return prod(a + 1 for a in exponents)


def _p_group_count(p: int, exponents: Sequence[int]) -> int:
    """Subgroup count of the abelian p-group of type lambda = exponents, for a
    proven prime p.  Up to rank 2 it is the closed form of Z_{p^r} x Z_{p^s},
    r <= s (a + 1 at rank 1; the division is exact).  Above, it sums over the
    partitions mu inside lambda the count of the subgroups of type mu
    (Birkhoff-Delsarte; Butler, Subgroup lattices and symmetric functions,
    Mem. AMS 1994)

        prod_i p^(mu'_{i+1} (lambda'_i - mu'_i)) [lambda'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p

    with ' the conjugate partition and [r, i]_p the Gaussian binomial.  Factor
    i reads only mu'_i and mu'_{i+1}, so the sum over mu runs as a chain over
    the columns i from last to first, its weight summed per value of mu'_i.
    The closed form stays for rank 2, where the chain costs 5 to 110 times as
    much (3-140 us against 0.5-1.3 us on a shared 2-core x86-64 host).
    """
    if len(exponents) <= 2:
        r, s = sorted(exponents) if len(exponents) == 2 else (0, sum(exponents))
        num = p ** (r + 1) * ((s - r + 1) * (p - 1) + 2) - ((s + r + 3) * (p - 1) + 2)
        q, rem = divmod(num, (p - 1) ** 2)
        if rem:
            raise InvariantError(f"subgroup count of Z_{p**r} x Z_{p**s}: inexact division")
        return q
    weights = {0: 1}  # mu'_{i+1} -> summed weight of the columns after i
    for i in range(max(exponents), 0, -1):
        col = sum(a >= i for a in exponents)  # lambda'_i
        chain: dict[int, int] = {}
        for below, w in weights.items():
            for mu in range(below, col + 1):
                term = p ** (below * (col - mu)) * _gaussian_binomial(col - below, mu - below, p)
                chain[mu] = chain.get(mu, 0) + w * term
        weights = chain
    return sum(weights.values())


# The tuple reference of _is_ideal_bits: only perfbench and the tests call it.
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


def _is_ideal_bits(bits: int, generators: tuple[tuple[int, ...], ...], strides: list[int]) -> bool:
    """The predicate of is_ideal_bruteforce on the engine's bitset: the projection
    of a reduced generator g onto axis i is the element with index g_i * strides[i]."""
    for g in generators:
        for x, s in zip(g, strides):
            if not bits >> (x * s) & 1:
                return False
    return True


def census_ideal_count(census: SubgroupSet) -> int:
    """Number of census members that pass the brute-force ideal oracle."""
    strides = _strides(census.ring.moduli)
    return sum(_is_ideal_bits(bits, gens, strides) for bits, gens in zip(census.bitsets, census.generators))
