"""Tuple-arithmetic subgroup oracles shared by the test modules: independent
of the bitset engine that closure() and the census run on."""

from math import gcd, lcm


def tuple_closure(ring, generators):
    """Additive closure by tuple arithmetic, one coset of H at a time: the
    oracle for the bitset engine, which closure() and the census share."""
    elems = {ring.zero()}
    for g in generators:
        g = ring.reduce(g)
        # g + H, 2g + H, ... are new cosets until k*g + H is H again
        coset = {ring.add(g, x) for x in elems}
        while not coset <= elems:
            elems |= coset
            coset = {ring.add(g, x) for x in coset}
    return frozenset(elems)


def _exponent(ring, elements):
    """The least e >= 1 with e*x = 0 for every x in elements."""
    return lcm(*(n // gcd(x, n) for v in elements for x, n in zip(v, ring.moduli)))


def layered_tuple_closures(ring):
    """All closures of generator tuples of size <= arity, one layer per tuple
    size: closing (g1..gj) equals closing (closure(g1..g_{j-1}), gj).

    Also returns how many extensions a layered census of the whole ring
    makes: for every H of the layers it extends, the number of distinct
    <H, g> with g outside H and, unless H is trivial, exp(H)*g = 0 (one per
    nontrivial cyclic subgroup of (H + G[exp H])/H).  The layers themselves
    extend H by every g outside H.  Only the coset argument is used here:
    every g' in g + H gives <H, g'> = <H, g>.
    """
    elems = list(ring.elements())
    layer = {frozenset({ring.zero()})}
    found = set(layer)
    extensions = 0
    for _ in range(ring.arity):
        grown = set()
        for h in layer:
            e = _exponent(ring, h)
            covered = set(h)
            over_h = set()
            torsion_over_h = set()
            for g in elems:
                if g not in covered:
                    k = tuple_closure(ring, list(h) + [g])
                    over_h.add(k)
                    if e == 1 or all(e * x % n == 0 for x, n in zip(g, ring.moduli)):
                        torsion_over_h.add(k)
                    covered.update(ring.add(g, x) for x in h)
            extensions += len(torsion_over_h)
            grown |= over_h
        layer = grown - found
        found |= layer
    return found, extensions


def is_ideal_set(ring, elements):
    """The element set is closed under multiplication by every coordinate
    idempotent; these generate the ring additively, so this is r*h in H for
    every ring element r and every h in H."""
    return all(ring.project(h, i) in elements for h in elements for i in range(ring.arity))
