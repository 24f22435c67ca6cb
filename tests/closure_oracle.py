"""Tuple-arithmetic subgroup oracles shared by the test modules: independent
of the bitset engine that closure() and the census run on."""

from operator import add, mod


def tuple_closure(ring, generators):
    """Additive closure by tuple arithmetic, one coset of H at a time: the
    oracle for the bitset engine, which closure() and the census share."""
    moduli = ring.moduli
    elems = {ring.zero()}
    for g in generators:
        g = ring.reduce(g)
        if g in elems:
            continue  # g + H is H
        # g + H, 2g + H, ... are new cosets until k*g + H is H again
        coset = {tuple(map(mod, map(add, g, x), moduli)) for x in elems}
        while not coset <= elems:
            elems |= coset
            coset = {tuple(map(mod, map(add, g, x), moduli)) for x in coset}
    return frozenset(elems)


def layered_tuple_closures(ring):
    """All closures of generator tuples of size <= arity, one layer per tuple
    size: closing (g1..gj) equals closing (closure(g1..g_{j-1}), gj), so each
    closure of the last layer is kept with one tuple that generates it.  Only
    the coset argument is used: every g' in g + H gives <H, g'> = <H, g>.
    """
    elems = list(ring.elements())
    layer = {frozenset({ring.zero()}): ()}  # closure -> a generator tuple
    found = set(layer)
    for _ in range(ring.arity):
        grown = {}
        for h, gens in layer.items():
            covered = set(h)
            for g in elems:
                if g not in covered:
                    grown.setdefault(tuple_closure(ring, gens + (g,)), gens + (g,))
                    covered.update(ring.add(g, x) for x in h)
        layer = {k: gens for k, gens in grown.items() if k not in found}
        found.update(layer)
    return found


def is_ideal_exhaustive(subgroup):
    """Ideal oracle straight from the definition, for a materialized subgroup:
    r*h in H for every ring element r and every h in H.  Costs |ring| * |H|."""
    ring, elements = subgroup.ring, subgroup.elements
    return all(ring.mul(r, h) in elements for r in ring.elements() for h in elements)


def is_ideal_set(ring, elements):
    """The element set is closed under multiplication by every coordinate
    idempotent; these generate the ring additively, so this is r*h in H for
    every ring element r and every h in H.  The projection of h onto axis i
    depends only on h_i, so each value of h_i is checked once."""
    zero = ring.zero()
    return all(
        zero[:i] + (v,) + zero[i + 1 :] in elements
        for i in range(ring.arity)
        for v in {h[i] for h in elements}
    )


def element_sets(census):
    """The census members' element sets, decoded from their bits."""
    return {member.elements for member in census.members}
