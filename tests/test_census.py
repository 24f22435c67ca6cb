"""Tests for the subgroup census: tuple enumeration, brute force, and counting."""

import random
from itertools import product
from math import gcd, prod
import pytest

from idealgate import cli
from idealgate.census import (
    SubgroupSet,
    census_ideal_count,
    count_ideals_pp,
    count_subgroups_closed,
    count_subgroups_sum,
    enumerate_subgroups_bruteforce,
    is_ideal_bruteforce,
    is_ideal_exhaustive,
)
from idealgate.finite import (
    EnumerationCapExceeded,
    FiniteSubgroup,
    ProductRing,
    _TranslationEngine,
    closure,
)
from idealgate.paper import (
    GoursatTuple,
    enumerate_goursat_tuples,
    tuple_from_subgroup,
    tuple_to_subgroup,
)
from closure_oracle import is_ideal_set, layered_tuple_closures, tuple_closure


# === classifying tuples ===


def test_tuple_validation():
    GoursatTuple(2, 1, 1, 1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        GoursatTuple(4, 1, 1, 1, 0, 1, 0, 1)  # p not prime
    with pytest.raises(ValueError):
        GoursatTuple(2, 1, 1, 0, 1, 0, 1, 1)  # b1 > a1
    with pytest.raises(ValueError):
        GoursatTuple(2, 2, 2, 2, 0, 1, 0, 1)  # unequal quotient orders
    with pytest.raises(ValueError):
        GoursatTuple(2, 2, 2, 2, 0, 2, 0, 2)  # unit divisible by p
    with pytest.raises(ValueError):
        GoursatTuple(2, 2, 2, 2, 0, 2, 0, 5)  # unit out of range
    with pytest.raises(ValueError):
        GoursatTuple(2, 1, 1, 1, 1, 1, 1, 2)  # trivial quotient, nontrivial unit


def test_enumerate_tuple_counts():
    assert len(enumerate_goursat_tuples(2, 1, 1)) == 5
    assert len(enumerate_goursat_tuples(3, 1, 1)) == 6
    assert len(enumerate_goursat_tuples(5, 0, 0)) == 1
    assert len(enumerate_goursat_tuples(2, 0, 5)) == 6
    with pytest.raises(ValueError):
        enumerate_goursat_tuples(6, 1, 1)


def test_enumerate_tuples_distinct_and_counted():
    for p in (2, 3):
        for r in range(4):
            for s in range(r, 4):
                tuples = enumerate_goursat_tuples(p, r, s)
                assert len(set(tuples)) == len(tuples)
                assert len(tuples) == count_subgroups_sum(p, r, s)


def test_tuple_to_subgroup_frozen_examples():
    trivial = GoursatTuple(3, 1, 1, 0, 0, 0, 0, 1)
    assert tuple_to_subgroup(trivial).elements == frozenset({(0, 0)})

    diagonal = GoursatTuple(5, 1, 1, 1, 0, 1, 0, 1)
    assert tuple_to_subgroup(diagonal).elements == frozenset((x, x) for x in range(5))

    full = GoursatTuple(2, 1, 2, 1, 1, 2, 2, 1)
    assert tuple_to_subgroup(full).elements == frozenset(product(range(2), range(4)))


def test_tuple_subgroup_size_formula():
    for p in (2, 3):
        for r in range(3):
            for s in range(r, 4):
                for t in enumerate_goursat_tuples(p, r, s):
                    sub = tuple_to_subgroup(t)
                    assert len(sub.elements) == p ** (t.a1 + t.b2)
                    # the stored generators really generate the element set
                    assert tuple_closure(sub.ring, sub.generators) == sub.elements


def test_tuple_roundtrip():
    for p in (2, 3):
        for r in range(3):
            for s in range(r, 4):
                for t in enumerate_goursat_tuples(p, r, s):
                    assert tuple_from_subgroup(tuple_to_subgroup(t), p) == t


def test_tuple_from_subgroup_rejects_bad_input():
    ring = ProductRing((4, 2))
    with pytest.raises(ValueError):
        tuple_from_subgroup(FiniteSubgroup(ring, ((1, 0),)), 2)  # not materialized
    with pytest.raises(ValueError):
        tuple_from_subgroup(
            FiniteSubgroup(ProductRing((6, 2)), (), frozenset({(0, 0)})), 2
        )  # moduli not powers of p


# === counting formulas ===


def test_count_frozen_values():
    assert count_subgroups_closed(2, 1, 1) == 5
    assert count_subgroups_closed(3, 1, 1) == 6
    assert count_subgroups_closed(2, 1, 2) == 8
    assert count_subgroups_closed(2, 2, 2) == 15
    assert count_subgroups_sum(2, 1, 1) == 5
    assert count_subgroups_sum(2, 2, 2) == 15


def test_count_sum_matches_closed_form():
    for p in (2, 3, 5):
        for r in range(5):
            for s in range(5):
                assert count_subgroups_sum(p, r, s) == count_subgroups_closed(p, r, s)


def test_count_normalizes_exponent_order():
    assert count_subgroups_closed(2, 2, 1) == count_subgroups_closed(2, 1, 2) == 8


def test_count_chain_case():
    for p in (2, 3, 5):
        for s in range(6):
            assert count_subgroups_sum(p, 0, s) == s + 1


def test_count_rejects_bad_input():
    with pytest.raises(ValueError):
        count_subgroups_closed(4, 1, 1)
    with pytest.raises(ValueError):
        count_subgroups_sum(2, -1, 1)
    with pytest.raises(ValueError):
        count_ideals_pp(-1, 0)


def test_ideal_count_formula():
    assert count_ideals_pp(1, 1) == 4
    assert count_ideals_pp(0, 0) == 1
    assert count_ideals_pp(1, 2) == 6


# === the bitset engine ===


def test_translation_engine_matches_elementwise():
    # bit e stands for the e-th element of ring.elements()
    rng = random.Random(99)
    for moduli in ((6, 4), (2, 3, 2), (8,), (1, 5)):
        ring = ProductRing(moduli)
        eng = _TranslationEngine(ring)
        elems = list(ring.elements())
        position = {e: i for i, e in enumerate(elems)}
        for _ in range(40):
            subset = {e for e in elems if rng.random() < 0.4}
            bits = 0
            for e in subset:
                bits |= 1 << position[e]
            shift = elems[rng.randrange(len(elems))]
            expected = {ring.add(e, shift) for e in subset}
            translated = eng.translate(bits, shift)
            got = set()
            while translated:
                low = translated & -translated
                got.add(elems[low.bit_length() - 1])
                translated ^= low
            assert got == expected


def test_translation_engine_extend_is_closure():
    rng = random.Random(7)
    for moduli in ((6, 4), (2, 3, 2), (12,), (8, 8)):
        ring = ProductRing(moduli)
        eng = _TranslationEngine(ring)
        elems = list(ring.elements())
        position = {e: i for i, e in enumerate(elems)}
        for _ in range(30):
            h_gens = [elems[rng.randrange(len(elems))] for _ in range(rng.randrange(2))]
            g = elems[rng.randrange(len(elems))]
            h_bits = sum(1 << position[e] for e in tuple_closure(ring, h_gens))
            k_bits = sum(1 << position[e] for e in tuple_closure(ring, h_gens + [g]))
            assert eng.extend(h_bits, g) == k_bits
            # with the quotient order given, the doubling stops as soon as it is reached
            quotient = k_bits.bit_count() // h_bits.bit_count()
            assert eng.extend(h_bits, g, quotient) == k_bits


def test_closure_and_materialize_match_tuple_closure():
    # seeded subgroups of arity 1-4, with modulus-1 axes among the factors
    rng = random.Random(3000)
    for _ in range(3000):
        arity = rng.randint(1, 4)
        top = (12, 12, 8, 5)[arity - 1]
        moduli = tuple(rng.randint(1, top) for _ in range(arity))
        ring = ProductRing(moduli)
        gens = [tuple(rng.randrange(n) for n in moduli) for _ in range(rng.randint(0, arity))]
        expected = tuple_closure(ring, gens)
        assert closure(ring, gens) == expected, (moduli, gens)
        assert FiniteSubgroup(ring, gens).materialize().elements == expected, (moduli, gens)


def test_translation_engine_torsion():
    # G[e] = {x : e*x = 0}, against the tuples
    for moduli in ((6, 4), (2, 3, 2), (12,), (8, 8), (4, 1, 6), (2, 2, 2, 2)):
        ring = ProductRing(moduli)
        eng = _TranslationEngine(ring)
        for e in range(1, 26):
            expected = sum(
                1 << i
                for i, x in enumerate(ring.elements())
                if all(e * c % n == 0 for c, n in zip(x, moduli))
            )
            assert eng.torsion(e) == expected, (moduli, e)


# === brute-force enumeration ===


def test_census_z2z2_exact_subgroups():
    census = enumerate_subgroups_bruteforce(ProductRing((2, 2)))
    assert census.element_sets() == {
        frozenset({(0, 0)}),
        frozenset({(0, 0), (1, 0)}),
        frozenset({(0, 0), (0, 1)}),
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}),
    }


def test_census_small_counts():
    assert len(enumerate_subgroups_bruteforce(ProductRing((1, 1)))) == 1
    assert len(enumerate_subgroups_bruteforce(ProductRing((2, 4)))) == 8
    assert len(enumerate_subgroups_bruteforce(ProductRing((6,)))) == 4


def test_census_matches_naive_all_tuples_closure():
    # direct implementation of the contract: close every generator tuple of
    # size <= arity, deduplicate
    # (6, 4), (12,) and (2, 3, 2) have cyclic quotients of composite order
    # with two primes, where the per-unit-multiple dedup skips the most
    for moduli in ((4, 2), (3, 3), (2, 2, 2), (5,), (6, 4), (12,), (2, 3, 2)):
        ring = ProductRing(moduli)
        elems = list(ring.elements())
        naive = {frozenset({ring.zero()})}
        for size in range(1, ring.arity + 1):
            for gens in product(elems, repeat=size):
                naive.add(tuple_closure(ring, gens))
        census = enumerate_subgroups_bruteforce(ring)
        assert census.element_sets() == naive


def _count_extensions(monkeypatch):
    """Record every _TranslationEngine.extend call in the returned list."""
    calls = []
    extend = _TranslationEngine.extend

    def counted(self, *args):
        calls.append(args)
        return extend(self, *args)

    monkeypatch.setattr(_TranslationEngine, "extend", counted)
    return calls


def _moduli_up_to(order, arity):
    """Every multiset of moduli >= 2 with product <= order and at most arity factors."""
    out = []

    def grow(prefix, low, budget):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == arity:
            return
        for n in range(low, budget + 1):
            grow(prefix + [n], n, budget // n)

    grow([], 2, order)
    return out


def _check_against_layered_closure(ring, calls):
    calls.clear()
    census = enumerate_subgroups_bruteforce(ring)
    expected = layered_tuple_closures(ring)
    assert census.element_sets() == expected, ring.moduli
    keys = [(len(sub.elements), sorted(sub.elements)) for sub in census.members]
    assert keys == sorted(keys), ring.moduli
    # one closure per nontrivial member: in each primary part from its
    # first-axis parent, in the assembly once per sum A + B with A, B != 0
    assert len(calls) == len(census) - 1, ring.moduli
    for bits, gens in zip(census.bitsets, census.generators):
        assert len(gens) <= ring.arity, (ring.moduli, gens)
        assert all(0 <= x < n for g in gens for x, n in zip(g, ring.moduli)), (ring.moduli, gens)
    for sub in census.members:
        assert tuple_closure(ring, sub.generators) == sub.elements, (ring.moduli, sub.generators)
    ideals = sum(is_ideal_set(ring, h) for h in expected)
    assert census_ideal_count(census) == ideals, ring.moduli


def test_census_matches_layered_closure_up_to_order_64(monkeypatch):
    # every ring of order <= 64 and arity <= 3, factors in a seeded order
    calls = _count_extensions(monkeypatch)
    rng = random.Random(64)
    rings = _moduli_up_to(64, 3)
    assert len(rings) == 181
    for moduli in rings:
        moduli = list(moduli)
        rng.shuffle(moduli)
        _check_against_layered_closure(ProductRing(tuple(moduli)), calls)


def test_census_composite_quotient_orders(monkeypatch):
    # every axis splits into a 2-part and a 3-part: quotients of order 2, 4,
    # 3 and 9 over first-axis parents, then sums of members of both parts
    calls = _count_extensions(monkeypatch)
    for moduli in ((12, 36), (6, 6, 6)):
        _check_against_layered_closure(ProductRing(moduli), calls)


def test_census_arity_4_layers(monkeypatch):
    # four axes, and parents whose exponent is below the ring's, so that the
    # scan mask G[t*exp(P)] is a proper subgroup
    calls = _count_extensions(monkeypatch)
    for moduli in ((2, 2, 2, 2), (2, 2, 2, 4), (4, 2, 4, 2), (2, 2, 4, 4), (3, 3, 3, 2)):
        _check_against_layered_closure(ProductRing(moduli), calls)


def test_census_multi_prime_rings(monkeypatch):
    # three and four primary parts, joined one after another; (6, 35) has
    # no prime common to two axes, (30, 6) and (10, 12) split both axes
    calls = _count_extensions(monkeypatch)
    for moduli in ((6, 35), (30, 6), (10, 12), (2, 3, 5, 7)):
        _check_against_layered_closure(ProductRing(moduli), calls)


def test_census_first_axis_parents(monkeypatch):
    # up to five axes, with moduli rising and falling along them: a member's
    # first nonzero axis is then sometimes the ring's largest factor and
    # sometimes its smallest, and the parent lives in the tail after it
    calls = _count_extensions(monkeypatch)
    for moduli in ((2, 2, 2, 2, 2), (4, 4, 4), (2, 4, 8), (8, 4, 2), (3, 9, 27), (3, 9), (9, 3)):
        _check_against_layered_closure(ProductRing(moduli), calls)


def test_census_axes_of_modulus_one(monkeypatch):
    # an axis of Z_1 carries no coordinate: it is never a first nonzero axis
    calls = _count_extensions(monkeypatch)
    for moduli in ((1, 4), (4, 1, 2), (1, 9, 1)):
        _check_against_layered_closure(ProductRing(moduli), calls)


def test_census_cyclic_rings_up_to_720():
    # Z_n has one subgroup per divisor d of n: the multiples of n/d
    for n in range(1, 721):
        census = enumerate_subgroups_bruteforce(ProductRing((n,)))
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(census) == len(divisors), n
        for d, sub in zip(divisors, census.members):
            assert sub.elements == frozenset((j * (n // d),) for j in range(d)), (n, d)


def test_census_members_are_closed_and_generated():
    census = enumerate_subgroups_bruteforce(ProductRing((4, 6)))
    for sub in census.members:
        assert tuple_closure(sub.ring, sub.generators) == sub.elements


def test_census_deterministic_order():
    a = enumerate_subgroups_bruteforce(ProductRing((4, 4)))
    b = enumerate_subgroups_bruteforce(ProductRing((4, 4)))
    assert [m.elements for m in a.members] == [m.elements for m in b.members]
    sizes = [len(m.elements) for m in a.members]
    assert sizes == sorted(sizes)


def test_census_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_subgroups_bruteforce(ProductRing((101, 101)), max_order=10_000)


def test_subgroup_set_rejects_duplicates():
    census = enumerate_subgroups_bruteforce(ProductRing((2, 2)))
    with pytest.raises(ValueError):
        SubgroupSet(
            census.ring,
            census.bitsets + (census.bitsets[0],),
            census.generators + (census.generators[0],),
        )
    with pytest.raises(ValueError):
        SubgroupSet(census.ring, census.bitsets, census.generators[:-1])


def test_census_decodes_members_only_when_read(monkeypatch):
    census = enumerate_subgroups_bruteforce(ProductRing((3, 9)))

    def refuse(*args):
        raise AssertionError("census decoded its members")

    monkeypatch.setattr("idealgate.census._members", refuse)
    assert len(census) == count_subgroups_closed(3, 1, 2)
    assert census_ideal_count(census) == count_ideals_pp(1, 2)
    assert cli.run(["census", "--p", "3", "--r", "2", "--s", "2", "--verify"]) == 0
    monkeypatch.undo()
    # decoded once, on first read
    assert census.members is census.members


def test_goursat_bijection_small():
    for p in (2, 3):
        for r in range(4):
            for s in range(r, 4):
                if p ** (r + s) > 10**4:
                    continue
                ring = ProductRing((p**r, p**s))
                census = enumerate_subgroups_bruteforce(ring)
                tuples = enumerate_goursat_tuples(p, r, s)
                assert {tuple_to_subgroup(t).elements for t in tuples} == census.element_sets()


def test_coprime_moduli_subgroups_split_as_products():
    # with coprime factor orders, every subgroup is the product of its projections
    pairs = [(n, m) for n in range(1, 9) for m in range(1, 9) if gcd(n, m) == 1]
    for n, m in pairs:
        census = enumerate_subgroups_bruteforce(ProductRing((n, m)))
        for sub in census.members:
            proj1 = {x for x, _ in sub.elements}
            proj2 = {y for _, y in sub.elements}
            assert sub.elements == frozenset((x, y) for x in proj1 for y in proj2)
        # the census enumerates each primary part and joins them, so the split
        # holds by construction; the tuple oracle knows nothing of parts
        expected = layered_tuple_closures(census.ring)
        assert census.element_sets() == expected, (n, m)
        ideals = sum(is_ideal_set(census.ring, h) for h in expected)
        assert census_ideal_count(census) == ideals, (n, m)


# === the brute-force ideal oracle ===


def test_is_ideal_bruteforce_examples():
    ring = ProductRing((4, 2))
    assert is_ideal_bruteforce(FiniteSubgroup(ring, ((2, 0), (2, 1))).materialize())
    diag = FiniteSubgroup(ProductRing((3, 3)), ((1, 1),)).materialize()
    assert not is_ideal_bruteforce(diag)
    whole = FiniteSubgroup(ring, ((1, 0), (0, 1))).materialize()
    assert is_ideal_bruteforce(whole)
    with pytest.raises(ValueError):
        is_ideal_bruteforce(FiniteSubgroup(ring, ((1, 0),)))


def test_generator_oracle_equals_exhaustive_oracle():
    # the idempotent-on-generators shortcut agrees with the full definition
    # (every ring multiple of every element) at desk scale
    for moduli in ((4, 9), (6, 6), (8, 8), (10, 10), (2, 3, 4)):
        ring = ProductRing(moduli)
        census = enumerate_subgroups_bruteforce(ring)
        for sub in census.members:
            assert is_ideal_bruteforce(sub) == is_ideal_exhaustive(sub), (moduli, sub.generators)


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def test_census_ideal_tally_reads_the_oracle_off_the_bits():
    # the tally from bits against is_ideal_bruteforce on the decoded members,
    # and against the ideal count prod(d(n_i)): ideals are products of ideals
    rings = [(n, m) for n in range(1, 25) for m in range(1, 25)]
    rings += [(a, b, c) for a in range(1, 9) for b in range(a, 9) for c in range(b, 9)]
    rings += [(2, 2, 2, 2), (2, 2, 2, 4), (4, 2, 4, 2), (2, 2, 4, 4), (3, 3, 3, 2)]
    assert len(rings) == 576 + 120 + 5
    for moduli in rings:
        census = enumerate_subgroups_bruteforce(ProductRing(moduli))
        tally = census_ideal_count(census)
        assert tally == sum(is_ideal_bruteforce(m) for m in census.members), moduli
        assert tally == prod(_divisor_count(n) for n in moduli), moduli
        assert len(census) == len(census.members), moduli


def test_census_ideal_tally_matches_formula():
    for p in (2, 3):
        for r in range(3):
            for s in range(r, 3):
                census = enumerate_subgroups_bruteforce(ProductRing((p**r, p**s)))
                assert census_ideal_count(census) == count_ideals_pp(r, s)
