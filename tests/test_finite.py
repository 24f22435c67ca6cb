"""Tests for finite product rings and the ideal criteria."""

import random
from itertools import product
from math import gcd, lcm, prod

import pytest

from idealgate.census import is_ideal_bruteforce
from idealgate.finite import (
    EnumerationCapExceeded,
    FiniteSubgroup,
    KernelLattice,
    ProductRing,
    _lifted_basis,
    closure,
    general_is_ideal,
    kernel_lattice,
    twogen_is_ideal,
)
from idealgate.lattice import IntMatrix, canonical_basis, member
from idealgate.paper import cyclic_is_ideal, kernel_sum_order_mod_lcm, subgroup_order_two_gen
from closure_oracle import is_ideal_set, tuple_closure


# === ring and subgroup plumbing ===


def test_ring_validation():
    with pytest.raises(ValueError):
        ProductRing(())
    with pytest.raises(ValueError):
        ProductRing((4, 0))
    ring = ProductRing([4, 2])
    assert ring.moduli == (4, 2)
    assert ring.arity == 2 and ring.order == 8


def test_ring_operations():
    ring = ProductRing((4, 3))
    assert ring.reduce((-1, 7)) == (3, 1)
    assert ring.add((3, 2), (2, 2)) == (1, 1)
    assert ring.neg((1, 0)) == (3, 0)
    assert ring.scale(5, (1, 1)) == (1, 2)
    assert ring.mul((2, 2), (3, 2)) == (2, 1)
    assert ring.project((2, 1), 0) == (2, 0)
    assert ring.project((2, 1), 1) == (0, 1)
    assert ring.element_order((2, 1)) == lcm(2, 3)
    assert len(list(ring.elements())) == 12
    with pytest.raises(ValueError):
        ring.reduce((1, 2, 3))


def test_subgroup_reduces_generators_and_takes_any_count():
    ring = ProductRing((4, 2))
    sub = FiniteSubgroup(ring, ((6, 3), (-1, 1)))
    assert sub.generators == ((2, 1), (3, 1))
    # more generators than factors: <(1, 0), (0, 1), (1, 1)> is the whole ring
    whole = FiniteSubgroup(ring, ((1, 0), (0, 1), (1, 1)))
    assert whole.order() == 8 and general_is_ideal(whole)
    assert FiniteSubgroup(ring, ((2, 0), (0, 1), (2, 1))).order() == 4


def test_materialized_invariants_checked():
    ring = ProductRing((2, 2))
    with pytest.raises(ValueError):
        FiniteSubgroup(ring, (), frozenset({(1, 1)}))  # missing zero
    with pytest.raises(ValueError):
        FiniteSubgroup(ring, ((1, 1),), frozenset({(0, 0), (1, 1), (1, 0)}))  # 3 does not divide 4


def test_closure_matches_fixpoint_oracle():
    def fixpoint(ring, gens):
        elems = {ring.zero()} | {ring.reduce(g) for g in gens}
        while True:
            sums = {ring.add(a, b) for a in elems for b in elems}
            if sums <= elems:
                return frozenset(elems)
            elems |= sums

    # arity up to 4, with axes of modulus 1 among the factors
    rng = random.Random(70)
    rings = ((6,), (1,), (4, 2), (2, 3), (3, 3), (1, 4), (2, 2, 2), (2, 1, 3))
    for moduli in rings + ((2, 2, 2, 2), (1, 2, 1, 3), (3, 1, 2, 2), (2, 3, 2, 1)):
        ring = ProductRing(moduli)
        elems = list(ring.elements())
        for g1 in elems:
            for g2 in elems[:: max(1, len(elems) // 6)]:
                more = tuple(rng.choice(elems) for _ in range(ring.arity - 2))
                gens = ((g1, g2) + more)[: ring.arity]
                assert closure(ring, gens) == fixpoint(ring, gens), (moduli, gens)


def test_closure_is_a_subgroup():
    ring = ProductRing((4, 6))
    elems = closure(ring, ((2, 3), (0, 2)))
    assert ring.zero() in elems
    for a in elems:
        assert ring.neg(a) in elems
        for b in elems:
            assert ring.add(a, b) in elems


def test_materialize_cap():
    ring = ProductRing((100, 100, 100))
    sub = FiniteSubgroup(ring, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    with pytest.raises(EnumerationCapExceeded):
        sub.materialize(cap=1000)
    # the order needs no elements: the generators span the even-sum lattice
    assert sub.order() == 100**3 // 2


def test_order_formula_paths_match_materialization():
    for n, m in product(range(1, 9), repeat=2):
        ring = ProductRing((n, m))
        for g1 in ring.elements():
            single = FiniteSubgroup(ring, (g1,))
            assert single.order() == len(single.materialize().elements)
    ring = ProductRing((6, 4))
    for g1 in ring.elements():
        for g2 in list(ring.elements())[::5]:
            sub = FiniteSubgroup(ring, (g1, g2))
            assert sub.order() == len(sub.materialize().elements)
    assert FiniteSubgroup(ProductRing((5, 5)), ()).order() == 1


# === single-generator criterion ===


def test_cyclic_examples():
    assert cyclic_is_ideal((2, 3), ProductRing((4, 9)))
    # derived: the closure of (2,3) is exactly <2> x <3>, six elements
    assert closure(ProductRing((4, 9)), ((2, 3),)) == frozenset(
        (a, b) for a in (0, 2) for b in (0, 3, 6)
    )
    assert not cyclic_is_ideal((1, 1), ProductRing((2, 2)))
    assert len(closure(ProductRing((2, 2)), ((1, 1),))) == 2


def test_cyclic_coprime_moduli_always_ideal():
    for n, m in ((2, 3), (4, 9), (5, 6), (7, 8)):
        ring = ProductRing((n, m))
        assert all(cyclic_is_ideal(g, ring) for g in ring.elements())


def test_cyclic_matches_bruteforce_oracle():
    for n, m in product(range(1, 9), repeat=2):
        ring = ProductRing((n, m))
        for g in ring.elements():
            sub = FiniteSubgroup(ring, (g,)).materialize()
            assert cyclic_is_ideal(g, ring) == is_ideal_bruteforce(sub), (n, m, g)


def test_cyclic_three_factor_sweep():
    for moduli in product((2, 3, 4), repeat=3):
        ring = ProductRing(moduli)
        for g in ring.elements():
            sub = FiniteSubgroup(ring, (g,)).materialize()
            assert cyclic_is_ideal(g, ring) == is_ideal_bruteforce(sub), (moduli, g)


# === kernel lattices ===


def test_kernel_lattice_frozen_examples():
    assert kernel_lattice(1, 0, 5).basis.matrix.columns() == [(5, 0), (0, 1)]
    assert kernel_lattice(0, 0, 4).basis.matrix == IntMatrix.identity(2)
    k = kernel_lattice(1, 1, 2)
    assert k.index() == 2
    assert member((1, 1), k.basis) and member((2, 0), k.basis)
    assert not member((1, 0), k.basis)


def test_kernel_lattice_rejects_bad_modulus():
    with pytest.raises(ValueError):
        kernel_lattice(1, 1, 0)


def test_kernel_lattice_postconditions_sweep():
    for n in range(1, 13):
        for alpha in range(n):
            for beta in range(n):
                k = kernel_lattice(alpha, beta, n)
                cols = k.basis.matrix.columns()
                assert all((alpha * x + beta * y) % n == 0 for x, y in cols)
                assert member((n, 0), k.basis) and member((0, n), k.basis)
                assert k.index() == n // gcd(alpha, beta, n)
                assert (n * n) % k.index() == 0


def test_kernel_lattice_is_exact_kernel():
    # every small vector satisfying the congruence is a member, and no other
    for n in (2, 3, 4, 6):
        for alpha in range(n):
            for beta in range(n):
                k = kernel_lattice(alpha, beta, n)
                for x in range(-n, n + 1):
                    for y in range(-n, n + 1):
                        expected = (alpha * x + beta * y) % n == 0
                        assert member((x, y), k.basis) == expected


def test_kernel_lattice_validation():
    with pytest.raises(ValueError):
        KernelLattice(4, kernel_lattice(0, 1, 3).basis)  # does not contain (4,0)/(0,4)


# === two-generator criterion ===


def test_twogen_examples():
    assert not twogen_is_ideal(4, 2, (2, 0), (3, 1))
    assert len(closure(ProductRing((4, 2)), ((2, 0), (3, 1)))) == 4
    assert twogen_is_ideal(2, 2, (1, 0), (0, 1))
    for g1 in product(range(2), range(3)):
        for g2 in product(range(2), range(3)):
            assert twogen_is_ideal(2, 3, g1, g2)


def test_twogen_rejects_wrong_arity():
    with pytest.raises(ValueError):
        twogen_is_ideal(4, 2, (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        twogen_is_ideal(0, 2, (1, 0), (0, 1))


def test_twogen_generator_order_symmetry():
    for n, m in product(range(1, 7), repeat=2):
        ring = ProductRing((n, m))
        elems = list(ring.elements())
        for g1 in elems:
            for g2 in elems:
                assert twogen_is_ideal(n, m, g1, g2) == twogen_is_ideal(n, m, g2, g1)


def test_twogen_matches_bruteforce_oracle_small():
    for n, m in product(range(1, 8), repeat=2):
        ring = ProductRing((n, m))
        elems = list(ring.elements())
        for g1 in elems:
            for g2 in elems:
                sub = FiniteSubgroup(ring, (g1, g2)).materialize()
                assert twogen_is_ideal(n, m, g1, g2) == is_ideal_bruteforce(sub), (n, m, g1, g2)


def test_twogen_finite_reduction_agrees():
    # the reduced check counts elements of the kernel sum inside Z_l x Z_l,
    # l = lcm(n, m); the verdict is "ideal" exactly at full size l^2
    pairs = [(n, m) for n in range(1, 5) for m in range(1, 5)]
    pairs += [(4, 2), (2, 4), (4, 6), (6, 4), (3, 6), (9, 6)]
    for n, m in pairs:
        l = lcm(n, m)
        ring = ProductRing((n, m))
        elems = list(ring.elements())
        step = max(1, len(elems) // 8)
        for g1 in elems:
            for g2 in elems[::step]:
                size = kernel_sum_order_mod_lcm(n, m, g1, g2)
                assert (size == l * l) == twogen_is_ideal(n, m, g1, g2), (n, m, g1, g2)


# === subgroup order without enumeration ===


def test_subgroup_order_two_gen_examples():
    assert subgroup_order_two_gen(4, 2, (2, 0), (3, 1)) == 4
    assert subgroup_order_two_gen(2, 2, (1, 0), (0, 1)) == 4
    # second factor collapses: the order is that of <a, c> in Z_6
    assert subgroup_order_two_gen(6, 1, (2, 0), (4, 0)) == 3
    assert subgroup_order_two_gen(6, 1, (2, 0), (3, 0)) == 6


def test_subgroup_order_two_gen_matches_closure():
    for n, m in product(range(1, 9), repeat=2):
        ring = ProductRing((n, m))
        elems = list(ring.elements())
        for g1 in elems:
            for g2 in elems:
                expected = len(closure(ring, (g1, g2)))
                assert subgroup_order_two_gen(n, m, g1, g2) == expected, (n, m, g1, g2)


# === the normative test ===


def test_general_examples():
    assert general_is_ideal(FiniteSubgroup(ProductRing((4, 2)), ((2, 0), (2, 1))))
    assert not general_is_ideal(FiniteSubgroup(ProductRing((2, 2)), ((1, 1),)))
    assert general_is_ideal(FiniteSubgroup(ProductRing((5, 7)), ()))


def test_general_agrees_with_special_criteria():
    for n, m in product(range(1, 8), repeat=2):
        ring = ProductRing((n, m))
        elems = list(ring.elements())
        for g1 in elems:
            assert general_is_ideal(FiniteSubgroup(ring, (g1,))) == cyclic_is_ideal(g1, ring)
            for g2 in elems[:: max(1, len(elems) // 6)]:
                assert general_is_ideal(FiniteSubgroup(ring, (g1, g2))) == twogen_is_ideal(
                    n, m, g1, g2
                )


def test_general_three_factor_via_materialization():
    ring = ProductRing((2, 3, 2))
    for g1 in ring.elements():
        for g2 in ring.elements():
            sub = FiniteSubgroup(ring, (g1, g2))
            expected = is_ideal_bruteforce(sub.materialize())
            assert general_is_ideal(sub) == expected, (g1, g2)


def test_general_decides_at_any_ring_size():
    ring = ProductRing((101, 103, 101))
    whole = FiniteSubgroup(ring, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert general_is_ideal(whole) and whole.order() == ring.order
    # orders 101, 103, 101 share a factor across the repeated modulus
    assert not general_is_ideal(FiniteSubgroup(ring, ((1, 1, 1),)))
    assert general_is_ideal(FiniteSubgroup(ProductRing((101, 103, 107)), ((1, 1, 1),)))
    # far beyond enumeration, the paper's criteria still decide independently
    rng = random.Random(97)
    n, m = 2**64, 3**40 * 2**10
    big = ProductRing((n, m))
    for _ in range(200):
        g1, g2 = ((rng.randrange(n) >> rng.randrange(64), rng.randrange(m)) for _ in range(2))
        sub = FiniteSubgroup(big, (g1, g2))
        assert general_is_ideal(sub) == twogen_is_ideal(n, m, g1, g2)
        assert sub.order() == subgroup_order_two_gen(n, m, g1, g2)
        single = FiniteSubgroup(big, (g1,))
        assert general_is_ideal(single) == cyclic_is_ideal(g1, big)
        assert single.order() == big.element_order(g1)


def test_lattice_core_matches_closure_and_bruteforce():
    # tuple closure and the idempotent predicates share no code with the lattice
    # core or the bitset engine.  Each ring gets a generating set of at most
    # k vectors, k its number of factors, and one of 0 to 2k+1 vectors, drawn
    # from a second generator
    rng = random.Random(4242)
    wide_rng = random.Random(4343)
    pool = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 25, 27, 32, 64)
    ideals = [0, 0]
    past_arity = 0
    for _ in range(3000):
        while True:
            moduli = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            if prod(moduli) <= 4096:
                break
        ring = ProductRing(moduli)
        for wide, (r, most) in enumerate(((rng, ring.arity), (wide_rng, 2 * ring.arity + 1))):
            gens = tuple(
                tuple(r.randrange(n) if r.random() < 0.8 else 0 for n in moduli)
                for _ in range(r.randint(0, most))
            )
            past_arity += len(gens) > ring.arity
            sub = FiniteSubgroup(ring, gens)
            elements = tuple_closure(ring, gens)
            assert closure(ring, gens) == elements, (moduli, gens)
            assert sub.order() == len(elements), (moduli, gens)
            verdict = general_is_ideal(sub)
            assert verdict == is_ideal_set(ring, elements), (moduli, gens)
            assert verdict == is_ideal_bruteforce(FiniteSubgroup(ring, gens, elements)), (moduli, gens)
            ideals[wide] += verdict
    assert 300 < ideals[0] < 3000 - 300  # both verdicts well represented
    assert ideals[1] < 3000 and past_arity > 1000


def test_lifted_basis_equals_canonical_basis_of_generators_and_moduli():
    # the seeded echelon start n_i*e_i gives the basis that inserting every
    # column of the generator-plus-moduli matrix from an empty start gives
    rng = random.Random(1515)
    pool = (1, 2, 3, 4, 6, 12, 97, 1024, 10**6 + 3, 2**61 - 1, 2**60 + 2**31, 3**37)
    for _ in range(2000):
        moduli = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        ring = ProductRing(moduli)
        gens = [
            [rng.randrange(-2 * n, 2 * n) if rng.random() < 0.8 else 0 for n in moduli]
            for _ in range(rng.randint(0, ring.arity))
        ]
        sub = FiniteSubgroup(ring, gens)
        diagonal = [[n if i == j else 0 for i in range(ring.arity)] for j, n in enumerate(moduli)]
        expected = canonical_basis(IntMatrix.from_columns(list(sub.generators) + diagonal))
        assert _lifted_basis(sub) == expected, (moduli, gens)


def test_closure_contained_in_projection_product():
    for n, m in product(range(1, 8), repeat=2):
        ring = ProductRing((n, m))
        elems = list(ring.elements())
        for g1 in elems[:: max(1, len(elems) // 7)]:
            for g2 in elems[:: max(1, len(elems) // 7)]:
                sub = closure(ring, (g1, g2))
                d1 = gcd(g1[0], g2[0], n)
                d2 = gcd(g1[1], g2[1], m)
                assert all(x % gcd(d1, n) == 0 and y % gcd(d2, m) == 0 for x, y in sub)
