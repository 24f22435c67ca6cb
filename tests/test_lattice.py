"""Tests for integer lattice bases and the Z^d ideal tests."""

import random
from itertools import product
from math import gcd, prod

import pytest

from idealgate.lattice import (
    IdealWitness,
    IntMatrix,
    adjugate,
    canonical_basis,
    determinant,
    fullrank_is_ideal,
    is_ideal_2x2,
    is_ideal_zd,
    member,
    rank1_is_ideal,
    witness_2x2,
)
from matrix_helpers import random_unimodular


def cols(*columns):
    return IntMatrix.from_columns(columns)


# === IntMatrix basics ===


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix(0, 1, ())
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_columns([])


def test_matrix_accessors_and_product():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert a.at(1, 0) == 3
    assert a.row(0) == (1, 2)
    assert a.column(1) == (2, 4)
    assert a @ IntMatrix.identity(2) == a
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a @ b == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert IntMatrix.diagonal((2, 3)).is_diagonal()
    assert not a.is_diagonal()


def test_determinant_known_values():
    assert determinant(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert determinant(IntMatrix.identity(4)) == 1
    assert determinant(IntMatrix.diagonal((2, -3, 5))) == -30
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        determinant(IntMatrix(2, 1, (1, 2)))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(7)

    def cofactor_det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = 0
        for j, x in enumerate(rows[0]):
            if x:
                minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                total += (-1) ** j * x * cofactor_det(minor)
        return total

    for _ in range(120):
        k = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        assert determinant(IntMatrix.from_rows(rows)) == cofactor_det(rows)


def test_adjugate_examples():
    a, b, c, d = 5, -2, 7, 3
    assert adjugate(IntMatrix.from_rows([[a, c], [b, d]])) == IntMatrix.from_rows(
        [[d, -c], [-b, a]]
    )
    assert adjugate(IntMatrix.identity(3)) == IntMatrix.identity(3)
    assert adjugate(IntMatrix.diagonal((2, 3))) == IntMatrix.diagonal((3, 2))


def test_adjugate_product_identity():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)])
        assert a @ adjugate(a) == IntMatrix.diagonal((determinant(a),) * k)
    singular = IntMatrix.from_rows([[1, 2], [2, 4]])
    assert singular @ adjugate(singular) == IntMatrix.diagonal((0, 0))


# === canonical bases and membership ===


def test_canonical_basis_frozen_example():
    basis = canonical_basis(cols((2, 0), (3, 1)))
    assert basis.matrix == cols((1, 1), (0, 2))
    assert basis.rank == 2
    # mutual containment, with explicit integer combinations:
    # (1,1) = -1*(2,0) + 1*(3,1),   (0,2) = -3*(2,0) + 2*(3,1)
    assert (1, 1) == (-1 * 2 + 1 * 3, -1 * 0 + 1 * 1)
    assert (0, 2) == (-3 * 2 + 2 * 3, -3 * 0 + 2 * 1)
    # (2,0) = 2*(1,1) - 1*(0,2),    (3,1) = 3*(1,1) - 1*(0,2)
    assert member((2, 0), basis) and member((3, 1), basis)


def test_canonical_basis_identity_and_rank1():
    assert canonical_basis(cols((1, 0), (0, 1))).matrix == IntMatrix.identity(2)
    single = canonical_basis(cols((4, 6)))
    assert single.matrix == cols((4, 6))
    assert single.rank == 1


def test_canonical_basis_empty_and_zero_columns():
    empty = canonical_basis(IntMatrix.from_columns([], rows=3))
    assert empty.rank == 0 and empty.ambient_dim == 3
    assert canonical_basis(cols((0, 0, 0))).rank == 0
    assert member((0, 0, 0), empty)
    assert not member((1, 0, 0), empty)


def test_canonical_basis_invariant_under_generating_set_changes():
    rng = random.Random(23)
    for _ in range(150):
        d = rng.randint(1, 4)
        n_cols = rng.randint(1, 5)
        columns = [tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(n_cols)]
        base = canonical_basis(IntMatrix.from_columns(columns, rows=d))
        # shuffling, duplicating, negating, and adding combinations of
        # existing columns leave the span unchanged
        extra = list(columns)
        rng.shuffle(extra)
        extra.append(tuple(-x for x in columns[0]))
        coeffs = [rng.randint(-2, 2) for _ in columns]
        extra.append(
            tuple(sum(q * col[i] for q, col in zip(coeffs, columns)) for i in range(d))
        )
        assert canonical_basis(IntMatrix.from_columns(extra, rows=d)).matrix == base.matrix


def test_canonical_basis_unimodular_invariance():
    # right-multiplying a full-rank generator matrix by a unimodular matrix
    # changes the basis but not the lattice
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randint(1, 4)
        a = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)])
        u = random_unimodular(k, rng.randint(0, 10), rng)
        assert determinant(u) in (1, -1)
        assert canonical_basis(a @ u).matrix == canonical_basis(a).matrix


def test_canonical_form_invariants_hold():
    rng = random.Random(37)
    for _ in range(200):
        d = rng.randint(1, 5)
        n_cols = rng.randint(0, 5)
        m = IntMatrix.from_columns(
            [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(n_cols)], rows=d
        )
        basis = canonical_basis(m)
        pivots = basis.pivot_rows()
        assert list(pivots) == sorted(pivots) and len(set(pivots)) == len(pivots)
        for j, p in enumerate(pivots):
            assert basis.matrix.at(p, j) > 0
            assert all(basis.matrix.at(i, j) == 0 for i in range(p))
            for j2 in range(j):
                assert 0 <= basis.matrix.at(p, j2) < basis.matrix.at(p, j)


def test_member_examples():
    basis = canonical_basis(cols((2, 0), (3, 1)))
    assert member((0, 2), basis)
    assert member((2, 0), basis)
    assert not member((1, 0), canonical_basis(cols((2, 0))))
    assert member((0, 0), canonical_basis(cols((5, 7))))
    with pytest.raises(ValueError):
        member((1, 2, 3), basis)


def test_member_solves_exactly():
    rng = random.Random(41)
    for _ in range(200):
        d = rng.randint(1, 4)
        columns = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        basis = canonical_basis(IntMatrix.from_columns(columns, rows=d))
        coeffs = [rng.randint(-4, 4) for _ in columns]
        combo = tuple(sum(q * col[i] for q, col in zip(coeffs, columns)) for i in range(d))
        assert member(combo, basis)


# === ideal tests ===


def test_rank1_examples():
    assert rank1_is_ideal((0, 5, 0))
    assert not rank1_is_ideal((1, 1))
    assert not rank1_is_ideal((2, 0, 3))
    with pytest.raises(ValueError):
        rank1_is_ideal((0, 0))


def test_is_ideal_2x2_worked_examples():
    assert not is_ideal_2x2(2, 0, 3, 1)
    assert is_ideal_2x2(2, 0, 2, 1)
    with pytest.raises(ValueError):
        is_ideal_2x2(1, 2, 2, 4)


def test_is_ideal_2x2_unimodular_always_ideal():
    rng = random.Random(3)
    for _ in range(200):
        u = random_unimodular(2, rng.randint(0, 8), rng)
        (a, b), (c, d) = u.column(0), u.column(1)
        assert is_ideal_2x2(a, b, c, d)


def test_is_ideal_2x2_prime_determinant_reduction():
    # when |ad-bc| is prime the criterion collapses to divisibility of one gcd
    from idealgate.exactarith import is_prime

    for a, b, c, d in product(range(-5, 6), repeat=4):
        det2 = a * d - b * c
        if det2 == 0 or not is_prime(abs(det2)):
            continue
        expected = gcd(a, c) % det2 == 0 or gcd(b, d) % det2 == 0
        assert is_ideal_2x2(a, b, c, d) == expected


def _closure_oracle_2x2(a, b, c, d):
    # independent of the divisibility criterion: an additive subgroup is an
    # ideal iff both coordinate projections of both generators stay inside
    basis = canonical_basis(IntMatrix(2, 2, (a, c, b, d)))
    return all(
        member(v, basis) for v in ((a, 0), (0, b), (c, 0), (0, d))
    )


def test_is_ideal_2x2_matches_closure_oracle_small():
    for a, b, c, d in product(range(-4, 5), repeat=4):
        if a * d - b * c == 0:
            continue
        assert is_ideal_2x2(a, b, c, d) == _closure_oracle_2x2(a, b, c, d)


def test_witness_2x2_frozen_example():
    w = witness_2x2(2, 0, 2, 1)
    assert w.unimodular == IntMatrix.from_rows([[-1, 1], [0, -1]])
    assert w.diagonal == (-2, -1)
    assert w.holds_for(IntMatrix.from_rows([[2, 2], [0, 1]]))


def test_witness_2x2_identity_and_unit_determinant():
    w = witness_2x2(1, 0, 0, 1)
    assert determinant(w.unimodular) == 1
    assert w.holds_for(IntMatrix.identity(2))
    w = witness_2x2(3, 1, 2, 1)
    assert determinant(w.unimodular) == 1
    assert w.holds_for(IntMatrix.from_rows([[3, 2], [1, 1]]))


def test_witness_2x2_rejects_non_ideal():
    with pytest.raises(ValueError):
        witness_2x2(2, 0, 3, 1)
    with pytest.raises(ValueError):
        witness_2x2(1, 2, 2, 4)


def test_witness_2x2_postconditions_sweep():
    for a, b, c, d in product(range(-6, 7), repeat=4):
        det2 = a * d - b * c
        if det2 == 0 or (gcd(a, c) * gcd(b, d)) % det2:
            continue
        w = witness_2x2(a, b, c, d)
        assert determinant(w.unimodular) == 1
        prod_matrix = IntMatrix.from_rows([[a, c], [b, d]]) @ w.unimodular
        assert prod_matrix.is_diagonal()
        assert abs(prod_matrix.at(0, 0) * prod_matrix.at(1, 1)) == abs(det2)


def test_fullrank_frozen_examples():
    w = fullrank_is_ideal(IntMatrix.diagonal((2, 3, 5)))
    assert w is not None
    assert w.diagonal == (2, 3, 5)
    assert w.unimodular == IntMatrix.identity(3)

    rejected = fullrank_is_ideal(cols((2, 0, 0), (0, 3, 0), (1, 1, 1)))
    assert rejected is None
    # confirmed independently: e1 * (1,1,1) = (1,0,0) is not in the subgroup
    basis = canonical_basis(cols((2, 0, 0), (0, 3, 0), (1, 1, 1)))
    assert not member((1, 0, 0), basis)

    w = fullrank_is_ideal(cols((2, 0), (2, 1)))
    assert w is not None
    assert w.diagonal == (2, 1)
    assert w.holds_for(cols((2, 0), (2, 1)))


def test_fullrank_rejects_singular():
    with pytest.raises(ValueError):
        fullrank_is_ideal(cols((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        fullrank_is_ideal(IntMatrix(2, 1, (1, 2)))


def test_fullrank_agrees_with_2x2_criterion():
    for a, b, c, d in product(range(-5, 6), repeat=4):
        if a * d - b * c == 0:
            continue
        w = fullrank_is_ideal(cols((a, b), (c, d)))
        assert (w is not None) == is_ideal_2x2(a, b, c, d)
        if w is not None:
            assert w.holds_for(cols((a, b), (c, d)))


def test_fullrank_accepts_random_diagonals():
    rng = random.Random(17)
    for _ in range(100):
        k = rng.randint(1, 4)
        diag = [rng.randint(1, 6) for _ in range(k)]
        w = fullrank_is_ideal(IntMatrix.diagonal(diag))
        assert w is not None and w.diagonal == tuple(diag)


def test_fullrank_acceptance_implies_diagonalization_conditions():
    # condition (a): |det| is the product of the witness diagonal;
    # condition (b): det/d_i divides the gcd of adjugate column i
    rng = random.Random(29)
    checked = 0
    while checked < 60:
        k = rng.randint(2, 3)
        a = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)])
        if determinant(a) == 0:
            continue
        w = fullrank_is_ideal(a)
        if w is None:
            continue
        checked += 1
        det_a = determinant(a)
        adj = adjugate(a)
        assert abs(det_a) == prod(w.diagonal)
        for i in range(k):
            col_gcd = gcd(*(adj.at(t, i) for t in range(k)))
            assert col_gcd % (abs(det_a) // w.diagonal[i]) == 0


def test_fullrank_rejection_means_no_divisor_pair_works():
    # exhaustive check of the diagonalization conditions over every signed divisor
    # split of the determinant, independent of the row-gcd shortcut
    from idealgate.exactarith import divisors

    for a, b, c, d in product(range(-4, 5), repeat=4):
        det2 = a * d - b * c
        if det2 == 0 or fullrank_is_ideal(cols((a, b), (c, d))) is not None:
            continue
        g_bd, g_ac = gcd(b, d), gcd(a, c)
        for d1 in divisors(abs(det2)):
            d2 = abs(det2) // d1
            # adjugate columns of [[a,c],[b,d]] have gcds gcd(b,d) and gcd(a,c)
            assert not (g_bd % (abs(det2) // d1) == 0 and g_ac % (abs(det2) // d2) == 0)


# === full Z^d decision ===


def test_is_ideal_zd_examples():
    assert not is_ideal_zd(cols((2, 0, 0), (3, 0, 1))).ideal
    decision = is_ideal_zd(cols((1, 1)))
    assert not decision.ideal and decision.reason == "support_exceeds_rank"
    decision = is_ideal_zd(cols((0, 7)))
    assert decision.ideal
    assert decision.witness.support == (1,)
    assert decision.witness.diagonal == (7,)


def test_is_ideal_zd_zero_subgroup():
    decision = is_ideal_zd(IntMatrix.from_columns([], rows=2))
    assert decision.ideal and decision.witness is None
    assert is_ideal_zd(cols((0, 0), (0, 0))).ideal


def test_is_ideal_zd_witness_reembedding():
    decision = is_ideal_zd(cols((0, 4, 0, 0), (0, 4, 0, 2)))
    assert decision.ideal
    assert decision.witness.support == (1, 3)
    basis = canonical_basis(cols((0, 4, 0, 0), (0, 4, 0, 2)))
    restricted = IntMatrix.from_rows(
        [[basis.matrix.at(i, j) for j in range(basis.rank)] for i in decision.witness.support]
    )
    assert decision.witness.holds_for(restricted)


def test_is_ideal_zd_diagonal_products():
    rng = random.Random(13)
    for _ in range(100):
        k = rng.randint(1, 4)
        diag = [rng.randint(1, 6) for _ in range(k)]
        assert is_ideal_zd(IntMatrix.diagonal(diag)).ideal


def test_is_ideal_zd_agrees_with_determinant_criteria():
    # is_ideal_zd (which reduces to the canonical basis first) against the
    # determinant criteria on the raw generators; the canonical basis of an
    # ideal is already diagonal, so a certified witness is the identity
    rng = random.Random(59)
    ideals = 0
    for trial in range(1500):
        k = rng.randint(1, 5)
        if trial % 2:
            a = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)])
        else:
            diag = IntMatrix.diagonal([rng.randint(1, 9) for _ in range(k)])
            a = diag @ random_unimodular(k, rng.randint(0, 3 * k), rng)
        if determinant(a) == 0:
            continue  # the determinant criteria need full rank
        decision = is_ideal_zd(a)
        w = fullrank_is_ideal(a)
        assert decision.ideal == (w is not None), a
        if k == 2:
            (p, q), (r, t) = a.column(0), a.column(1)
            assert decision.ideal == is_ideal_2x2(p, q, r, t)
        if decision.ideal:
            ideals += 1
            assert decision.witness.unimodular == IntMatrix.identity(k)
            assert decision.witness.diagonal == w.diagonal
            assert decision.witness.holds_for(canonical_basis(a).matrix)
    assert ideals > 600


def test_witness_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        IdealWitness((2, 0), IntMatrix.identity(2), (0, 1))
    with pytest.raises(ValueError):
        IdealWitness((2,), IntMatrix.identity(2), (0,))
    with pytest.raises(ValueError):
        IdealWitness((2, 1), IntMatrix.from_rows([[2, 0], [0, 1]]), (0, 1))
