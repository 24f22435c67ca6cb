"""Acceptance suite: one test per criterion, every comparison exact.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Criteria with stated runtime bounds assert them with
time.perf_counter around the full computation.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from idealgate.census import (
    census_ideal_count,
    count_ideals_pp,
    count_subgroups_closed,
    count_subgroups_sum,
    enumerate_goursat_tuples,
    enumerate_subgroups_bruteforce,
    is_ideal_bruteforce,
    tuple_to_subgroup,
)
from idealgate.cli import run
from idealgate.exactarith import gaussian_binomial
from idealgate.finite import (
    FiniteSubgroup,
    ProductRing,
    cyclic_is_ideal,
    subgroup_order_two_gen,
    twogen_is_ideal,
)
from idealgate.lattice import (
    IntMatrix,
    canonical_basis,
    determinant,
    fullrank_is_ideal,
    is_ideal_2x2,
    is_ideal_zd,
    member,
)
from idealgate.probability import prob_nm, prob_pp, prob_vector_space
from matrix_helpers import random_unimodular


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num:02d}: PASS - {desc}")


@pytest.fixture(scope="module")
def prime_power_sweep():
    """One pass over every (p, r, s) with p in {2, 3}, r <= s, p^(r+s) <= 10^4.

    Records, per ring: census size vs both counting formulas, the ideal tally
    vs (r+1)(s+1), and whether the structured enumeration reproduces the
    census exactly as sets of element sets.
    """
    results = {
        "count_mismatches": [],
        "ideal_mismatches": [],
        "bijection_mismatches": [],
        "census_sizes": {},
    }
    for p in (2, 3):
        for r in range(0, 14):
            for s in range(r, 14):
                if p ** (r + s) > 10_000:
                    continue
                ring = ProductRing((p**r, p**s))
                census = enumerate_subgroups_bruteforce(ring)
                closed = count_subgroups_closed(p, r, s)
                summed = count_subgroups_sum(p, r, s)
                if not (len(census) == closed == summed):
                    results["count_mismatches"].append((p, r, s, len(census), closed, summed))
                ideals = census_ideal_count(census)
                if ideals != count_ideals_pp(r, s):
                    results["ideal_mismatches"].append((p, r, s, ideals))
                tuples = enumerate_goursat_tuples(p, r, s)
                tuple_sets = {tuple_to_subgroup(t).elements for t in tuples}
                if len(tuple_sets) != len(tuples) or tuple_sets != census.element_sets():
                    results["bijection_mismatches"].append((p, r, s))
                results["census_sizes"][(p, r, s)] = len(census)
    return results


def test_criterion_01_worked_example(capsys):
    with criterion(1, "worked example: <(2,0),(3,1)> rejected, <(2,0),(2,1)> certified"):
        code = run(["ideal", "zd", "--gens", "2,0;3,1"])
        not_ideal_doc = json.loads(capsys.readouterr().out)
        code2 = run(["ideal", "zd", "--gens", "2,0;2,1", "--witness"])
        ideal_doc = json.loads(capsys.readouterr().out)
        assert code == 0 and code2 == 0
        assert not_ideal_doc["verdict"] == "not_ideal"
        assert ideal_doc["verdict"] == "ideal"
        assert sorted(abs(d) for d in ideal_doc["witness"]["diagonal"]) == [1, 2]

        # the decision procedure itself runs in under a millisecond
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            assert not is_ideal_zd(IntMatrix.from_columns([(2, 0), (3, 1)])).ideal
            assert is_ideal_zd(IntMatrix.from_columns([(2, 0), (2, 1)])).ideal
            best = min(best, time.perf_counter() - t0)
        assert best < 0.001, f"classification took {best * 1000:.3f} ms"


def test_criterion_02_exhaustive_2x2_vs_oracle():
    with criterion(2, "2x2 criterion agrees with the membership-closure oracle on [-8,8]^4"):
        t0 = time.perf_counter()
        cases = 0
        span = range(-8, 9)
        for a in span:
            for b in span:
                for c in span:
                    for d in span:
                        if a * d - b * c == 0:
                            continue
                        cases += 1
                        basis = canonical_basis(IntMatrix(2, 2, (a, c, b, d)))
                        oracle = (
                            member((a, 0), basis)
                            and member((0, b), basis)
                            and member((c, 0), basis)
                            and member((0, d), basis)
                        )
                        assert oracle == is_ideal_2x2(a, b, c, d), (a, b, c, d)
        elapsed = time.perf_counter() - t0
        assert cases > 80_000
        assert elapsed < 30, f"{elapsed:.1f}s"


def test_criterion_03_unimodular_always_ideal():
    with criterion(3, "1000 random determinant +-1 matrices are all certified ideal"):
        rng = random.Random(20240917)
        for _ in range(1000):
            u = random_unimodular(2, rng.randint(0, 10), rng)
            assert determinant(u) in (1, -1)
            decision = is_ideal_zd(u)
            assert decision.ideal and decision.witness is not None
            (a, b), (c, d) = u.column(0), u.column(1)
            assert is_ideal_2x2(a, b, c, d)


def test_criterion_04_single_generator_vs_oracle():
    with criterion(4, "single-generator criterion matches brute force for all n,m <= 12"):
        t0 = time.perf_counter()
        cases = 0
        for n in range(1, 13):
            for m in range(1, 13):
                ring = ProductRing((n, m))
                for g in ring.elements():
                    cases += 1
                    sub = FiniteSubgroup(ring, (g,)).materialize()
                    assert cyclic_is_ideal(g, ring) == is_ideal_bruteforce(sub), (n, m, g)
        elapsed = time.perf_counter() - t0
        assert cases == sum(range(1, 13)) ** 2
        assert elapsed < 60, f"{elapsed:.1f}s"


def test_criterion_05_two_generator_vs_oracle():
    with criterion(5, "two-generator criterion and order formula match brute force for n,m <= 10"):
        t0 = time.perf_counter()
        for n in range(1, 11):
            for m in range(1, 11):
                ring = ProductRing((n, m))
                elems = list(ring.elements())
                for g1 in elems:
                    for g2 in elems:
                        sub = FiniteSubgroup(ring, (g1, g2)).materialize()
                        assert twogen_is_ideal(n, m, g1, g2) == is_ideal_bruteforce(sub), (
                            n, m, g1, g2,
                        )
                        assert subgroup_order_two_gen(n, m, g1, g2) == len(sub.elements), (
                            n, m, g1, g2,
                        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 300, f"{elapsed:.1f}s"


def test_criterion_06_subgroup_count_formulas(prime_power_sweep):
    with criterion(6, "count formulas equal the census for p in {2,3}, p^(r+s) <= 10^4"):
        assert prime_power_sweep["count_mismatches"] == []
        sizes = prime_power_sweep["census_sizes"]
        assert sizes[(2, 1, 1)] == 5
        assert sizes[(3, 1, 1)] == 6
        assert sizes[(2, 1, 2)] == 8
        assert sizes[(2, 2, 2)] == 15


def test_criterion_07_ideal_count(prime_power_sweep):
    with criterion(7, "census ideal tally equals (r+1)(s+1) on the same range"):
        assert prime_power_sweep["ideal_mismatches"] == []


def test_criterion_08_equal_prime_probability():
    with criterion(8, "P(Z_p x Z_p) = 4/(p+3), census-confirmed for p in {2,3,5}"):
        for p in (2, 3, 5, 7, 11):
            assert prob_pp(p, 1, 1).probability == Fraction(4, p + 3)
        for p in (2, 3, 5):
            census = enumerate_subgroups_bruteforce(ProductRing((p, p)))
            assert Fraction(census_ideal_count(census), len(census)) == Fraction(4, p + 3)


def test_criterion_09_crt_multiplicativity():
    with criterion(9, "P(Z_6 x Z_6) = 8/15 equals the census ratio, splitting verified"):
        report = prob_nm(6, 6)
        assert report.probability == Fraction(8, 15)
        census = enumerate_subgroups_bruteforce(ProductRing((6, 6)))
        assert Fraction(census_ideal_count(census), len(census)) == Fraction(8, 15)
        assert len(census) == report.subgroup_count
        assert census_ideal_count(census) == report.ideal_count

        # coprime-order splitting en route: counts multiply across the 2-part
        # and 3-part, and every subgroup is the sum of its torsion parts
        assert len(census) == len(
            enumerate_subgroups_bruteforce(ProductRing((2, 2)))
        ) * len(enumerate_subgroups_bruteforce(ProductRing((3, 3))))
        ring = census.ring
        for sub in census.members:
            part2 = [h for h in sub.elements if ring.element_order(h) in (1, 2, 4)]
            part3 = [h for h in sub.elements if ring.element_order(h) in (1, 3, 9)]
            assert sub.elements == {ring.add(a, b) for a in part2 for b in part3}


def test_criterion_10_vector_space_case():
    with criterion(10, "P(Z_2^3) = 1/2 census-confirmed; P(Z_p^2) = P(Z_p x Z_p)"):
        report = prob_vector_space(2, 3)
        assert report.probability == Fraction(1, 2)
        census = enumerate_subgroups_bruteforce(ProductRing((2, 2, 2)))
        assert len(census) == 16 and census_ideal_count(census) == 8
        assert (report.subgroup_count, report.ideal_count) == (16, 8)
        # the subspace count must include the zero subspace: dropping the
        # trivial term would give 2^1 / 1 = 2 > 1 already at one factor
        truncated = sum(gaussian_binomial(1, i, 2) for i in range(1, 2))
        assert Fraction(2**1, truncated) > 1
        for p in (2, 3, 5):
            assert prob_vector_space(p, 2).probability == prob_pp(p, 1, 1).probability


def test_criterion_11_goursat_bijection(prime_power_sweep):
    with criterion(11, "tuple enumeration reproduces every census as sets of element sets"):
        assert prime_power_sweep["bijection_mismatches"] == []


def test_criterion_12_rank3_spot_checks():
    with criterion(12, "k=3 spot checks and exact witness recomputation"):
        w = fullrank_is_ideal(IntMatrix.diagonal((2, 3, 5)))
        assert w is not None
        assert w.diagonal == (2, 3, 5)
        assert w.unimodular == IntMatrix.identity(3)

        rejected = IntMatrix.from_columns([(2, 0, 0), (0, 3, 0), (1, 1, 1)])
        assert fullrank_is_ideal(rejected) is None
        assert not is_ideal_zd(rejected).ideal

        rng = random.Random(67)
        witnesses = 0
        for _ in range(4000):
            a = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            )
            if determinant(a) == 0:
                continue
            w = fullrank_is_ideal(a)
            if w is None:
                continue
            witnesses += 1
            assert determinant(w.unimodular) in (1, -1)
            product_matrix = a @ w.unimodular
            assert product_matrix.is_diagonal()
            assert product_matrix == IntMatrix.diagonal(w.diagonal)
        assert witnesses > 50
