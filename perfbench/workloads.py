"""The four benchmark workloads: seeded inputs, the timed operation, the answer check.

Each workload builds one pass, a fixed list of operations, from the seed.  An
operation is ``(kind, payload)`` (for ``cli``, an argument list); ``run``
performs it through the library and returns a small comparable result; ``check`` compares that result with an independent oracle after the
timed phase and returns an error string, or None when the answer is right.

Inputs are drawn inside fixed size classes, with a fixed count per class, so
that every seed costs about the same and the median and tail percentile fall
inside one class rather than on a boundary between two.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd, prod
from random import Random

# ---------------------------------------------------------------------------
# Independent helpers (no library code)


def small_factor(n: int) -> dict[int, int]:
    """Trial-division factorization for the benchmark's own small numbers."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def next_prime(n: int) -> int:
    """Least prime >= n, by a deterministic Miller-Rabin valid below 3.3e24."""
    while not _miller_rabin(n):
        n += 1
    return n


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def det_exact(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return int(det)


def subspace_count(p: int, r: int) -> int:
    """Subspaces of F_p^r by the Goldman-Rota recurrence G(r) = 2G(r-1) + (p^(r-1) - 1)G(r-2)."""
    g_prev, g = 1, 2  # G(0), G(1)
    if r == 0:
        return 1
    for k in range(2, r + 1):
        g_prev, g = g, 2 * g + (p ** (k - 1) - 1) * g_prev
    return g


def divisor_count_of(exps: dict[int, int]) -> int:
    return prod(e + 1 for e in exps.values())


def unimodular(k: int, rng: Random, steps: int) -> list[list[int]]:
    """Rows of a k x k matrix with determinant +-1, from elementary column operations."""
    cols = [[int(i == j) for i in range(k)] for j in range(k)]
    for _ in range(steps):
        i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
        op = rng.randrange(4)
        if op < 2 and i != j:
            q = rng.choice((-2, -1, 1, 2))
            cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
        elif op == 2:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [-a for a in cols[i]]
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def lattice_index_2d(vectors: list[tuple[int, int]]) -> int:
    """Index in Z^2 of a full-rank lattice: the gcd of its generators' 2x2 minors."""
    g = 0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            (a, b), (c, d) = vectors[i], vectors[j]
            g = gcd(g, a * d - b * c)
    return g


# ---------------------------------------------------------------------------


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    tail_q = 0.5  # the tail percentile, fixed per workload (see run.py)
    measures_startup = False  # also time whole idealgate processes in a traced run

    def warmup_ops(self, ops: list) -> list:
        """The smallest operation of each kind, so warm-up costs the same for every seed."""
        smallest: dict[str, tuple] = {}
        for op in ops:
            kind = self.kind(op)
            if kind not in smallest or self.size(op) < self.size(smallest[kind]):
                smallest[kind] = op
        return list(smallest.values())

    def kind(self, op) -> str:
        return op[0]

    def size(self, op) -> int:
        """A rough cost order among operations of one kind."""
        return 0

    def same(self, a, b) -> bool:
        """Whether two passes gave the same answer for one operation."""
        return a == b


# ---------------------------------------------------------------------------
# decide: ideal and order queries


class Decide(Workload):
    name = "decide"
    tail_q = 0.99

    SMALL_POOL = (4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 64)
    ARITY3_POOL = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20)

    def make_ops(self, lib, rng: Random, small: bool) -> list:
        ops = []
        IntMatrix = lib.lattice.IntMatrix
        ks = range(2, 5) if small else range(2, 13)
        per_k = 1 if small else 4
        for k in ks:
            for _ in range(per_k):
                diag = [rng.randint(1, 9) for _ in range(k)]
                u = unimodular(k, rng, 2 * k)
                rows = [[diag[i] * u[i][j] for j in range(k)] for i in range(k)]
                ops.append(("zd", IntMatrix.from_rows(rows)))
                ops.append(("zd", IntMatrix(k, k, tuple(rng.randint(-9, 9) for _ in range(k * k)))))
        ProductRing, FiniteSubgroup = lib.finite.ProductRing, lib.finite.FiniteSubgroup
        n_pool, n_wide, n_arity3 = (4, 2, 2) if small else (30, 15, 20)
        pairs = [(rng.choice(self.SMALL_POOL), rng.choice(self.SMALL_POOL)) for _ in range(n_pool)]
        pairs += [(rng.randint(10**5, 10**6), rng.randint(10**5, 10**6)) for _ in range(n_wide)]
        for idx, (n, m) in enumerate(pairs):
            a, b = rng.randrange(n), rng.randrange(m)
            if idx % 2 == 0:
                # a unimodular change of basis of (a, 0), (0, b): always an ideal
                (x11, x12), (x21, x22) = unimodular(2, rng, 4)
                gens = ((x11 * a, x21 * b), (x12 * a, x22 * b))
            else:
                gens = ((a, b), (rng.randrange(n), rng.randrange(m)))
            sub = FiniteSubgroup(ProductRing((n, m)), gens)
            ops.append(("zn_ideal", sub))
            ops.append(("zn_order", sub))
        for idx in range(n_arity3):
            while True:
                moduli = tuple(rng.choice(self.ARITY3_POOL) for _ in range(3))
                if 500 <= prod(moduli) <= 5000:
                    break
            if idx % 2 == 0:
                diag = [rng.randrange(n) for n in moduli]
                u = unimodular(3, rng, 6)
                gens = tuple(tuple(diag[i] * u[i][j] for i in range(3)) for j in range(3))
            else:
                gens = tuple(tuple(rng.randrange(n) for n in moduli) for _ in range(2))
            ops.append(("arity3_ideal", FiniteSubgroup(ProductRing(moduli), gens)))
        rng.shuffle(ops)
        return ops

    def size(self, op) -> int:
        kind, x = op
        return x.rows if kind == "zd" else x.ring.order

    def run(self, lib, op):
        kind, x = op
        if kind == "zd":
            return lib.lattice.is_ideal_zd(x)
        if kind == "zn_order":
            return x.order()
        return lib.finite.general_is_ideal(x)

    def check(self, lib, op, result) -> str | None:
        kind, x = op
        if kind == "zd":
            return _check_zd(lib, x, result)
        ring = x.ring
        if kind == "zn_order":
            n, m = ring.moduli
            index = lattice_index_2d(list(x.generators) + [(n, 0), (0, m)])
            if result * index != n * m:
                return f"order {result} != lattice index order {n * m // index}"
            if ring.order <= 10**4 and len(lib.finite.closure(ring, x.generators)) != result:
                return f"order {result} != closure size"
            return None
        if ring.order <= 10**4:
            oracle = lib.census.is_ideal_bruteforce(x.materialize())
        else:
            oracle = lib.finite.twogen_is_ideal(*ring.moduli, *x.generators)
        return None if oracle == result else f"verdict {result} != oracle {oracle}"


def _check_zd(lib, matrix, decision) -> str | None:
    basis = lib.lattice.canonical_basis(matrix)
    oracle = all(
        lib.lattice.member(tuple(v if t == i else 0 for t, v in enumerate(col)), basis)
        for col in matrix.columns()
        for i in range(matrix.rows)
    )
    if oracle != decision.ideal:
        return f"Z^d verdict {decision.ideal} != projection oracle {oracle}"
    w = decision.witness
    if decision.ideal and basis.rank:
        if w is None:
            return "ideal without a witness"
        if w.support != basis.support():
            return "witness support differs from the basis support"
        restricted = lib.lattice.IntMatrix.from_rows(
            [[basis.matrix.at(i, j) for j in range(basis.rank)] for i in w.support]
        )
        if not w.holds_for(restricted):
            return "witness does not diagonalize the basis"
        u = w.unimodular
        if det_exact([list(u.row(i)) for i in range(u.rows)]) not in (1, -1):
            return "witness matrix is not unimodular"
    return None


# ---------------------------------------------------------------------------
# census: brute-force subgroup enumeration plus both counting formulas

# The census rings, grouped by census cost (measured on a shared 2-core x86-64
# host: S about 20-45 ms, M about 90-150 ms, L about 300-900 ms).  Moduli of the
# arity-3 rings are squarefree, so their subgroup count has a closed form.
# The set is fixed and the seed only orders the ops.  A census is a pure
# function of its ring, and its cost varies too much between rings of one
# order (and between factor orders of one ring, by up to 75%) for rings drawn
# per seed to cost the same: drawn rings moved the median between seeds by
# more than the bound.
CENSUS_RINGS = {
    "S": {
        "pp": [(4, 32), (25, 25)],
        "composite": [(6, 24), (10, 21)],
        "arity3": [(2, 7, 14), (5, 5, 13)],
    },
    "M": {
        "pp": [(8, 64), (9, 81), (27, 27)],
        "composite": [(12, 30), (15, 40), (21, 40)],
        "arity3": [(7, 7, 7), (5, 13, 13), (5, 7, 14)],
    },
    "L": {
        "pp": [(32, 64)],
        "composite": [(30, 30)],
        "arity3": [(6, 10, 10)],
    },
}


class Census(Workload):
    name = "census"
    tail_q = 0.9

    def make_ops(self, lib, rng: Random, small: bool) -> list:
        ops = []
        for cls, families in CENSUS_RINGS.items():
            if small and cls != "S":
                continue
            for family, rings in families.items():
                for moduli in rings[:1] if small else rings:
                    ops.append((family, lib.finite.ProductRing(moduli)))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, ops: list) -> list:
        return [min(ops, key=lambda op: op[1].order)]  # one census warms every code path

    def run(self, lib, op):
        family, ring = op
        census = lib.census.enumerate_subgroups_bruteforce(ring)
        tally = lib.census.census_ideal_count(census)
        if family == "arity3":
            closed = summed = prod(
                lib.probability.count_subspaces(p, e) for p, e in _prime_ranks(ring.moduli).items()
            )
        else:
            closed = summed = 1
            for p, (lo, hi) in _prime_pairs(ring.moduli).items():
                closed *= lib.census.count_subgroups_closed(p, lo, hi)
                summed *= lib.census.count_subgroups_sum(p, lo, hi)
        return len(census), tally, closed, summed

    def check(self, lib, op, result) -> str | None:
        family, ring = op
        size, tally, closed, summed = result
        if family == "arity3":
            expected = prod(subspace_count(p, e) for p, e in _prime_ranks(ring.moduli).items())
        else:
            expected = closed
        if not size == closed == summed == expected:
            return f"census size {size}, formulas {closed}/{summed}, independent {expected}"
        ideals = prod(divisor_count_of(small_factor(n)) for n in ring.moduli)
        if tally != ideals:
            return f"ideal tally {tally} != {ideals}"
        return None


def _prime_pairs(moduli: tuple[int, int]) -> dict[int, tuple[int, int]]:
    """Per prime, the sorted exponent pair of Z_n x Z_m (the ring splits by CRT)."""
    fn, fm = small_factor(moduli[0]), small_factor(moduli[1])
    return {p: tuple(sorted((fn.get(p, 0), fm.get(p, 0)))) for p in sorted(set(fn) | set(fm))}


def _prime_ranks(moduli: tuple[int, ...]) -> dict[int, int]:
    """Per prime, the dimension of the p-part of a product of squarefree cyclic rings."""
    ranks: dict[int, int] = {}
    for n in moduli:
        for p, e in small_factor(n).items():
            if e != 1:
                raise ValueError(f"modulus {n} is not squarefree")
            ranks[p] = ranks.get(p, 0) + 1
    return ranks


# ---------------------------------------------------------------------------
# prob: exact ideal probabilities


SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Prob(Workload):
    name = "prob"
    tail_q = 0.95

    def make_ops(self, lib, rng: Random, small: bool) -> list:
        def count(n: int) -> int:
            return max(1, n // 4) if small else n

        ops = []

        def smooth(limit: int) -> tuple[int, dict[int, int]]:
            n, exps = 1, {}
            while True:
                p = rng.choice(SMOOTH_PRIMES)
                if n * p > limit:
                    return n, exps
                n *= p
                exps[p] = exps.get(p, 0) + 1

        def nm(n_part, m_part):
            (n, fn), (m, fm) = n_part, m_part
            ops.append(("nm", (n, m, fn, fm)))

        def prime_near(lo: int, width: int) -> tuple[int, dict[int, int]]:
            p = next_prime(rng.randint(lo, lo + width))
            return p, {p: 1}

        for _ in range(count(8)):
            nm(smooth(10**12), smooth(10**12))
        for _ in range(count(2)):
            nm(smooth(100), smooth(100))  # n*m <= 10^4: also checked against a census
        for _ in range(count(4)):
            p, s = rng.choice((2, 3, 5, 7)), rng.randint(1, 12)
            ops.append(("pp", (p, rng.randint(0, s), s)))
        for _ in range(count(2)):
            ops.append(("vs", (rng.choice((2, 3, 5)), rng.randint(2, 8))))
        # semiprimes: the trial division runs to the smaller factor, held in a narrow window
        for _ in range(count(12)):
            p = next_prime(rng.randint(200_000, 205_000))
            q = next_prime(rng.randint(1_000_000, 4_000_000))
            nm((p * q, {p: 1, q: 1}), smooth(10**6))
        # primes: trial division runs to sqrt(p)
        for _ in range(count(8)):
            nm(prime_near(10**10, 10**8), smooth(10**6))
        for _ in range(count(4)):
            big = prime_near(10**12, 2 * 10**10) if not small else prime_near(10**10, 10**8)
            nm(big, smooth(100))
        rng.shuffle(ops)
        return ops

    def size(self, op) -> int:
        kind, x = op
        return x[0] * x[1] if kind == "nm" else x[-1]

    def run(self, lib, op):
        kind, x = op
        if kind == "nm":
            return lib.probability.prob_nm(x[0], x[1])
        if kind == "pp":
            return lib.probability.prob_pp(*x)
        return lib.probability.prob_vector_space(*x)

    def check(self, lib, op, report) -> str | None:
        kind, x = op
        if kind == "pp":
            p, r, s = x
            ok = (report.ideal_count == (r + 1) * (s + 1)
                  and report.subgroup_count == lib.census.count_subgroups_sum(p, r, s))
            return None if ok else f"prob_pp{x} = {report}"
        if kind == "vs":
            p, r = x
            ok = report.ideal_count == 2**r and report.subgroup_count == subspace_count(p, r)
            return None if ok else f"prob_vector_space{x} = {report}"
        n, m, fn, fm = x
        probability, subgroups = Fraction(1), 1
        for p in set(fn) | set(fm):
            lo, hi = sorted((fn.get(p, 0), fm.get(p, 0)))
            probability *= lib.probability.prob_pp(p, lo, hi).probability
            subgroups *= lib.census.count_subgroups_sum(p, lo, hi)
        ideals = divisor_count_of(fn) * divisor_count_of(fm)
        if (report.probability, report.subgroup_count, report.ideal_count) != (
            probability, subgroups, ideals
        ):
            return f"prob_nm({n}, {m}) = {report}, per-prime product gives {probability}"
        if n * m <= 10**4:
            census = lib.census.enumerate_subgroups_bruteforce(lib.finite.ProductRing((n, m)))
            ratio = Fraction(lib.census.census_ideal_count(census), len(census))
            if ratio != report.probability:
                return f"prob_nm({n}, {m}) = {report.probability}, census ratio {ratio}"
        return None


# ---------------------------------------------------------------------------
# cli: one idealgate process per operation


class Cli(Workload):
    name = "cli"
    tail_q = 0.9
    measures_startup = True

    def make_ops(self, lib, rng: Random, small: bool) -> list:
        ops = []
        for _ in range(1 if small else 8):
            k = rng.randint(2, 3)
            if rng.random() < 0.5:
                diag = [rng.randint(1, 9) for _ in range(k)]
                u = unimodular(k, rng, 2 * k)
                cols = [[diag[i] * u[i][j] for i in range(k)] for j in range(k)]
            else:
                cols = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
            ops.append(("ideal", "zd", "--witness", "--gens=" + _vectors(cols)))
            for sub in (("ideal", "zn"), ("order",)):
                n, m = rng.randint(2, 64), rng.randint(2, 64)
                gens = [[rng.randrange(n), rng.randrange(m)] for _ in range(2)]
                ops.append((*sub, f"--moduli={n},{m}", "--gens=" + _vectors(gens)))
            p = rng.choice((2, 3, 5))
            ops.append(("census", f"--p={p}", f"--r={rng.randint(0, 3)}", f"--s={rng.randint(0, 5)}"))
            ops.append(("prob", f"--n={rng.randint(2, 10**6)}", f"--m={rng.randint(2, 10**6)}"))
        return ops

    def kind(self, op) -> str:
        return op[0] if op[0] != "ideal" else " ".join(op[:2])

    def run(self, lib, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.run(list(op))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def document(result) -> dict:
        """The CLI's JSON document without its timing field."""
        doc = json.loads(result[1])
        doc.pop("elapsed_ms")
        return doc

    def same(self, a, b) -> bool:
        return a[0] == b[0] and self.document(a) == self.document(b)

    def check(self, lib, op, result) -> str | None:
        code, stdout, stderr = result
        if code != 0:
            return f"exit {code}: {stderr.strip()[-200:]}"
        try:
            doc = self.document(result)
        except (ValueError, KeyError) as exc:
            return f"unparseable output: {exc}"
        args = _argmap(op)
        if op[0] == "ideal" and op[1] == "zd":
            cols = _parse_vectors(args["--gens"])
            decision = lib.lattice.is_ideal_zd(lib.lattice.IntMatrix.from_columns(cols))
            expected = {"verdict": "ideal" if decision.ideal else "not_ideal"}
            if decision.ideal:
                u = decision.witness.unimodular
                expected["witness"] = {
                    "diagonal": list(decision.witness.diagonal),
                    "unimodular": [list(u.row(i)) for i in range(u.rows)],
                    "support": list(decision.witness.support),
                }
        elif op[0] in ("ideal", "order"):
            ring = lib.finite.ProductRing(tuple(int(v) for v in args["--moduli"].split(",")))
            sub = lib.finite.FiniteSubgroup(ring, tuple(_parse_vectors(args["--gens"])))
            if op[0] == "order":
                expected = {"verdict": sub.order()}
            else:
                expected = {"verdict": "ideal" if lib.finite.general_is_ideal(sub) else "not_ideal"}
        elif op[0] == "census":
            p, r, s = (int(args[k]) for k in ("--p", "--r", "--s"))
            expected = {"counts": {"subgroups": lib.census.count_subgroups_closed(p, r, s),
                                   "ideals": lib.census.count_ideals_pp(r, s)}}
        else:
            report = lib.probability.prob_nm(int(args["--n"]), int(args["--m"]))
            expected = {
                "counts": {"subgroups": report.subgroup_count, "ideals": report.ideal_count},
                "probability": {"num": report.probability.numerator,
                                "den": report.probability.denominator},
            }
        got = {key: doc.get(key) for key in expected}
        return None if got == expected else f"cli gave {got}, library gives {expected}"


def _vectors(vectors) -> str:
    return ";".join(",".join(str(v) for v in vec) for vec in vectors)


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";")]


def _argmap(op: tuple[str, ...]) -> dict[str, str]:
    """The ``--key=value`` options of a command line (values may start with '-')."""
    return dict(arg.split("=", 1) for arg in op if "=" in arg)


WORKLOADS = {w.name: w for w in (Decide, Census, Prob, Cli)}
