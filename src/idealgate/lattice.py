"""Subgroups of Z^d as integer lattices: canonical bases, membership, ideal tests with witnesses.

A subgroup given by generator columns is represented by its canonical
column-reduced basis: pivot rows strictly increase left to right, every pivot
is positive, and in each pivot's row the entries of earlier columns are
reduced into [0, pivot).  This normal form is unique for a given column span,
so basis equality decides subgroup equality.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, prod
from typing import Sequence

from .exactarith import InvariantError, xgcd


@dataclass(frozen=True)
class IntMatrix:
    """Dense arbitrary-precision integer matrix, entries in row-major order."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 0:
            raise ValueError(f"bad shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(x for row in rows for x in row))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], *, rows: int | None = None) -> "IntMatrix":
        if rows is None:
            if not columns:
                raise ValueError("row count required for an empty column list")
            rows = len(columns[0])
        if any(len(col) != rows for col in columns):
            raise ValueError("ragged columns")
        return cls(rows, len(columns), tuple(col[i] for i in range(rows) for col in columns))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = self.row(i)
            for j in range(other.cols):
                out.append(sum(row[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_diagonal(self) -> bool:
        return all(self.at(i, j) == 0 for i in range(self.rows) for j in range(self.cols) if i != j)


def determinant(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    m = [list(a.row(i)) for i in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(a: IntMatrix) -> IntMatrix:
    """Adjugate (transposed cofactor matrix): a @ adjugate(a) == determinant(a) * I.

    Defined for singular input too; the product identity still holds with det 0.
    """
    if a.rows != a.cols:
        raise ValueError("adjugate requires a square matrix")
    n = a.rows
    if n == 1:
        return IntMatrix.identity(1)
    rows = [a.row(i) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            # adj[i][j] is the (j, i) cofactor
            minor = [
                [rows[r][c] for c in range(n) if c != i]
                for r in range(n)
                if r != j
            ]
            cof = determinant(IntMatrix.from_rows(minor))
            out.append(-cof if (i + j) % 2 else cof)
    return IntMatrix(n, n, tuple(out))


@dataclass(frozen=True)
class LatticeBasis:
    """Canonical column-reduced basis of a subgroup of Z^d (rank = number of columns)."""

    ambient_dim: int
    matrix: IntMatrix

    def __post_init__(self) -> None:
        if self.matrix.rows != self.ambient_dim:
            raise ValueError("basis row count must equal the ambient dimension")
        pivots = self.pivot_rows()
        for j, p in enumerate(pivots):
            if j and p <= pivots[j - 1]:
                raise ValueError("pivot rows must strictly increase")
            pivot = self.matrix.at(p, j)
            if pivot <= 0:
                raise ValueError("pivots must be positive")
            if any(not 0 <= self.matrix.at(p, j2) < pivot for j2 in range(j)):
                raise ValueError("entries left of a pivot must be reduced into [0, pivot)")

    @property
    def rank(self) -> int:
        return self.matrix.cols

    def pivot_rows(self) -> tuple[int, ...]:
        out = []
        for j in range(self.matrix.cols):
            col = self.matrix.column(j)
            p = next((i for i, v in enumerate(col) if v), None)
            if p is None:
                raise ValueError("zero column in a basis")
            out.append(p)
        return tuple(out)

    def support(self) -> tuple[int, ...]:
        """Coordinates where the subgroup is not identically zero."""
        return tuple(
            i for i in range(self.ambient_dim)
            if any(self.matrix.at(i, j) for j in range(self.matrix.cols))
        )


def _insert_column(basis: list[list[int]], pivots: list[int], vec: list[int], dim: int) -> None:
    # Echelon insertion: combine vec against existing pivots until it dies or
    # lands in a free pivot row.  Keeps pivot rows sorted.
    while True:
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            return
        k = bisect_left(pivots, lead)
        if k == len(pivots) or pivots[k] != lead:
            basis.insert(k, vec)
            pivots.insert(k, lead)
            return
        col = basis[k]
        a, c = col[lead], vec[lead]
        if c % a == 0:
            q = c // a
            for i in range(lead, dim):
                vec[i] -= q * col[i]
        else:
            g, x, y = xgcd(a, c)
            au, cu = a // g, c // g
            for i in range(lead, dim):
                ai, ci = col[i], vec[i]
                col[i] = x * ai + y * ci
                vec[i] = au * ci - cu * ai


def canonical_basis(generators: IntMatrix) -> LatticeBasis:
    """Canonical basis of the integer column span of the generator matrix.

    Any generating set (including redundant or zero columns) yields the same
    basis, so results are directly comparable.
    """
    dim = generators.rows
    basis: list[list[int]] = []
    pivots: list[int] = []
    for j in range(generators.cols):
        _insert_column(basis, pivots, list(generators.column(j)), dim)
    for col, p in zip(basis, pivots):
        if col[p] < 0:
            for i in range(p, dim):
                col[i] = -col[i]
    for j in range(len(basis)):
        p = pivots[j]
        pivot = basis[j][p]
        for j2 in range(j):
            q = basis[j2][p] // pivot
            if q:
                for i in range(p, dim):
                    basis[j2][i] -= q * basis[j][i]
    return LatticeBasis(dim, IntMatrix.from_columns(basis, rows=dim))


def member(v: Sequence[int], basis: LatticeBasis) -> bool:
    """Whether v is an integer combination of the basis columns."""
    if len(v) != basis.ambient_dim:
        raise ValueError(f"vector length {len(v)} != ambient dimension {basis.ambient_dim}")
    residual = list(v)
    dim = basis.ambient_dim
    for j, p in enumerate(basis.pivot_rows()):
        col = basis.matrix.column(j)
        q, rem = divmod(residual[p], col[p])
        if rem:
            return False
        if q:
            for i in range(p, dim):
                residual[i] -= q * col[i]
    return not any(residual)


def rank1_is_ideal(gen: Sequence[int]) -> bool:
    """A nonzero single-generator subgroup is an ideal iff only one coordinate is nonzero."""
    nonzero = sum(1 for x in gen if x)
    if nonzero == 0:
        raise ValueError("zero generator: the trivial subgroup is handled by the caller")
    return nonzero == 1


def is_ideal_2x2(a: int, b: int, c: int, d: int) -> bool:
    """Rank-2 test in Z x Z: the span of columns (a,b), (c,d) is an ideal iff
    ad - bc divides gcd(a, c) * gcd(b, d)."""
    det2 = a * d - b * c
    if det2 == 0:
        raise ValueError("singular input: route rank <= 1 cases through rank1_is_ideal")
    return (gcd(a, c) * gcd(b, d)) % det2 == 0


@dataclass(frozen=True)
class IdealWitness:
    """Certificate that a full-rank subgroup is an ideal.

    basis @ unimodular == Diagonal(diagonal) on the (0-based) support
    coordinates, and det(unimodular) == +-1.
    """

    diagonal: tuple[int, ...]
    unimodular: IntMatrix
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.diagonal)
        if any(d == 0 for d in self.diagonal):
            raise ValueError("witness diagonal entries must be nonzero")
        if self.unimodular.rows != k or self.unimodular.cols != k or len(self.support) != k:
            raise ValueError("witness shape mismatch")
        if determinant(self.unimodular) not in (1, -1):
            raise ValueError("witness matrix is not unimodular")

    def holds_for(self, basis_matrix: IntMatrix) -> bool:
        """Exact recheck: basis_matrix @ unimodular equals the claimed diagonal."""
        return basis_matrix @ self.unimodular == IntMatrix.diagonal(self.diagonal)


def witness_2x2(a: int, b: int, c: int, d: int) -> IdealWitness:
    """Explicit unimodular witness for an ideal span of (a,b), (c,d).

    Solves a*x12 + c*x22 = 0, b*x11 + d*x21 = 0, det(X) = 1 with the parameter
    choice alpha = -1, beta = gcd(a,c)*gcd(b,d)/(ad-bc); then A @ X is diagonal.
    """
    det2 = a * d - b * c
    if det2 == 0 or (gcd(a, c) * gcd(b, d)) % det2 != 0:
        raise ValueError("not an ideal: no unimodular witness exists")
    g_ac = gcd(a, c)
    g_bd = gcd(b, d)
    alpha = -1
    beta = (g_ac * g_bd) // det2
    x12 = (-c // g_ac) * alpha
    x22 = (a // g_ac) * alpha
    x11 = (-d // g_bd) * beta
    x21 = (b // g_bd) * beta
    x = IntMatrix.from_rows([[x11, x12], [x21, x22]])
    witness = IdealWitness((-g_ac, -det2 // g_ac), x, (0, 1))
    if not witness.holds_for(IntMatrix.from_rows([[a, c], [b, d]])):
        raise InvariantError(f"witness_2x2{(a, b, c, d)} does not diagonalize")
    return witness


def fullrank_is_ideal(a: IntMatrix) -> IdealWitness | None:
    """Ideal test for a rank-k subgroup of Z^k given by a nonsingular k x k basis.

    The subgroup always sits inside the product of g_i*Z where g_i is the gcd
    of basis row i; it is an ideal exactly when the two indices agree, i.e.
    |det| equals the product of the g_i.  The witness is U = A^-1 * Diag(g_i),
    computed exactly through the adjugate.
    """
    if a.rows != a.cols:
        raise ValueError("full-rank test requires a square basis matrix")
    det_a = determinant(a)
    if det_a == 0:
        raise ValueError("singular matrix: reduce rank and support first")
    k = a.rows
    diag = [gcd(*a.row(i)) for i in range(k)]
    if abs(det_a) != prod(diag):
        return None
    adj = adjugate(a)
    u_entries = []
    for i in range(k):
        for j in range(k):
            # integrality of U: det/d_j divides every entry of adjugate column j
            q, rem = divmod(adj.at(i, j) * diag[j], det_a)
            if rem:
                raise InvariantError("fullrank_is_ideal: A^-1 * Diag(g) is not integral")
            u_entries.append(q)
    witness = IdealWitness(tuple(diag), IntMatrix(k, k, tuple(u_entries)), tuple(range(k)))
    if not witness.holds_for(a):
        raise InvariantError("fullrank_is_ideal: witness does not diagonalize")
    return witness


@dataclass(frozen=True)
class ZdDecision:
    """Outcome of the Z^d ideal test: a witness when ideal, a reason when not."""

    ideal: bool
    witness: IdealWitness | None = None
    reason: str | None = None


def is_ideal_zd(generators: IntMatrix) -> ZdDecision:
    """Decide whether the subgroup of Z^d spanned by the generator columns is an ideal.

    A rank-k ideal is a product of k nonzero principal factors, so it must be
    supported on exactly k coordinates; the zero coordinates are deleted and
    the full-rank test runs on the k x k restriction.
    """
    basis = canonical_basis(generators)
    k = basis.rank
    if k == 0:
        return ZdDecision(True, None, "zero_subgroup")
    support = basis.support()
    if len(support) > k:
        return ZdDecision(False, None, "support_exceeds_rank")
    restricted = IntMatrix.from_rows([
        [basis.matrix.at(i, j) for j in range(k)] for i in support
    ])
    witness = fullrank_is_ideal(restricted)
    if witness is None:
        return ZdDecision(False, None, "determinant_exceeds_projection_gcds")
    return ZdDecision(True, IdealWitness(witness.diagonal, witness.unimodular, support), None)
