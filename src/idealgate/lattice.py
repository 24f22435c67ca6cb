"""Subgroups of Z^d as integer lattices: canonical bases, membership, ideal tests with witnesses.

A subgroup given by generator columns is represented by its canonical
column-reduced basis: pivot rows strictly increase left to right, every pivot
is positive, and in each pivot's row the entries of earlier columns are
reduced into [0, pivot).  This normal form is unique for a given column span,
so basis equality decides subgroup equality.

The paper's 2x2 criteria for Z x Z are theorems in paper.py.
"""

from __future__ import annotations

from itertools import chain, compress, count
from math import gcd, prod
from typing import Iterable, Sequence

from .exactarith import InvariantError, Record, xgcd


class IntMatrix(Record):
    """Dense arbitrary-precision integer matrix, entries in row-major order."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if rows < 1 or cols < 0:
            raise ValueError(f"bad shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

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
        return cls(rows, len(columns), tuple(chain.from_iterable(zip(*columns))))

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


# determinant, adjugate and fullrank_is_ideal are is_ideal_zd's full-rank test,
# until a diagonal check of the canonical basis replaces it.
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


class LatticeBasis(Record):
    """Canonical column-reduced basis of a subgroup of Z^d (rank = number of columns)."""

    __slots__ = ("ambient_dim", "matrix")

    def __init__(self, ambient_dim: int, matrix: IntMatrix) -> None:
        if matrix.rows != ambient_dim:
            raise ValueError("basis row count must equal the ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "matrix", matrix)
        pivots = self.pivot_rows()
        for j, p in enumerate(pivots):
            if j and p <= pivots[j - 1]:
                raise ValueError("pivot rows must strictly increase")
            row = matrix.row(p)
            pivot = row[j]
            if pivot <= 0:
                raise ValueError("pivots must be positive")
            left = row[:j]
            if left and (min(left) < 0 or max(left) >= pivot):
                raise ValueError("entries left of a pivot must be reduced into [0, pivot)")

    @property
    def rank(self) -> int:
        return self.matrix.cols

    def pivot_rows(self) -> tuple[int, ...]:
        out = []
        for j in range(self.matrix.cols):
            # the index of the first nonzero entry of column j
            p = next(compress(count(), self.matrix.column(j)), None)
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
    # lands in a free pivot row.  Keeps pivot rows sorted and every pivot
    # positive.  Each combination clears vec[lead] and touches only rows at or
    # below it, so the lead and its place k among the pivots only move forward.
    # A column changed by xgcd is size-reduced against the later pivots at
    # once (Cohen 1993, 2.4), so entries stay near the final basis's size
    # instead of growing with every combination.
    lead = k = 0
    rank = len(pivots)
    while True:
        while lead < dim and not vec[lead]:
            lead += 1
        if lead == dim:
            return
        while k < rank and pivots[k] < lead:
            k += 1
        if k == rank or pivots[k] != lead:
            if vec[lead] < 0:
                vec = [-x for x in vec]
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
            for later, p in zip(basis[k + 1 :], pivots[k + 1 :]):
                q = col[p] // later[p]
                if q:
                    for i in range(p, dim):
                        col[i] -= q * later[i]


def _echelon_basis(
    basis: list[list[int]], pivots: list[int], columns: Iterable[Sequence[int]], dim: int
) -> LatticeBasis:
    """Canonical basis of the span of an echelon start and further columns.

    basis holds the start's columns (length dim, modified in place) and
    pivots their pivot rows, strictly increasing: each column is zero above
    its pivot row and positive there.  The columns are inserted, then the
    entries left of every pivot are reduced into [0, pivot).
    """
    for vec in columns:
        _insert_column(basis, pivots, list(vec), dim)
    for j in range(len(basis)):
        p = pivots[j]
        pivot = basis[j][p]
        for j2 in range(j):
            q = basis[j2][p] // pivot
            if q:
                for i in range(p, dim):
                    basis[j2][i] -= q * basis[j][i]
    return LatticeBasis(dim, IntMatrix.from_columns(basis, rows=dim))


def canonical_basis(generators: IntMatrix) -> LatticeBasis:
    """Canonical basis of the integer column span of the generator matrix.

    Any generating set (including redundant or zero columns) yields the same
    basis, so results are directly comparable.
    """
    return _echelon_basis([], [], generators.columns(), generators.rows)


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


class IdealWitness(Record):
    """Certificate that a full-rank subgroup is an ideal.

    basis @ unimodular == Diagonal(diagonal) on the (0-based) support
    coordinates, and det(unimodular) == +-1.
    """

    __slots__ = ("diagonal", "unimodular", "support")

    def __init__(self, diagonal: tuple[int, ...], unimodular: IntMatrix, support: tuple[int, ...]) -> None:
        k = len(diagonal)
        if any(d == 0 for d in diagonal):
            raise ValueError("witness diagonal entries must be nonzero")
        if unimodular.rows != k or unimodular.cols != k or len(support) != k:
            raise ValueError("witness shape mismatch")
        # det(I) == 1, so the usual identity witness skips the Bareiss determinant
        if unimodular != IntMatrix.identity(k) and determinant(unimodular) not in (1, -1):
            raise ValueError("witness matrix is not unimodular")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "unimodular", unimodular)
        object.__setattr__(self, "support", support)

    def holds_for(self, basis_matrix: IntMatrix) -> bool:
        """Exact recheck: basis_matrix @ unimodular equals the claimed diagonal."""
        return basis_matrix @ self.unimodular == IntMatrix.diagonal(self.diagonal)


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


class ZdDecision(Record):
    """Outcome of the Z^d ideal test: a witness when ideal, a reason when not."""

    __slots__ = ("ideal", "witness", "reason")

    def __init__(self, ideal: bool, witness: IdealWitness | None = None, reason: str | None = None) -> None:
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)


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
