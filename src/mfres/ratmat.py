"""Exact linear algebra over the rationals.

Matrices are tuples of row tuples of Fractions. Subspaces of Q^d are
represented canonically as the reduced row echelon form of a spanning set, so
two subspaces are equal exactly when their representations are equal. No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def as_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zero_vector(d: int) -> Vector:
    return tuple(Fraction(0) for _ in range(d))


def zero_matrix(d: int) -> Matrix:
    return tuple(zero_vector(d) for _ in range(d))


def identity(d: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    d = len(a)
    out = identity(d)
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def rref(rows: Sequence[Vector]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = tuple(tuple(row) for row in work[:r])
    return out, tuple(pivots)


def nullspace(a: Matrix, ncols: int | None = None) -> Matrix:
    """Canonical basis of {v : a v = 0}, one vector per free column."""
    if ncols is None:
        if not a:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(a[0])
    if not a:
        return identity(ncols)
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


# ---------------------------------------------------------------------------
# subspaces as canonical row spaces

Subspace = Matrix  # rows form an RREF basis; () is the zero subspace


def span(vectors: Sequence[Vector], dim: int) -> Subspace:
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return ()
    if any(len(v) != dim for v in vecs):
        raise ValueError("vector length does not match ambient dimension")
    return rref(vecs)[0]


def subspace_dim(s: Subspace) -> int:
    return len(s)


def full_space(dim: int) -> Subspace:
    return identity(dim)


def subspace_sum(a: Subspace, b: Subspace, dim: int) -> Subspace:
    return span(tuple(a) + tuple(b), dim)


def subspace_intersect(a: Subspace, b: Subspace, dim: int) -> Subspace:
    """Zassenhaus: RREF of [[A A],[B 0]]; rows with zero left half give the meet."""
    if not a or not b:
        return ()
    block = [tuple(r) + tuple(r) for r in a] + [tuple(r) + zero_vector(dim) for r in b]
    reduced, _ = rref(block)
    out = [row[dim:] for row in reduced if all(x == 0 for x in row[:dim])]
    return span(out, dim)


def contains_vector(s: Subspace, v: Vector) -> bool:
    return not any(reduce_mod(v, s))


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    return all(contains_vector(b, v) for v in a)


def kernel_of(matrix: Matrix, dim: int) -> Subspace:
    return span(nullspace(matrix, dim), dim)


def image_of(matrix: Matrix) -> Subspace:
    """Column space of the matrix, as a canonical subspace of Q^rows."""
    if not matrix:
        return ()
    cols = tuple(zip(*matrix))
    return span([tuple(c) for c in cols], len(matrix))


def map_subspace(matrix: Matrix, s: Subspace) -> Subspace:
    """Image of a subspace under the matrix, inside Q^rows."""
    if not matrix:
        return ()
    return span([mat_vec(matrix, v) for v in s], len(matrix))


def preimage_in(matrix: Matrix, target: Subspace, dim: int) -> Subspace:
    """{v : matrix @ v in target}, target a subspace of Q^rows."""
    if not matrix:
        return full_space(dim)
    # reduce each column's image modulo target, then kernel of what is left
    reduced_cols = [reduce_mod(col, target) for col in zip(*matrix)]
    return kernel_of(tuple(zip(*reduced_cols)), dim)


def reduce_mod(vec: Sequence[Fraction], s: Subspace) -> Vector:
    """Canonical representative of vec modulo the subspace: each RREF row
    clears its pivot, so the result is zero exactly when vec lies in s."""
    v = tuple(vec)
    for row in s:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        f = v[pivot]
        if f != 0:
            v = tuple(a - f * b for a, b in zip(v, row))
    return v
