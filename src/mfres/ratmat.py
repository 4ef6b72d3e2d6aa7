"""Exact linear algebra over the rationals.

Matrices are tuples of row tuples of Fractions. Subspaces of Q^d are
represented canonically as the reduced row echelon form of a spanning set, so
two subspaces are equal exactly when their representations are equal. No
floating point anywhere.

Kernels are eliminated from the right: kernel_of takes the nullspace of the
matrix with its columns reversed and reads it back, which is already the RREF
of the kernel, so one elimination gives the canonical basis.

Inside, the kernels run on Python ints: _integral scales a matrix by the lcm
of its denominators, _echelon (under rref and subspace_intersect) eliminates
by integer cross-multiplication and divides each changed row by its content,
products accumulate ints and divide once per entry, and reductions modulo a
subspace carry one common denominator. Fractions appear only at the
boundary: every entry that comes out is a Fraction (inputs may mix in ints).
The RREF of a row space is unique and each other result is an exact value,
so the outputs are the same as those of plain Fraction Gauss-Jordan
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def identity(d: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(d)) for i in range(d))


def _integral(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """The rows times the lcm of all their denominators, as ints, and that lcm."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = lcm(*(d for row in ratios for _, d in row))
    return [[n * (den // d) for n, d in row] for row in ratios], den


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content (a zero row is returned as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    ia, da = _integral(a)
    ib, db = _integral(b)
    den = da * db
    cols = list(zip(*ib))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), den) for col in cols) for row in ia)


def _echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan: the nonzero rows, each zero at the other rows'
    pivots and divided by its content, and the pivot columns."""
    work = [_primitive(row) for row in rows]
    pivots: list[int] = []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        p = top[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                work[i] = _primitive([p * x - f * y for x, y in zip(row, top)])
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return work[:len(pivots)], pivots


def rref(rows: Sequence[Vector]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    work, pivots = _echelon(_integral(rows)[0])
    out = tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(work, pivots))
    return out, tuple(pivots)


def nullspace(a: Matrix, ncols: int) -> Matrix:
    """Basis of {v : a v = 0}, one vector per free column of the RREF of a:
    1 there, 0 at the other free columns."""
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


def subspace_intersect(a: Subspace, b: Subspace, dim: int) -> Subspace:
    """Zassenhaus: RREF of [[A A],[B 0]]; rows with zero left half give the meet."""
    if not a or not b:
        return ()
    rows = _integral(tuple(a) + tuple(b))[0]
    block = [r + r for r in rows[:len(a)]] + [r + [0] * dim for r in rows[len(a):]]
    reduced, pivots = _echelon(block)
    # the rows with their pivot in the right half come last: already an RREF
    return tuple(tuple(Fraction(x, row[c]) for x in row[dim:])
                 for row, c in zip(reduced, pivots) if c >= dim)


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    return not any(any(w) for w in _residues(a, b)[0])


def kernel_of(matrix: Matrix, dim: int) -> Subspace:
    """{v : matrix @ v = 0} as a canonical subspace, from one elimination.

    The nullspace of the matrix with its columns reversed, read back in the
    original order, has each vector 1 at its own free column, 0 at the other
    free columns, and its other nonzeros at pivot columns to the right of
    its own: in reverse order, these vectors are already the RREF."""
    flipped = nullspace(tuple(row[::-1] for row in matrix), dim)
    return tuple(v[::-1] for v in reversed(flipped))


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
    # span ignores the scale of each vector, so the integer rows will do
    rows = _integral(matrix)[0]
    return span([[sum(map(mul, row, v)) for row in rows] for v in _integral(s)[0]],
                len(matrix))


def preimage_in(matrix: Matrix, target: Subspace, dim: int) -> Subspace:
    """{v : matrix @ v in target}, target a subspace of Q^rows."""
    # reduce each column's image modulo target, then kernel of what is left
    # (a common denominator does not move the kernel)
    reduced_cols = _residues(tuple(zip(*matrix)), target)[0]
    return kernel_of(tuple(zip(*reduced_cols)), dim)


def reduce_mod(vec: Sequence[Fraction], s: Subspace) -> Vector:
    """Canonical representative of vec modulo the subspace: each RREF row
    clears its pivot, so the result is zero exactly when vec lies in s."""
    (out,), den = _residues((vec,), s)
    return tuple(Fraction(x, den) for x in out)


def _residues(vectors: Sequence[Sequence], s: Subspace) -> tuple[list[list[int]], int]:
    """Integer numerators over one common denominator of reduce_mod of each
    vector. Every RREF row is zero at the other rows' pivots, so all rows
    clear their pivots at once: v - sum of v[pivot] * row."""
    vecs, dv = _integral(vectors)
    rows, d = _integral(s)
    leads = [(next(i for i, x in enumerate(row) if x), row) for row in rows]
    out = []
    for v in vecs:
        w = [d * x for x in v]
        for p, row in leads:
            f = v[p]
            if f:
                w = [x - f * y for x, y in zip(w, row)]
        out.append(w)
    return out, d * dv
