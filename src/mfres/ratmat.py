"""Exact linear algebra over the rationals, on Python ints.

A matrix becomes int rows by integral, which scales it by the lcm of its
denominators. A subspace of Q^d is kept as an Echelon, what echelon returns:
the echelon rows as primitive int lists, each zero at the other rows'
pivots, and their pivot columns. The Echelon of a subspace is unique, so two
subspaces are equal exactly when their Echelons are. Dividing each row by
its pivot entry gives the RREF (fractions), the canonical Fraction form of
the subspace, and canonical reads that form back, checking its shape as it
goes (ValueError on a subspace that is not canonical). No floating point
anywhere.

The subspace routines take and return Echelons, except that an argument
that only needs to span something, and map's result, are plain int rows:

    kernel, image, map, preimage, intersect, leq, residues

echelon eliminates by integer cross-multiplication and divides each changed
row by its content; each kernel costs one elimination (see kernel).
residues reduces several vectors modulo a subspace over one common scale,
the lcm of its pivot entries: preimage takes a kernel of the residues, and
scaling each one by its own factor would change that kernel.

rref, nullspace and mat_mul take and return Fractions (inputs may mix in
ints) and are conversions around the same core. The RREF of a row space is
unique and each other result is an exact value, so the outputs are the same
as those of plain Fraction Gauss-Jordan elimination.
"""

from __future__ import annotations

import builtins
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
Subspace = Matrix  # rows form an RREF basis; () is the zero subspace
IntRows = list[list[int]]


class Echelon(NamedTuple):
    """A subspace's working form: its echelon rows as primitive int lists,
    each zero at the other rows' pivots, and their pivot columns."""
    rows: IntRows
    pivots: list[int]


def integral(rows: Sequence[Sequence]) -> tuple[IntRows, int]:
    """The rows times the lcm of all their denominators, as ints, and that lcm."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = lcm(*(d for row in ratios for _, d in row))
    return [[n * (den // d) for n, d in row] for row in ratios], den


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content (a zero row is returned as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def fractions(form: Echelon) -> Subspace:
    """The RREF: each echelon row divided by its pivot entry."""
    rows, pivots = form
    return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots))


def canonical(s: Sequence[Sequence], dim: int) -> Echelon:
    """The Echelon of a canonical subspace, read in one pass with no
    elimination. ValueError unless every row has length dim, starts with a
    leading 1, at a pivot right of the previous row's, and every other row
    is 0 at that pivot."""
    pivots = []
    for row in s:
        if len(row) != dim:
            raise ValueError(f"a row of length {len(row)} in a subspace of Q^{dim}")
        c = next((i for i, x in enumerate(row) if x), None)
        if c is None or row[c] != 1 or (pivots and c <= pivots[-1]):
            raise ValueError("rows must be nonzero with leading 1s at increasing pivots")
        pivots.append(c)
    if any(row[c] for i, row in enumerate(s) for c in pivots[i + 1:]):
        raise ValueError("a row is nonzero at another row's pivot")
    return Echelon([_primitive(row) for row in integral(s)[0]], pivots)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    ia, da = integral(a)
    ib, db = integral(b)
    return tuple(tuple(Fraction(x, da * db) for x in row) for row in map(list(zip(*ib)), ia))


def echelon(rows: IntRows) -> Echelon:
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
    return Echelon(work[:len(pivots)], pivots)


def _free_basis(form: Echelon, ncols: int) -> tuple[IntRows, list[int]]:
    """The nullspace of the echelon rows, one primitive vector per free
    column: positive there, 0 at the other free columns. Also the free
    columns."""
    rows, pivots = form
    free = sorted(set(range(ncols)) - set(pivots))
    basis = []
    for fc in free:
        used = [(row, c) for row, c in zip(rows, pivots) if row[fc]]
        scale = lcm(*(row[c] for row, c in used))
        v = [0] * ncols
        v[fc] = scale
        for row, c in used:
            v[c] = -row[fc] * scale // row[c]
        basis.append(_primitive(v))
    return basis, free


def rref(rows: Sequence[Vector]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    form = echelon(integral(rows)[0])
    return fractions(form), tuple(form.pivots)


def nullspace(a: Matrix, ncols: int) -> Matrix:
    """Basis of {v : a v = 0}, one vector per free column of the RREF of a:
    1 there, 0 at the other free columns."""
    basis, free = _free_basis(echelon(integral(a)[0]), ncols)
    return tuple(tuple(Fraction(x, v[fc]) for x in v) for v, fc in zip(basis, free))


# ---------------------------------------------------------------------------
# subspaces

def kernel(matrix: IntRows, dim: int) -> Echelon:
    """{v : matrix @ v = 0}, from one elimination.

    The nullspace of the matrix with its columns reversed, read back in the
    original order, has each vector nonzero at its own free column, 0 at the
    other free columns, and its other nonzeros at pivot columns to the right
    of its own: in reverse order, these vectors are already an Echelon."""
    basis, free = _free_basis(echelon([row[::-1] for row in matrix]), dim)
    return Echelon([v[::-1] for v in reversed(basis)], [dim - 1 - c for c in reversed(free)])


def image(matrix: IntRows) -> Echelon:
    """Column space of the matrix."""
    return echelon([list(col) for col in zip(*matrix)])


def map(matrix: IntRows, rows: IntRows) -> IntRows:
    """The images of the rows under the matrix, which span the image of
    their span: leq reads them as they are, echelon makes them an Echelon.
    As a product, rows @ matrix^T."""
    return [[sum(builtins.map(mul, mrow, v)) for mrow in matrix] for v in rows]


def residues(vectors: IntRows, s: Echelon) -> tuple[IntRows, int]:
    """Each vector reduced modulo s, all over one common scale: v times the
    lcm of the pivot entries, minus the multiple of each row of s that
    clears its pivot. The rows are zero at the other rows' pivots, so they
    clear all pivots at once. Returns the residues and the scale."""
    rows, pivots = s
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    leads = [(c, scale // row[c], row) for row, c in zip(rows, pivots)]
    out = []
    for v in vectors:
        w = [scale * x for x in v]
        for c, f, row in leads:
            if v[c]:
                k = v[c] * f
                w = [x - k * y for x, y in zip(w, row)]
        out.append(w)
    return out, scale


def leq(vectors: IntRows, s: Echelon) -> bool:
    """Whether every vector lies in s."""
    return not any(builtins.map(any, residues(vectors, s)[0]))


def preimage(matrix: IntRows, target: Echelon, dim: int) -> Echelon:
    """{v : matrix @ v in target}: the kernel of the matrix whose columns are
    the residues of the matrix's columns modulo target."""
    cols = residues([list(col) for col in zip(*matrix)], target)[0]
    return kernel([list(row) for row in zip(*cols)], dim)


def intersect(a: IntRows, b: IntRows, dim: int) -> Echelon:
    """Zassenhaus: echelon form of [[A A],[B 0]]; the rows with their pivot
    in the right half come last, and their right halves span the meet."""
    if not a or not b:
        return Echelon([], [])
    rows, pivots = echelon([r + r for r in a] + [r + [0] * dim for r in b])
    meet = [i for i, c in enumerate(pivots) if c >= dim]
    return Echelon([rows[i][dim:] for i in meet], [pivots[i] - dim for i in meet])
