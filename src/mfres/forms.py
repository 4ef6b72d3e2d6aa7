"""Polynomial differential forms and the Chern character form.

A homogeneous p-form is a map from strictly increasing index tuples
(i_1 < ... < i_p) to polynomial coefficients; wedge products sort merged
index tuples and count inversions for the sign. Matrices of forms multiply
with entrywise wedge, which is all the supertrace calculus the factorization
invariants need: for a factorization (A, B) of f in n+1 variables with n odd,

    ch(A, B) = 2 / (n+1)! * trace((dA dB)^((n+1)/2)),

a top degree form whose coefficient represents the class of (A, B) in the
Milnor algebra. The degree 2j trace identity

    f * trace((dA dB)^j) = j * df ^ trace(A dB (dA dB)^(j-1))

is exposed as a check; it is what makes ch well defined modulo the Jacobian
ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence

from .errors import ParityError, RingMismatchError
from .polyring import Polynomial, PolyMatrix, Ring, differentiate

IndexTuple = tuple[int, ...]


def _merge_sign(a: IndexTuple, b: IndexTuple) -> tuple[IndexTuple, int]:
    """Sorted concatenation and the sign of the sorting permutation.

    Returns sign 0 when the tuples share an index.
    """
    if set(a) & set(b):
        return (), 0
    merged = list(a)
    sign = 1
    for x in b:
        pos = len(merged)
        for i, y in enumerate(merged):
            if x < y:
                pos = i
                break
        sign *= (-1) ** (len(merged) - pos)
        merged.insert(pos, x)
    return tuple(merged), sign


class DifferentialForm:
    """Immutable homogeneous form with polynomial coefficients."""

    __slots__ = ("ring", "degree", "terms")

    def __init__(self, ring: Ring, degree: int,
                 terms: Mapping[IndexTuple, Polynomial]):
        ring = tuple(ring)
        nvars = len(ring)
        if degree < 0:
            raise ValueError("negative form degree")
        # degree > nvars is allowed but necessarily has no terms
        clean: dict[IndexTuple, Polynomial] = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx!r} has wrong length for degree {degree}")
            if any(not 0 <= i < nvars for i in idx) or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx!r}")
            if coeff.ring != ring:
                raise RingMismatchError("coefficient ring differs from form ring")
            if not coeff.is_zero():
                clean[idx] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DifferentialForm is immutable")

    @staticmethod
    def zero(ring: Sequence[str], degree: int) -> "DifferentialForm":
        return DifferentialForm(tuple(ring), degree, {})

    @staticmethod
    def from_polynomial(p: Polynomial) -> "DifferentialForm":
        return DifferentialForm(p.ring, 0, {(): p})

    def coefficient(self, idx: IndexTuple) -> Polynomial:
        return self.terms.get(tuple(idx), Polynomial.zero(self.ring))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if self.ring != other.ring or self.degree != other.degree:
            raise ValueError("cannot add forms of different ring or degree")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            out[idx] = c if s is None else s + c
        return DifferentialForm(self.ring, self.degree, out)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.ring, self.degree,
                                {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def scale(self, c) -> "DifferentialForm":
        return DifferentialForm(self.ring, self.degree,
                                {i: p * c for i, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (self.ring == other.ring and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero():
            return "DifferentialForm(0)"
        names = self.ring
        bits = []
        for idx in sorted(self.terms):
            wedge_part = "^".join(f"d{names[i]}" for i in idx)
            coeff = str(self.terms[idx])
            bits.append(f"({coeff}) {wedge_part}".strip())
        return "DifferentialForm(" + " + ".join(bits) + ")"


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product; exact signs from sorted index merges."""
    if a.ring != b.ring:
        raise RingMismatchError("forms live in different rings")
    # degree beyond the variable count collapses to zero through shared indices
    degree = a.degree + b.degree
    out: dict[IndexTuple, Polynomial] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged, sign = _merge_sign(ia, ib)
            if sign == 0:
                continue
            term = ca * cb if sign == 1 else -(ca * cb)
            prev = out.get(merged)
            out[merged] = term if prev is None else prev + term
    return DifferentialForm(a.ring, degree, out)


def exterior_derivative(a: DifferentialForm) -> DifferentialForm:
    """d(c dx_S) = sum_i (dc/dx_i) dx_i ^ dx_S, summed over the form."""
    ring = a.ring
    out: dict[IndexTuple, Polynomial] = {}
    for idx, coeff in a.terms.items():
        taken = set(idx)
        for i in range(len(ring)):
            if i in taken:
                continue
            dc = differentiate(coeff, i)
            if dc.is_zero():
                continue
            merged, sign = _merge_sign((i,), idx)
            term = dc if sign == 1 else -dc
            prev = out.get(merged)
            out[merged] = term if prev is None else prev + term
    return DifferentialForm(ring, a.degree + 1, out)


def d_polynomial(p: Polynomial) -> DifferentialForm:
    return exterior_derivative(DifferentialForm.from_polynomial(p))


# ---------------------------------------------------------------------------
# matrices of forms

@dataclass(frozen=True)
class FormMatrix:
    """rows x cols matrix of homogeneous forms of one common degree."""

    rows: int
    cols: int
    degree: int
    entries: tuple[DifferentialForm, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        for e in self.entries:
            if e.degree != self.degree:
                raise ValueError("mixed degrees in a form matrix")

    @staticmethod
    def from_poly_matrix(m: PolyMatrix) -> "FormMatrix":
        return FormMatrix(m.rows, m.cols, 0,
                          tuple(DifferentialForm.from_polynomial(p) for p in m.entries))

    @staticmethod
    def entrywise_d(m: PolyMatrix) -> "FormMatrix":
        return FormMatrix(m.rows, m.cols, 1,
                          tuple(d_polynomial(p) for p in m.entries))

    @property
    def ring(self) -> Ring:
        return self.entries[0].ring

    def entry(self, i: int, j: int) -> DifferentialForm:
        return self.entries[i * self.cols + j]

    def __matmul__(self, other: "FormMatrix") -> "FormMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in form matrix product")
        degree = self.degree + other.degree
        ring = self.ring
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = DifferentialForm.zero(ring, degree)
                for k in range(self.cols):
                    acc = acc + wedge(self.entry(i, k), other.entry(k, j))
                out.append(acc)
        return FormMatrix(self.rows, other.cols, degree, tuple(out))

    def trace(self) -> DifferentialForm:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = DifferentialForm.zero(self.ring, self.degree)
        for i in range(self.rows):
            acc = acc + self.entry(i, i)
        return acc


def _product_trace(ms: Sequence[FormMatrix]) -> DifferentialForm:
    """Trace of the ordered product of nonempty ms. Only the diagonal of the
    last product is needed: with P the product of all but the last factor
    M, trace(P M) is the sum over i and k of P[i, k] ^ M[k, i]."""
    *rest, last = ms
    if not rest:
        return last.trace()
    p = rest[0]
    for m in rest[1:]:
        p = p @ m
    if p.cols != last.rows or p.rows != last.cols:
        raise ValueError("trace of a non-square product")
    acc = DifferentialForm.zero(p.ring, p.degree + last.degree)
    for i in range(p.rows):
        for k in range(p.cols):
            acc = acc + wedge(p.entry(i, k), last.entry(k, i))
    return acc


def matrix_form_product_trace(ms: Sequence[FormMatrix],
                              identity_size: int | None = None,
                              ring: Ring | None = None) -> DifferentialForm:
    """Trace of the ordered product; the empty product is the identity."""
    if not ms:
        if identity_size is None or ring is None:
            raise ValueError("empty product needs identity_size and ring")
        return DifferentialForm.from_polynomial(
            Polynomial.constant(ring, identity_size))
    return _product_trace(ms)


# ---------------------------------------------------------------------------
# factorization invariants

def chern_character_form(mf) -> DifferentialForm:
    """The top degree trace form 2/(n+1)! tr((dA dB)^((n+1)/2)).

    Defined when the number of variables n+1 is even. The result is an
    (n+1)-form; its single coefficient represents the class of the
    factorization in the Milnor algebra.
    """
    nvars = len(mf.potential.ring)
    if nvars % 2 != 0:
        raise ParityError("the character form needs an even number of variables")
    p = nvars // 2
    da, db = FormMatrix.entrywise_d(mf.A), FormMatrix.entrywise_d(mf.B)
    powers = [da @ db] * (p - 1) if p > 1 else []
    return _product_trace(powers + [da, db]).scale(Fraction(2, factorial(nvars)))


def euler_lemma_check(mf, j: int) -> bool:
    """Exact check of f tr((dA dB)^j) = j df ^ tr(A dB (dA dB)^(j-1))."""
    nvars = len(mf.potential.ring)
    if j < 1 or 2 * j > nvars:
        raise ValueError("need 1 <= j and 2j <= number of variables")
    da, db = FormMatrix.entrywise_d(mf.A), FormMatrix.entrywise_d(mf.B)
    powers = [da @ db] * (j - 1) if j > 1 else []
    lhs = _product_trace(powers + [da, db]).scale(mf.potential)
    inner = _product_trace([FormMatrix.from_poly_matrix(mf.A), db] + powers)
    rhs = wedge(d_polynomial(mf.potential), inner).scale(j)
    return lhs == rhs
