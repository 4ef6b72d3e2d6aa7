"""Pairings attached to an isolated hypersurface singularity at the origin.

Everything here is exact arithmetic over Q in the Milnor algebra
Q[x]/(df/dx_0, ..., df/dx_n) of a potential f whose critical locus is the
origin alone.

Euler pairing. chi(X, Y) is the alternating sum of the homology dimensions of
the Hom complex of two factorizations; it is computed purely through Groebner
homology and never touches the residue route below, so the two sides of the
index identity stay independent.

Residue. The local residue functional is evaluated through the classical
transformation law: choose exponents N_i with x_i^{N_i} in the Jacobian ideal,
write x_i^{N_i} = sum_j t_ij df/dx_j, and then

    res(g) = coefficient of prod_i x_i^(N_i - 1) in g * det(t).

This vanishes on the Jacobian ideal, and the normalization res(hessian) = mu
holds as a theorem; construction fails loudly if it does not. The pairing of
two top degree forms pairs their coefficient polynomials this way.

Index identity. For n odd,

    chi(X, Y) = (-1)^(C(n+1,2)) * res(ch(X) * ch(Y))

with ch the trace form from the forms module. hrr_check reports both sides
exactly.

Theta and Ext. hochster_theta(M, N) is the difference of stable even and
odd Tor lengths along the two periodic resolution over R = Q[x]/(f): a
factorization's own, or one found in SparseColumns by syzygy steps from a
presentation's relations, with no PolyMatrix on the way. herbrand_difference is
the Ext counterpart, stable Ext^even - Ext^odd of coker(A) against coker(A')
over R: the Euler pairing's number by a second route, which reads the
homology of the resolution mapped into coker(A') and never builds the Hom
complex. Both take their homology from mf.periodic_homology. These are Q
dimensions, which no term order changes, so none of these functions takes
one: resolutions and homology run under degrevlex. Gram matrices
of either pairing over a list of inputs are assembled entry by entry and
certified positive semidefinite, when they are, by a symmetric Bareiss
elimination on ints with largest diagonal pivoting; the kernel basis it
reports is then checked against the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import (
    BudgetError,
    FactorizationError,
    InternalCheckError,
    MfresError,
    NormalizationError,
    ParityError,
    SingularityError,
)
from .forms import DifferentialForm, chern_character_form
from .groebner import (
    DEGREVLEX,
    FiniteQuotientBasis,
    GroebnerBasis,
    MonomialOrder,
    _AugmentedBasis,
    element_to_vec,
    express_in_terms,
    groebner_basis,
    normal_form,
    origin_support_check,
    quotient_dimension,
)
from .mf import (
    MatrixFactorization,
    ModulePresentation,
    cokernel_presentation,
    hom_complex,
    homology_dimensions,
    periodic_homology,
    tor_lengths,
)
from .polyring import (
    Polynomial,
    PolyMatrix,
    SparseColumns,
    hessian_determinant,
    jacobian_generators,
)
from . import ratmat


# ---------------------------------------------------------------------------
# Milnor algebra

@dataclass(frozen=True)
class MilnorAlgebra:
    """Finite dimensional Q[x]/J(f) with its standard monomial basis."""

    potential: Polynomial
    order: MonomialOrder
    jacobian_basis: GroebnerBasis
    basis: FiniteQuotientBasis
    mu: int
    hessian: Polynomial

    @property
    def ring(self):
        return self.potential.ring

    def reduce(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self.jacobian_basis)

    def coordinates(self, p: Polynomial) -> tuple[Fraction, ...]:
        """Coefficients of the class of p on the standard monomial basis."""
        reduced = self.reduce(p)
        return tuple(reduced.coefficient(exps)
                     for _, exps in self.basis.standard_monomials)


@lru_cache(maxsize=None)
def milnor_algebra(f: Polynomial, order: MonomialOrder = DEGREVLEX) -> MilnorAlgebra:
    """Build the Milnor algebra, insisting on one singular point at 0.

    Raises SingularityError when f does not vanish at the origin, when the
    singularity is not isolated, when critical points sit away from the
    origin, or when f is not singular at all (mu = 0).
    """
    if f.is_zero():
        raise SingularityError("potential is identically zero")
    if f.constant_term() != 0:
        raise SingularityError("potential does not vanish at the origin")
    gb = groebner_basis(jacobian_generators(f), order)
    q = quotient_dimension(gb)
    if q is None:
        raise SingularityError("non-isolated singularity: Jacobian quotient is infinite dimensional")
    if not origin_support_check(gb):
        raise SingularityError("critical points away from the origin")
    if q.dimension == 0:
        raise SingularityError("potential is nonsingular (mu = 0)")
    return MilnorAlgebra(potential=f, order=order, jacobian_basis=gb,
                         basis=q, mu=q.dimension,
                         hessian=hessian_determinant(f))


# ---------------------------------------------------------------------------
# residue

@dataclass(frozen=True)
class ResidueFunctional:
    """Linear functional on the Milnor algebra with res(hessian) = mu."""

    algebra: MilnorAlgebra
    values: tuple[Fraction, ...]  # one per standard monomial

    def evaluate(self, p: Polynomial) -> Fraction:
        coords = self.algebra.coordinates(p)
        return sum((c * v for c, v in zip(coords, self.values)), Fraction(0))


@lru_cache(maxsize=None)
def residue_functional(alg: MilnorAlgebra) -> ResidueFunctional:
    """Classical local residue via the transformation law to pure powers."""
    f = alg.potential
    ring = alg.ring
    nvars = len(ring)
    jac = jacobian_generators(f)

    powers: list[int] = []
    for i in range(nvars):
        var = Polynomial.variable(ring, i)
        found = None
        for e in range(1, alg.mu + 1):
            if normal_form(var ** e, alg.jacobian_basis).is_zero():
                found = e
                break
        if found is None:
            raise InternalCheckError("variable power never entered the Jacobian ideal")
        powers.append(found)

    rows: list[list[Polynomial]] = []
    for i in range(nvars):
        target = Polynomial.variable(ring, i) ** powers[i]
        coords = express_in_terms(target, jac, alg.order)
        if coords is None:
            raise InternalCheckError("lift of a variable power failed")
        rows.append(coords)
    det = PolyMatrix.from_rows(rows).determinant()

    target_exps = tuple(e - 1 for e in powers)
    values = []
    for _, exps in alg.basis.standard_monomials:
        prod = Polynomial.monomial(ring, exps) * det
        values.append(prod.coefficient(target_exps))
    rf = ResidueFunctional(algebra=alg, values=tuple(values))

    hess_coords = alg.coordinates(alg.hessian)
    if all(c == 0 for c in hess_coords):
        raise NormalizationError("hessian class vanishes in the Milnor algebra")
    if rf.evaluate(alg.hessian) != alg.mu:
        raise NormalizationError(
            f"residue of the hessian is {rf.evaluate(alg.hessian)}, expected mu = {alg.mu}")
    return rf


def residue_pairing(rf: ResidueFunctional, a: DifferentialForm,
                    b: DifferentialForm) -> Fraction:
    """Residue of the product of two top degree forms."""
    nvars = len(rf.algebra.ring)
    if a.degree != nvars or b.degree != nvars:
        raise ValueError("residue pairing takes top degree forms")
    top = tuple(range(nvars))
    return rf.evaluate(a.coefficient(top) * b.coefficient(top))


# ---------------------------------------------------------------------------
# Euler pairing and the index identity

def euler_pairing(x: MatrixFactorization, y: MatrixFactorization) -> int:
    """chi(x, y): even minus odd homology of the Hom complex."""
    h_even, h_odd = homology_dimensions(hom_complex(x, y))
    return h_even - h_odd


def herbrand_difference(x: MatrixFactorization, y: MatrixFactorization) -> int:
    """dim Ext^even - dim Ext^odd of the stable Ext pair of coker(A) against
    coker(A') over R, a second route to chi(x, y) that builds no Hom complex.

    Hom over R from the periodic resolution (A, B) of coker(A) into
    N = coker(A') is the two periodic complex N^r --A^T--> N^r --B^T--> N^r,
    so the pair is the homology of (A^T, B^T) with N.
    """
    if x.potential != y.potential:
        raise FactorizationError("factorizations have different potentials")
    e_even, e_odd = periodic_homology(*(m.transpose() for m in x.certified),
                                      cokernel_presentation(y))
    return e_even - e_odd


def chern_milnor_class(mf: MatrixFactorization,
                       alg: MilnorAlgebra) -> tuple[Fraction, ...]:
    """Coordinates in the Milnor algebra of the trace form coefficient."""
    if mf.potential != alg.potential:
        raise MfresError("factorization and algebra have different potentials")
    ch = chern_character_form(mf)
    top = tuple(range(len(alg.ring)))
    return alg.coordinates(ch.coefficient(top))


@dataclass(frozen=True)
class HrrReport:
    chi: int
    residue_side: Fraction
    sign: int
    equal: bool


def hrr_check(left: MatrixFactorization, right: MatrixFactorization) -> HrrReport:
    """Both sides of chi = sign * res(ch ch'), computed independently."""
    if left.potential != right.potential:
        raise MfresError("factorizations have different potentials")
    nvars = len(left.potential.ring)
    if nvars % 2 != 0:
        raise ParityError("index identity needs an even number of variables")
    chi = euler_pairing(left, right)
    alg = milnor_algebra(left.potential)
    rf = residue_functional(alg)
    res = residue_pairing(rf, chern_character_form(left), chern_character_form(right))
    sign = -1 if (nvars * (nvars - 1) // 2) % 2 else 1
    return HrrReport(chi=chi, residue_side=res, sign=sign, equal=(chi == sign * res))


# ---------------------------------------------------------------------------
# theta

PairingInput = Union[MatrixFactorization, ModulePresentation]

_RESOLUTION_CAP = 30


def _as_presentation(item: PairingInput) -> ModulePresentation:
    if isinstance(item, MatrixFactorization):
        return cokernel_presentation(item)
    return item


def _syzygy_step(d: SparseColumns, f: Polynomial) -> SparseColumns:
    """The next map of the resolution over R: its columns are the canonical
    generators of the syzygies over R of the columns of d, the preimage of
    f Q[x]^rows in Q[x]^cols, monic and then cleared together."""
    syz = _AugmentedBasis(list(d.columns), d.rows, d.ring, DEGREVLEX,
                          [{(i, e): c for e, c in f.items()} for i in range(d.rows)]).syzygies()
    return SparseColumns.cleared(d.ring, d.cols, syz)


def hochster_theta(m: PairingInput, n_module: ModulePresentation) -> int:
    """theta(M, N) = stable even Tor length minus stable odd Tor length.

    A factorization input uses its own two periodic resolution directly. A raw
    presentation is resolved over R by canonical syzygy steps until two maps
    two steps apart coincide literally, d_p = d_(p+2); the homology of the
    periodic complex (d_p, d_(p+1)) tensored with N is then the stable pair
    (Tor_p, Tor_(p+1)), and the parity of p decides which length is the even
    one. The lengths are Q dimensions, so no term order enters: the syzygy
    steps and the window run under degrevlex.
    """
    if isinstance(m, MatrixFactorization):
        t_even, t_odd = tor_lengths(m, n_module)
        return t_even - t_odd

    f = m.potential
    if f != n_module.potential:
        raise MfresError("presentations have different potentials")

    relations = [element_to_vec(r) for r in m.relations]
    maps = [SparseColumns.cleared(f.ring, m.ambient_rank, relations)]  # maps[p-1] = d_p
    for _ in range(2, _RESOLUTION_CAP + 1):
        if not maps[-1].cols:
            return 0  # resolution terminated; stable Tor vanishes
        maps.append(_syzygy_step(maps[-1], f))
        if len(maps) >= 3 and maps[-1] == maps[-3]:
            break
    else:
        raise MfresError("resolution did not become two periodic within the step cap; "
                         "pass a matrix factorization instead")
    p = len(maps) - 2
    tor_p, tor_next = periodic_homology(maps[p - 1], maps[p], n_module)
    return tor_p - tor_next if p % 2 == 0 else tor_next - tor_p


# ---------------------------------------------------------------------------
# Gram matrices and positivity

@dataclass(frozen=True)
class GramMatrix:
    labels: tuple[str, ...]
    pairing: str
    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.labels)


def _signed_theta_sign(nvars: int) -> int:
    if nvars % 2 != 0:
        raise ParityError("signed theta needs an even number of variables")
    return -1 if (nvars // 2) % 2 else 1


PAIRINGS = ("euler", "theta", "signed_theta")


def gram_matrix(items: Sequence[PairingInput], pairing: str) -> GramMatrix:
    """Symmetric pairing matrix over the items, one entry at a time; each
    entry is an order free difference of Q dimensions."""
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    if not items:
        raise ValueError("need at least one item")
    check_gram_size(len(items))
    labels = tuple(it.label or f"item{i}" for i, it in enumerate(items))
    n = len(items)

    grid = [[0] * n for _ in range(n)]
    if pairing == "euler":
        for it in items:
            if not isinstance(it, MatrixFactorization):
                raise MfresError("euler gram entries need matrix factorizations")
        for i in range(n):
            for j in range(n):
                grid[i][j] = euler_pairing(items[i], items[j])
        for i in range(n):
            for j in range(i):
                if grid[i][j] != grid[j][i]:
                    raise MfresError("euler pairing is not symmetric on this input")
    else:
        presentations = [_as_presentation(it) for it in items]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = hochster_theta(items[i], presentations[j])
    if pairing == "signed_theta":
        nvars = len(items[0].potential.ring)
        sign = _signed_theta_sign(nvars)
        grid = [[sign * v for v in row] for row in grid]
    entries = tuple(tuple(row) for row in grid)
    return GramMatrix(labels=labels, pairing=pairing, entries=entries)


# largest Gram matrix that gram_matrix builds (n^2 pairings) and that
# is_positive_semidefinite accepts: the elimination and the kernel cost about
# the cube of the size, more as the entries grow
MAX_GRAM_SIZE = 128
# and its largest entry in bits: pivots and kernel coordinates are ratios of
# minors, under MAX_GRAM_SIZE * (MAX_GRAM_ENTRY_BITS + 4) bits by Hadamard
MAX_GRAM_ENTRY_BITS = 64


def check_gram_size(n: int) -> None:
    """BudgetError when a Gram matrix of size n is over the budget."""
    if n > MAX_GRAM_SIZE:
        raise BudgetError(f"gram matrix of size {n} exceeds MAX_GRAM_SIZE = {MAX_GRAM_SIZE}")


@dataclass(frozen=True)
class PsdReport:
    psd: bool
    kernel_basis: tuple[tuple[Fraction, ...], ...]
    negative_pivot: Fraction | None = None


def is_positive_semidefinite(g: GramMatrix) -> PsdReport:
    """Symmetric Bareiss elimination with largest diagonal pivoting, the
    first largest on a tie; kernel basis when PSD.

    The Gram matrix is scaled to ints by den. After each pivot the remaining
    block is the Schur complement times previous / den, previous the last
    pivot and a positive leading principal minor, so the signs and the order
    of its entries are those of the Schur complement of the Gram matrix: the
    first pivot that is not positive gives the verdict, and a negative one is
    the Schur complement entry pivot / (previous * den). A PSD verdict is
    checked: G v = 0 for each of the n - rank kernel vectors, or
    InternalCheckError."""
    n = g.size
    check_gram_size(max([n, len(g.entries)] + [len(row) for row in g.entries]))
    m = [[Fraction(v) for v in row] for row in g.entries]
    if any(abs(v.numerator).bit_length() > MAX_GRAM_ENTRY_BITS for row in m for v in row):
        raise BudgetError(f"a gram entry exceeds MAX_GRAM_ENTRY_BITS = {MAX_GRAM_ENTRY_BITS}")
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise MfresError("gram matrix is not symmetric")
    ints, den = ratmat.integral(m)
    work = [row[:] for row in ints]
    previous, rank = 1, 0
    for k in range(n):
        pivot_index = max(range(k, n), key=lambda i: work[i][i])
        p = work[pivot_index][pivot_index]
        if p < 0:
            return PsdReport(psd=False, kernel_basis=(),
                             negative_pivot=Fraction(p, previous * den))
        if p == 0:
            # all remaining diagonals are <= 0; PSD exactly when the block is zero
            if any(work[i][j] for i in range(k, n) for j in range(k, n)):
                return PsdReport(psd=False, kernel_basis=(), negative_pivot=None)
            break
        if pivot_index != k:
            work[k], work[pivot_index] = work[pivot_index], work[k]
            for row in work:
                row[k], row[pivot_index] = row[pivot_index], row[k]
        top = work[k]
        for row in work[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // previous
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        previous = p
        rank += 1
    kernel = ratmat.nullspace(tuple(tuple(row) for row in m), n)
    if len(kernel) != n - rank or any(map(any, ratmat.map(ints, ratmat.integral(kernel)[0]))):
        raise InternalCheckError(f"gram kernel basis is not {n - rank} vectors with G v = 0")
    return PsdReport(psd=True, kernel_basis=tuple(kernel))


# ---------------------------------------------------------------------------
# formal integer combinations of classes

def combination_pairing(gram: GramMatrix, left: Sequence[int],
                        right: Sequence[int]) -> int:
    """Bilinear extension of the pairing to integer combinations of items."""
    if len(left) != gram.size or len(right) != gram.size:
        raise ValueError("coefficient length does not match the gram matrix")
    total = 0
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            total += a * b * gram.entries[i][j]
    return total


def combination_class(classes: Sequence[tuple[Fraction, ...]],
                      coeffs: Sequence[int]) -> tuple[Fraction, ...]:
    """Linear extension of Milnor algebra classes to integer combinations."""
    if len(classes) != len(coeffs):
        raise ValueError("one coefficient per class required")
    if not classes:
        return ()
    width = len(classes[0])
    out = [Fraction(0)] * width
    for vec, c in zip(classes, coeffs):
        for i, v in enumerate(vec):
            out[i] += c * v
    return tuple(out)
