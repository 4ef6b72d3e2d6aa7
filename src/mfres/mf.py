"""Matrix factorizations and their two periodic homological algebra.

A factorization of a potential f is a pair of r x r polynomial matrices with
A B = B A = f I, checked once, when it is built. It presents the two periodic complex

    ... -> P_1 --A--> P_0 --B--> P_1 --A--> P_0 -> ...

so d restricted to the odd summand is A and to the even summand is B. The
shift swaps the roles, (A, B)[1] = (B, A); the dual transposes both matrices.

The Hom complex between factorizations (A, B) and (A', B') is again two
periodic, on Hom(P_even, P'_even) + Hom(P_odd, P'_odd) in even degree and the
mixed terms in odd degree, with differential d(alpha) = d' alpha - (-1)^|alpha|
alpha d. Flattening matrix entries row major, vec(M X N) = (M (x) N^T) vec(X),
turns both differentials into 2 x 2 block matrices of Kronecker products of
A, B, A', B' with identities (see hom_complex).

validate_mf keeps A and B as the SparseColumns it multiplied out, and every
route to homology starts there, never from the PolyMatrix again: hom_complex
places its Kronecker blocks from them and checks d o d = 0 without a product
(every block is exactly its block of factor entries, so by the mixed product
rule each block of either composite is f I - f I = 0); tor_lengths passes
them on as they are, herbrand_difference their transposes. One denominator
serves a whole matrix, since a column scaled alone would change the kernel
coordinates its tag records.

One routine, periodic_homology, gives the homology of every two periodic
complex here: the Hom complex, and the periodic resolution over
R = Q[x]/(f) (Eisenbud 1980) tensored with a module N (Tor) or mapped into
it (Ext). Homology dimensions are counts of leading terms: one Groebner
basis per differential holds both its kernel and its image, and the
relations of N ride along in the same basis. The results are honest Q
dimensions, never mod p shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FactorizationError, InternalCheckError
from .groebner import (DEGREVLEX, FreeModuleElement, _AugmentedBasis, _Basis, _leading_gap,
                       _packing, element_to_vec)
from .polyring import Polynomial, PolyMatrix, SparseColumns, _cleared_product, to_string


@dataclass(frozen=True)
class MatrixFactorization:
    """A pair (A, B) with A B = B A = potential * identity, checked on construction."""

    potential: Polynomial
    A: PolyMatrix
    B: PolyMatrix
    label: str = field(default="", compare=False)
    # (A, B) as SparseColumns, set by validate_mf once the products pass
    _forms: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_mf(self)

    @property
    def rank(self) -> int:
        return self.A.rows

    @property
    def ring(self):
        return self.potential.ring

    @property
    def certified(self) -> tuple[SparseColumns, SparseColumns]:
        """(A, B) as validate_mf certified them; every route to homology reads these."""
        if self._forms is None:
            raise InternalCheckError("homology of a factorization that was not certified")
        return self._forms


def validate_mf(candidate: MatrixFactorization) -> MatrixFactorization:
    """Check A B = B A = f I on integer forms of A and B; raise naming the
    entry, or keep the forms on the factorization as certified."""
    a, b, f = candidate.A, candidate.B, candidate.potential
    r = a.rows
    if a.cols != r or b.rows != r or b.cols != r:
        raise FactorizationError("matrices must be square of equal size")
    if r == 0:
        raise FactorizationError("rank zero factorizations are not allowed")
    if f.is_zero():
        raise FactorizationError("potential must be a nonzero polynomial")
    if a.ring != f.ring or b.ring != f.ring:
        raise FactorizationError("matrix entries and potential live in different rings")
    forms = SparseColumns.of(a), SparseColumns.of(b)
    den = forms[0].den * forms[1].den
    scalar = {e: den * c for e, c in f.items()}
    for name, left, right in (("A*B", *forms), ("B*A", *reversed(forms))):
        wrong = {}  # (i, j) -> the nonzero terms of an entry that is not f or 0
        for j, column in enumerate(_cleared_product(left, right)):
            entries = {j: {}}
            for (i, e), c in column.items():
                if c:
                    entries.setdefault(i, {})[e] = c
            wrong.update(((i, j), t) for i, t in entries.items() if t != (scalar if i == j else {}))
        if wrong:
            i, j = min(wrong)  # the first in row major order, not in column order
            got = Polynomial._trusted(f.ring, {e: Fraction(c, den) for e, c in wrong[i, j].items()})
            raise FactorizationError(
                f"product {name} mismatch at entry ({i + 1},{j + 1}): "
                f"expected {to_string(f) if i == j else 0}, found {to_string(got)}")
    object.__setattr__(candidate, "_forms", forms)
    return candidate


def shift(mf: MatrixFactorization) -> MatrixFactorization:
    """[1]: swap the two matrices; an involution realizing -[(A, B)] in K0."""
    label = mf.label[:-3] if mf.label.endswith("[1]") else (mf.label + "[1]" if mf.label else "")
    return MatrixFactorization(mf.potential, mf.B, mf.A, label)


def dual(mf: MatrixFactorization) -> MatrixFactorization:
    """Transpose both matrices; an involution."""
    label = mf.label[:-1] if mf.label.endswith("*") else (mf.label + "*" if mf.label else "")
    return MatrixFactorization(mf.potential, mf.A.transpose(), mf.B.transpose(), label)


# ---------------------------------------------------------------------------
# module presentations

@dataclass(frozen=True)
class ModulePresentation:
    """Cokernel presentation of a module over the hypersurface ring
    R = Q[x]/(potential): ambient_rank rows, one relation per column. The
    relations f * e_i are implied everywhere the presentation is used.
    """

    ambient_rank: int
    relations: tuple[FreeModuleElement, ...]
    potential: Polynomial
    label: str = field(default="", compare=False)

    def __post_init__(self):
        for rel in self.relations:
            if rel.rank != self.ambient_rank:
                raise ValueError("relation rank does not match ambient rank")


def cokernel_presentation(mf: MatrixFactorization) -> ModulePresentation:
    """coker(A) as a module over R = Q[x]/(f); relations are A's columns."""
    cols = tuple(FreeModuleElement(mf.A.column(j)) for j in range(mf.A.cols))
    return ModulePresentation(ambient_rank=mf.rank, relations=cols,
                              potential=mf.potential, label=mf.label)


# ---------------------------------------------------------------------------
# sparse integer differentials and hom complexes

@dataclass(frozen=True)
class TwoPeriodicComplex:
    """Two free terms with differentials both ways; composites vanish. The
    differentials are SparseColumns; this is the one public constructor that
    takes PolyMatrix ones, built by hand, and converts them once. The ranks
    of the terms are read off the shape of d_even_to_odd."""

    d_even_to_odd: SparseColumns
    d_odd_to_even: SparseColumns

    def __post_init__(self):
        for name in ("d_even_to_odd", "d_odd_to_even"):
            object.__setattr__(self, name, SparseColumns.of(getattr(self, name)))
        if (self.d_odd_to_even.rows, self.d_odd_to_even.cols) != (self.rank_even, self.rank_odd):
            raise ValueError("odd-to-even differential has wrong shape")

    @property
    def rank_even(self) -> int:
        return self.d_even_to_odd.cols

    @property
    def rank_odd(self) -> int:
        return self.d_even_to_odd.rows

    def is_complex(self) -> bool:
        """Both composites vanish, multiplied out in ints on the columns of
        the two differentials, building no Polynomial."""
        eo, oe = self.d_even_to_odd, self.d_odd_to_even
        return not any(any(column.values()) for m, n in ((oe, eo), (eo, oe))
                       for column in _cleared_product(m, n))


# The blocks of the two Hom differentials of hom_complex's docstring, (row
# block, column block) -> (side, factor, sign), side 0 for `left` and 1 for
# `right`, factor 0 for A and 1 for B: a factor M of `right` enters as
# M (x) I_r, one of `left` as I_r' (x) M^T.
_HOM_BLOCKS = (
    {(0, 0): (1, 1, 1), (0, 1): (0, 1, -1), (1, 0): (0, 0, -1), (1, 1): (1, 0, 1)},
    {(0, 0): (1, 0, 1), (0, 1): (0, 1, 1), (1, 0): (0, 0, 1), (1, 1): (1, 1, 1)},
)


def _kron(m: SparseColumns, r: int, rp: int, transpose: bool):
    """Nonzero terms (row, col, exps, c) of m (x) I_r, or if transpose of
    I_rp (x) m^T, for an r x r matrix m."""
    for b, column in enumerate(m.columns):
        for (a, e), c in column.items():
            for t in range(rp if transpose else r):
                yield (t * r + b, t * r + a, e, c) if transpose else (a * r + t, b * r + t, e, c)


def _check_kron(d: SparseColumns, blocks: dict, forms, r: int, rp: int) -> None:
    """Raise unless d is exactly its Kronecker blocks. Index arithmetic
    traces each stored term back to the factor term it must equal, so the
    stored terms match distinct terms of the blocks, and d stores as many
    terms as the blocks have: the match is one to one."""
    half = r * rp
    kron = {block: (side, forms[side][factor], sign * (d.den // forms[side][factor].den))
            for block, (side, factor, sign) in blocks.items()}  # (side, M, scale of M in d)
    if sum(map(len, d.columns)) != sum(sum(map(len, m.columns)) * (r if side else rp)
                                       for side, m, _ in kron.values()):
        raise InternalCheckError("hom differential does not hold its Kronecker blocks")
    for j, column in enumerate(d.columns):
        inp, lj = divmod(j, half)
        q, u = divmod(lj, r)
        for (i, e), c in column.items():
            out, li = divmod(i, half)
            side, m, scale = kron.get((out, inp), (0, None, 0))  # scale 0: off the blocks
            p, t = divmod(li, r)
            if side:  # M (x) I_r: entry (a r + t, b r + t) is M[a, b]
                want = m.columns[q].get((p, e)) if t == u else None
            else:  # I_r' (x) M^T: entry (t r + b, t r + a) is M[a, b]
                want = m.columns[t].get((u, e)) if p == q and scale else None
            if want is None or want * scale != c:
                raise InternalCheckError(f"hom differential entry ({i}, {j}) is not its "
                                         f"Kronecker entry")


def hom_complex(left: MatrixFactorization, right: MatrixFactorization) -> TwoPeriodicComplex:
    """Hom(left, right) as a two periodic complex of free modules.

    Even coordinates flatten (alpha_0: P0 -> P0', alpha_1: P1 -> P1') row major,
    odd coordinates flatten (beta_0: P0 -> P1', beta_1: P1 -> P0'). With
    d|odd = A and d|even = B on both sides,

        d(alpha_0, alpha_1) = (B' alpha_0 - alpha_1 B, A' alpha_1 - alpha_0 A)
        d(beta_0,  beta_1)  = (A' beta_0 + beta_1 B,  B' beta_1 + beta_0 A).

    Row major, vec(M X N) = (M (x) N^T) vec(X), so with r = rank(left) and
    r' = rank(right) the two differentials are the block matrices

        even to odd: [[B' (x) I_r, -(I_r' (x) B^T)], [-(I_r' (x) A^T), A' (x) I_r]]
        odd to even: [[A' (x) I_r,   I_r' (x) B^T ], [  I_r' (x) A^T,  B' (x) I_r]]

    placed as SparseColumns over one common denominator, the product of the
    four factors' denominators, read off the columns validate_mf certified.
    Then d o d = 0 needs no product:
      - A B = B A = f I and A' B' = B' A' = f I hold on those columns;
      - every block is checked to be exactly its Kronecker block above;
      - so by (M (x) N)(M' (x) N') = M M' (x) N N', each diagonal block of
        either composite is M' N' (x) I - I (x) (M N)^T = f I - f I and each
        off-diagonal block is M' (x) N^T - M' (x) N^T, both zero.
    The check is one pass over the nonzero terms.
    """
    if left.potential != right.potential:
        raise FactorizationError("factorizations have different potentials")
    forms = left.certified, right.certified
    r, rp = left.rank, right.rank
    half = r * rp
    den = forms[0][0].den * forms[0][1].den * forms[1][0].den * forms[1][1].den

    def differential(blocks: dict) -> SparseColumns:
        columns = [{} for _ in range(2 * half)]
        for (out, inp), (side, factor, sign) in blocks.items():
            m = forms[side][factor]
            scale = sign * (den // m.den)
            for row, col, e, c in _kron(m, r, rp, not side):
                columns[inp * half + col][out * half + row, e] = scale * c
        d = SparseColumns(left.ring, 2 * half, tuple(columns), den)
        _check_kron(d, blocks, forms, r, rp)
        return d

    return TwoPeriodicComplex(*map(differential, _HOM_BLOCKS))


# ---------------------------------------------------------------------------
# homology of two periodic complexes: Hom, and Tor and Ext against a module

def periodic_homology(d_eo: SparseColumns, d_oe: SparseColumns,
                      module: ModulePresentation | None = None) -> tuple[int, int]:
    """Exact Q dimensions (ker d_eo / im d_oe, ker d_oe / im d_eo) of a two
    periodic complex, or of the complex tensored with a module N.

    Each differential goes column by column into one tag-augmented Groebner
    basis, with no Polynomial or Fraction in between; the common denominator
    scales the whole map, which changes neither kernel nor image. That basis
    holds minimal bases of both its kernel and its image, and each dimension
    is the count of leading terms of a kernel outside the other image, after
    an exact check that the image lies in the kernel. With N = Q[x]^s / span n_j,
    a map m acts as m (x) I_s, and the relations of N in each of its m.rows
    target blocks go in as untagged rows: the kernel becomes the preimage of
    the relations, which holds those over the source, and the image takes in
    the relations over the target.

    The dimensions do not depend on the module order, as long as a kernel
    and the image it is counted against share one, so each free term gets
    the order its outgoing differential induces (Schreyer 1980), over
    degrevlex: F_e, the source of d_eo, orders e_j by the leading term of
    column j of d_eo, position over term on F_o; F_o orders e_i by the
    leading term of column i of d_oe in that order on F_e. The run of d_eo
    has F_o as its first block and F_e as its tags, the run of d_oe the
    reverse, so ker d_eo (tags of the first run) and im d_oe (first block of
    the second) are both under F_e's order, and ker d_oe and im d_eo both
    under F_o's: two runs serve both counts. Tags ordered like their images
    leave smaller kernel bases and cheaper reductions than position over
    term.
    """
    if module is not None:  # the relations of N, f e_i included, built once
        s = module.ambient_rank
        base = [element_to_vec(n) for n in module.relations] + [
            {(i, e): c for e, c in module.potential.items()} for i in range(s)]

    def expanded(m: SparseColumns):
        """(columns, rows, relations) of m acting on the module."""
        if module is None:
            return list(m.columns), m.rows, []
        columns = [{(i * s + t, e): c for (i, e), c in column.items()}
                   for column in m.columns for t in range(s)]
        relations = [{(b * s + k, e): c for (k, e), c in v.items()}
                     for b in range(m.rows) for v in base]
        return columns, m.rows * s, relations

    ring = d_eo.ring if d_eo.cols else d_oe.ring
    eo, oe = expanded(d_eo), expanded(d_oe)
    even = _packing(DEGREVLEX, len(ring)).induced(eo[0])
    odd = even.induced(oe[0])
    run_eo, run_oe = odd.augmented(even), even.augmented(odd)

    def kernel_and_image(columns, rows, relations, packing, target):
        # only these two outlive the run, so one augmented basis is alive at a time
        if not columns:
            return _Basis(target), _Basis(packing)
        return _AugmentedBasis(columns, rows, ring, DEGREVLEX, relations,
                               (packing, target)).split()

    ker_eo, im_eo = kernel_and_image(*eo, run_eo, run_oe)
    ker_oe, im_oe = kernel_and_image(*oe, run_oe, run_eo)
    return _leading_gap(ker_eo, im_oe), _leading_gap(ker_oe, im_eo)


def homology_dimensions(c: TwoPeriodicComplex) -> tuple[int, int]:
    """Exact Q dimensions (h_even, h_odd) of the complex homology."""
    return periodic_homology(c.d_even_to_odd, c.d_odd_to_even)


def tor_lengths(mf: MatrixFactorization, n_module: ModulePresentation) -> tuple[int, int]:
    """Stable (Tor_even, Tor_odd) of coker(A) against N over R = Q[x]/(f).

    The free resolution of coker(A) over R is the two periodic complex with
    odd differentials A and even differentials B, so the stable window is
    (ker B (x) N / im A (x) N, ker A (x) N / im B (x) N): the two gaps of
    periodic_homology(B, A, N), two Buchberger runs in all. Structural two
    periodicity makes the next window literally the same matrices.
    """
    if n_module.potential != mf.potential:
        raise ValueError("factorization and module have different potentials")
    return periodic_homology(*reversed(mf.certified), n_module)
