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
A, B, A', B' with identities (see hom_complex), placed entry by entry from the
nonzero entries only.

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
from .groebner import DEGREVLEX, FreeModuleElement, _AugmentedBasis, _leading_gap
from .polyring import Polynomial, PolyMatrix, _cleared_product, _cleared_rows, to_string


@dataclass(frozen=True)
class MatrixFactorization:
    """A pair (A, B) with A B = B A = potential * identity, checked on construction."""

    potential: Polynomial
    A: PolyMatrix
    B: PolyMatrix
    label: str = field(default="", compare=False)

    def __post_init__(self):
        validate_mf(self)

    @property
    def rank(self) -> int:
        return self.A.rows

    @property
    def ring(self):
        return self.potential.ring


def validate_mf(candidate: MatrixFactorization) -> MatrixFactorization:
    """Check A B = B A = f I on integer forms of A and B; raise naming the entry."""
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
    (da, left), (db, right) = _cleared_rows(a), _cleared_rows(b)
    den = da * db
    for name, first, second in (("A*B", left, right), ("B*A", right, left)):
        for i, j, terms in _off_scalar(first, second, {e: den * c for e, c in f.items()}):
            got = Polynomial._trusted(f.ring, {e: Fraction(c, den) for e, c in terms.items()})
            raise FactorizationError(
                f"product {name} mismatch at entry ({i + 1},{j + 1}): "
                f"expected {to_string(f) if i == j else 0}, found {to_string(got)}")
    return candidate


def _off_scalar(left, right, c: dict):
    """(i, j, nonzero terms), row major, at each entry where the product of two
    _cleared_rows forms differs from c times the identity; c = {} for zero."""
    for i, acc in enumerate(_cleared_product(left, right)):
        for j in sorted(acc.keys() | {i}):
            got, want = acc.get(j, {}), (c if i == j else {})
            # most entries are zero: test that before collecting nonzero terms
            terms = {e: k for e, k in got.items() if k} if want or any(got.values()) else {}
            if terms != want:
                yield i, j, terms


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
# hom complexes

@dataclass(frozen=True)
class TwoPeriodicComplex:
    """Two free terms with differentials both ways; composites vanish. The
    ranks of the terms are read off the shape of d_even_to_odd."""

    d_even_to_odd: PolyMatrix
    d_odd_to_even: PolyMatrix

    def __post_init__(self):
        if (self.d_odd_to_even.rows, self.d_odd_to_even.cols) != (self.rank_even, self.rank_odd):
            raise ValueError("odd-to-even differential has wrong shape")

    @property
    def rank_even(self) -> int:
        return self.d_even_to_odd.cols

    @property
    def rank_odd(self) -> int:
        return self.d_even_to_odd.rows

    def is_complex(self) -> bool:
        """Both composites vanish, tested on the integer products of the
        differentials cleared of denominators once, building no Polynomial."""
        eo, oe = (_cleared_rows(d)[1] for d in (self.d_even_to_odd, self.d_odd_to_even))
        return not any(any(_off_scalar(a, b, {})) for a, b in ((oe, eo), (eo, oe)))


def _kron(m: PolyMatrix, s: int, transpose: bool = False):
    """Nonzero entries (row, col, p) of m (x) I_s, or of I_s (x) m^T if transpose."""
    for idx, p in enumerate(m.entries):
        if p:
            a, b = divmod(idx, m.cols)
            for t in range(s):
                yield (t * m.cols + b, t * m.rows + a, p) if transpose else (a * s + t, b * s + t, p)


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

    built directly from the nonzero entries of A, B, A', B', which were checked
    when built. The composites are checked to vanish on every call.
    """
    if left.potential != right.potential:
        raise FactorizationError("factorizations have different potentials")
    r, rp = left.rank, right.rank
    half, total = r * rp, 2 * r * rp
    zero = Polynomial.zero(left.ring)

    def differential(blocks) -> PolyMatrix:
        entries = [zero] * (total * total)
        for (out, inp), kron in blocks.items():
            for row, col, p in kron:
                entries[(out * half + row) * total + inp * half + col] = p
        return PolyMatrix(total, total, tuple(entries))

    d_eo = differential({(0, 0): _kron(right.B, r), (0, 1): _kron(-left.B, rp, True),
                         (1, 0): _kron(-left.A, rp, True), (1, 1): _kron(right.A, r)})
    d_oe = differential({(0, 0): _kron(right.A, r), (0, 1): _kron(left.B, rp, True),
                         (1, 0): _kron(left.A, rp, True), (1, 1): _kron(right.B, r)})
    complex_ = TwoPeriodicComplex(d_eo, d_oe)
    if not complex_.is_complex():
        raise InternalCheckError("hom complex differentials do not compose to zero")
    return complex_


# ---------------------------------------------------------------------------
# homology of two periodic complexes: Hom, and Tor and Ext against a module

def _tensor_map(m: PolyMatrix, s: int) -> PolyMatrix:
    """Kronecker product m (x) identity_s acting on blocks of size s."""
    entries = [Polynomial.zero(m.ring)] * (m.rows * s * m.cols * s)
    for row, col, p in _kron(m, s):
        entries[row * m.cols * s + col] = p
    return PolyMatrix(m.rows * s, m.cols * s, tuple(entries))


def _module_relation_vectors(n_module: ModulePresentation,
                             blocks: int) -> list[FreeModuleElement]:
    """Relations of N^blocks over Q: each relation of N placed in each block,
    plus f times every coordinate."""
    s = n_module.ambient_rank
    f_s = PolyMatrix.scalar(n_module.potential, s)
    base = [rel.components for rel in n_module.relations] + [f_s.row(i) for i in range(s)]
    pad = (Polynomial.zero(n_module.potential.ring),) * s
    return [FreeModuleElement(pad * b + comps + pad * (blocks - 1 - b))
            for b in range(blocks) for comps in base]


def periodic_homology(d_eo: PolyMatrix, d_oe: PolyMatrix,
                      module: ModulePresentation | None = None) -> tuple[int, int]:
    """Exact Q dimensions (ker d_eo / im d_oe, ker d_oe / im d_eo) of a two
    periodic complex, or of the complex tensored with a module N.

    One tag-augmented Groebner basis per differential holds minimal bases of
    both its kernel and its image, and each dimension is the count of
    leading terms of a kernel outside the other image, after an exact check
    that the image lies in the kernel. With N = Q[x]^s / span n_j, a map m
    acts as m (x) I_s, and the relations of N in each of its m.rows target
    blocks go in as untagged rows: the kernel becomes the preimage of the
    relations, which holds those over the source, and the image takes in
    the relations over the target. The dimensions do not depend on the term
    order; the bases are built under degrevlex.
    """
    def kernel_and_image(m: PolyMatrix):
        # only these two outlive the run, so one augmented basis is alive at a time
        relations = ()
        if module is not None:
            relations = _module_relation_vectors(module, m.rows)
            m = _tensor_map(m, module.ambient_rank)
        if not m.cols:
            return [], []
        aug = _AugmentedBasis([FreeModuleElement(m.column(j)) for j in range(m.cols)],
                              DEGREVLEX, relations)
        return aug.kernel, aug.image

    ker_eo, im_eo = kernel_and_image(d_eo)
    ker_oe, im_oe = kernel_and_image(d_oe)
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
    return periodic_homology(mf.B, mf.A, n_module)
