"""Monodromy style weight filtrations of nilpotent operators over Q.

For a nilpotent endomorphism N of a finite dimensional rational vector space
and a chosen center m there is exactly one increasing filtration W with

    N . W_k  contained in  W_(k-2)
    N^l : Gr_(m+l) -> Gr_(m-l)  an isomorphism for every l >= 0.

weight_filtration builds it by the closed formula

    W_(m+l) = sum over j >= 0 of ( ker N^(l+j+1)  intersect  im N^j )

with ker N^t = 0 for t <= 0, and then re-verifies both axioms on the result;
a failure there is a bug, not bad input, and raises InternalCheckError.
Only the terms that can add something are formed: j starts at max(0, -l),
where ker N^(l+j+1) first becomes nonzero, and stops below e, where im N^j
becomes zero; the first j with l + j + 1 >= e contributes all of im N^j,
which holds every later term, so the sum stops there too. The j = 0 term is
ker N^(l+1) itself. Each piece is one span of the rows of its terms.

The axioms can also be checked on a hand built candidate filtration through
verify_weight_axioms, which reports the two halves separately: shift_ok for
the chain shape (increasing, exhaustive, N shifts by -2) and iso_ok for the
graded symmetry and injectivity of the induced powers of N.

primitive_subspace lifts the primitive part ker(N^(l+1) : Gr_(m+l) ->
Gr_(m-l-2)) back to honest vectors, one representative per class.

The powers N^0, ..., N^e are computed once, when a NilpotentOperator is
built (which is also its nilpotency check), as products of int rows: the
operator scales its matrix to ints once, and NilpotentOperator.int_powers
holds the powers of that int matrix. Every function here reads them from the
operator and runs on ratmat's integer forms: a WeightFiltration converts
its pieces once, when it is built, to the Echelons in
WeightFiltration.int_pieces (refusing a piece that is not a canonical
subspace). weight_filtration builds Fractions only for the pieces it
returns, and primitive_subspace only for its result. An operator on a space
of dimension above MAX_OPERATOR_DIMENSION is refused with BudgetError before
any product is made, by check_operator_dimension, which a reader of matrix
files can call before it converts any entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetError, InternalCheckError, MfresError
from . import ratmat

# largest operator accepted; the cost of a filtration grows about as the
# fourth power of the dimension
MAX_OPERATOR_DIMENSION = 32


def check_operator_dimension(n: int) -> None:
    """BudgetError when an operator of dimension n is over the budget."""
    if n > MAX_OPERATOR_DIMENSION:
        raise BudgetError(f"operator of dimension {n} exceeds "
                          f"MAX_OPERATOR_DIMENSION = {MAX_OPERATOR_DIMENSION}")


@dataclass(frozen=True)
class NilpotentOperator:
    matrix: ratmat.Matrix
    center: int

    # N^0, N^1, ..., N^e with N^e = 0 as int rows, N^k times the k-th power
    # of the lcm of the matrix's denominators; N^k is int_powers[min(k, e)]
    int_powers: tuple[ratmat.IntRows, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.matrix)
        if n == 0:
            raise MfresError("operator needs a space of positive dimension")
        if any(len(row) != n for row in self.matrix):
            raise MfresError("operator matrix must be square")
        check_operator_dimension(n)
        # ratmat.map(columns, rows) is the product rows @ matrix
        columns = list(zip(*ratmat.integral(self.matrix)[0]))
        powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
        while any(map(any, powers[-1])):
            if len(powers) > n:
                raise MfresError("operator is not nilpotent")
            powers.append(ratmat.map(columns, powers[-1]))
        object.__setattr__(self, "int_powers", tuple(powers))

    @classmethod
    def from_rows(cls, rows, center: int) -> NilpotentOperator:
        matrix = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(matrix=matrix, center=center)

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    @property
    def nilpotency_index(self) -> int:
        """Smallest e with N^e = 0."""
        return len(self.int_powers) - 1


@dataclass(frozen=True)
class WeightFiltration:
    """Pieces W_lowest .. W_highest; below the range is zero, above is full.

    There must be highest - lowest + 1 pieces, and each must be a canonical
    subspace, as ratmat.fractions returns it: otherwise ValueError."""

    operator: NilpotentOperator
    lowest: int
    highest: int
    pieces: tuple[ratmat.Subspace, ...]
    # the pieces as ratmat Echelons
    int_pieces: tuple[ratmat.Echelon, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.operator.dimension
        if len(self.pieces) != self.highest - self.lowest + 1:
            raise ValueError(f"W_{self.lowest} .. W_{self.highest} needs "
                             f"{self.highest - self.lowest + 1} pieces, found {len(self.pieces)}")
        forms = []
        for i, piece in enumerate(self.pieces):
            try:
                forms.append(ratmat.canonical(piece, n))
            except ValueError as exc:
                raise ValueError(f"piece {i} (W_{self.lowest + i}) is not canonical: "
                                 f"{exc}") from None
        object.__setattr__(self, "int_pieces", tuple(forms))

    def piece(self, k: int) -> ratmat.Subspace:
        if k < self.lowest:
            return ()
        if k > self.highest:
            return self.pieces[-1]
        return self.pieces[k - self.lowest]

    def int_piece(self, k: int) -> ratmat.Echelon:
        """piece(k) as an Echelon."""
        if k < self.lowest:
            return ratmat.Echelon([], [])
        return self.int_pieces[min(k, self.highest) - self.lowest]

    def graded_dimension(self, k: int) -> int:
        return len(self.piece(k)) - len(self.piece(k - 1))


def weight_filtration(op: NilpotentOperator) -> WeightFiltration:
    """The unique filtration satisfying the shift and symmetry axioms."""
    n = op.dimension
    m = op.center
    e = op.nilpotency_index
    # ker N^t for 0 < t < e and im N^t for t < e; ker N^0 = 0, ker N^e = Q^n,
    # im N^0 = Q^n and im N^e = 0 are never intersected
    kernels = [None] + [ratmat.kernel(power, n) for power in op.int_powers[1:e]]
    images = [ratmat.image(power) for power in op.int_powers[:e]]

    pieces = []
    for l in range(-e, e + 1):
        rows: ratmat.IntRows = []
        for j in range(max(0, -l), e):
            t = l + j + 1
            if t >= e:
                rows += images[j].rows
                break
            term = kernels[t] if j == 0 else ratmat.intersect(kernels[t].rows,
                                                               images[j].rows, n)
            rows += term.rows
        pieces.append(ratmat.fractions(ratmat.echelon(rows)))

    wf = WeightFiltration(operator=op, lowest=m - e, highest=m + e,
                          pieces=tuple(pieces))
    report = verify_weight_axioms(wf)
    if not (report.shift_ok and report.iso_ok):
        raise InternalCheckError("constructed filtration failed its own axioms")
    return wf


@dataclass(frozen=True)
class WeightAxiomReport:
    shift_ok: bool
    iso_ok: bool


def verify_weight_axioms(wf: WeightFiltration) -> WeightAxiomReport:
    """Check the defining axioms on any candidate filtration."""
    op = wf.operator
    n = op.dimension
    m = op.center
    e = op.nilpotency_index
    piece = wf.int_piece

    shift_ok = len(wf.piece(wf.highest)) == n
    for k in range(wf.lowest, wf.highest + 1):
        if not ratmat.leq(piece(k - 1).rows, piece(k)):
            shift_ok = False
        moved = ratmat.map(op.int_powers[1], piece(k).rows)
        if not ratmat.leq(moved, piece(k - 2)):
            shift_ok = False

    span_up = max(wf.highest - m, m - wf.lowest, 0)
    iso_ok = True
    for l in range(1, span_up + 1):
        if wf.graded_dimension(m + l) != wf.graded_dimension(m - l):
            iso_ok = False
            continue
        # injectivity of N^l on Gr_(m+l): anything in W_(m+l) that lands in
        # W_(m-l-1) must already lie in W_(m+l-1)
        pulled = ratmat.preimage(op.int_powers[min(l, e)], piece(m - l - 1), n)
        inside = ratmat.intersect(pulled.rows, piece(m + l).rows, n)
        if not ratmat.leq(inside.rows, piece(m + l - 1)):
            iso_ok = False
    return WeightAxiomReport(shift_ok=shift_ok, iso_ok=iso_ok)


def graded_dimensions(wf: WeightFiltration) -> dict[int, int]:
    return {k: wf.graded_dimension(k)
            for k in range(wf.lowest, wf.highest + 1)}


def primitive_subspace(wf: WeightFiltration, l: int) -> tuple[ratmat.Vector, ...]:
    """Representatives of ker(N^(l+1) : Gr_(m+l) -> Gr_(m-l-2)), l >= 0.

    Returned vectors lie in W_(m+l) and are independent modulo W_(m+l-1).
    """
    if l < 0:
        raise ValueError("primitive parts live in nonnegative offsets")
    op = wf.operator
    n = op.dimension
    m = op.center
    power = op.int_powers[min(l + 1, op.nilpotency_index)]
    pulled = ratmat.preimage(power, wf.int_piece(m - l - 3), n)
    inside = ratmat.intersect(pulled.rows, wf.int_piece(m + l).rows, n)
    residues = ratmat.residues(inside.rows, wf.int_piece(m + l - 1))[0]
    return ratmat.fractions(ratmat.echelon(residues))
