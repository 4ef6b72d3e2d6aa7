"""Exact multivariate polynomials over the rationals.

A polynomial is stored sparsely as a map from exponent vectors to nonzero
Fraction coefficients. The exponent vector is a dense tuple of non-negative
ints, one slot per ring variable, so two polynomials interoperate exactly when
their rings (ordered tuples of variable names) are equal. Everything is
immutable and hashable; arithmetic never leaves the rationals, so results are
exact by construction.

The module also provides the text grammar (rational literals, variables,
+ - * ^, parentheses, no implicit multiplication), derivatives, Jacobian
generators, and exact determinants of polynomial matrices. The parser
checks fixed budgets on literals, exponents, the nesting of parentheses and
the powers and products in one text before it builds anything large or
recurses deeply, and raises BudgetError past them.

SparseColumns is the one integer form of a matrix, int numerators over one
denominator, into which SparseColumns.cleared clears rational columns (a
PolyMatrix's, or a theta resolution step's syzygies); _cleared_product
multiplies two out, for PolyMatrix products, the factorization check and
the d o d = 0 oracle alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    BudgetError,
    PolynomialSyntaxError,
    RingMismatchError,
    UnknownVariableError,
)

Ring = tuple[str, ...]
Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def degrevlex_key(exps: Monomial) -> tuple:
    """Sort key that is larger for degrevlex-larger monomials.

    Degree first; ties broken so the monomial whose last nonzero entry of the
    difference is negative wins. Negating the reversed exponents makes plain
    tuple comparison implement exactly that.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients.

    The public constructor validates every exponent vector and coerces every
    coefficient. _trusted skips that, and is only for the results of __add__,
    __mul__ and __pow__, whose terms arithmetic has already normalised.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Scalar]):
        self.ring = tuple(ring)
        clean: dict[Monomial, Fraction] = {}
        width = len(self.ring)
        for exps, coeff in terms.items():
            c = Fraction(coeff)
            if c == 0:
                continue
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for ring {self.ring!r}")
            clean[tuple(exps)] = c
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, ring: Ring, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap terms with valid exponents and nonzero Fraction coefficients."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):  # immutability
        if name in ("ring", "_terms", "_hash"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError(f"Polynomial is immutable: {name}")

    # ---- constructors ----

    @staticmethod
    def zero(ring: Sequence[str]) -> "Polynomial":
        return Polynomial(tuple(ring), {})

    @staticmethod
    def one(ring: Sequence[str]) -> "Polynomial":
        return Polynomial.constant(ring, 1)

    @staticmethod
    def constant(ring: Sequence[str], c: Scalar) -> "Polynomial":
        ring = tuple(ring)
        return Polynomial(ring, {tuple(0 for _ in ring): Fraction(c)})

    @staticmethod
    def variable(ring: Sequence[str], index: int) -> "Polynomial":
        ring = tuple(ring)
        exps = tuple(1 if i == index else 0 for i in range(len(ring)))
        return Polynomial(ring, {exps: Fraction(1)})

    @staticmethod
    def monomial(ring: Sequence[str], exps: Monomial, c: Scalar = 1) -> "Polynomial":
        return Polynomial(tuple(ring), {tuple(exps): Fraction(c)})

    # ---- inspection ----

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def items(self) -> Iterable[tuple[Monomial, Fraction]]:
        return self._terms.items()

    def coefficient(self, exps: Monomial) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get(tuple(0 for _ in self.ring), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # ---- arithmetic ----

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"rings differ: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out = dict(self._terms)
        for exps, c in other._terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial._trusted(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.ring)
            return Polynomial._trusted(self.ring, {e: k * c for e, k in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out: dict[Monomial, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial._trusted(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n. A single term c*x^e goes in closed form to c^n * x^(n*e);
        any other polynomial by repeated squaring."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if len(self._terms) == 1:
            [(exps, c)] = self._terms.items()
            return Polynomial._trusted(self.ring, {tuple(e * n for e in exps): c ** n})
        result = Polynomial.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, tuple(sorted(self._terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({to_string(self)!r})"


# ---------------------------------------------------------------------------
# printing

def _monomial_string(ring: Ring, exps: Monomial) -> str:
    parts = []
    for name, e in zip(ring, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def to_string(p: Polynomial) -> str:
    """Canonical text form: degrevlex-descending terms, round-trips via parse."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p._terms, key=degrevlex_key, reverse=True):
        c = p._terms[exps]
        mono = _monomial_string(p.ring, exps)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# parsing

_OPS = set("+-*^()/")

# Budgets on polynomial text, each checked before anything large is built:
# the digits of an integer literal, an exponent, the number of terms the
# powers and products of polynomials with several terms in one text can have,
# summed over the text (see _power_terms and _product_terms), and the depth of
# nested parentheses, each of which costs the recursive descent five frames.
MAX_LITERAL_DIGITS = 1000
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 2000
MAX_NESTING_DEPTH = 100


def _power_terms(p: Polynomial, n: int) -> int:
    """Upper bound on the number of terms of p^n for p with at least two
    terms: the multisets of n terms of p, and the monomials of degree at
    most n * deg p, whichever is fewer."""
    v = len(p.ring)
    return min(comb(n + len(p) - 1, n), comb(n * p.total_degree() + v, v))


def _product_terms(p: Polynomial, q: Polynomial) -> int:
    """Upper bound on the number of terms of p * q: the pairs of terms, and
    the monomials of degree at most deg p + deg q, whichever is fewer."""
    v = len(p.ring)
    return min(len(p) * len(q), comb(p.total_degree() + q.total_degree() + v, v))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    """Recursive descent for: expr := term ((+|-) term)*; term := factor (* factor)*;
    factor := (+|-)* power; power := atom (^ NUM)*; atom := NUM (/ NUM)? | NAME | ( expr ).
    Chained ^ associates left. '/' only forms rational literals."""

    def __init__(self, text: str, ring: Ring):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ring = ring
        self.index = {name: i for i, name in enumerate(ring)}
        self.expanded_terms = 0  # predicted terms of the powers and products so far
        self.depth = 0  # parentheses open around the current position

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise PolynomialSyntaxError(message, self.peek()[2])

    def charge(self, what: str, bound: int, offset: int) -> None:
        """Add the predicted terms of one expansion to the text's total."""
        self.expanded_terms += bound
        if self.expanded_terms > MAX_POWER_TERMS:
            raise BudgetError(
                f"{what} may have {bound} terms, {self.expanded_terms} with the "
                f"expansions before it in this text, over MAX_POWER_TERMS = "
                f"{MAX_POWER_TERMS}", offset)

    def integer(self) -> int:
        """Consume a NUM token, counting its digits before int reads them."""
        kind, text, offset = self.advance()
        if len(text) > MAX_LITERAL_DIGITS:
            raise BudgetError(f"integer literal of {len(text)} digits exceeds "
                              f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}", offset)
        return int(text)

    def parse(self) -> Polynomial:
        p = self.expr()
        kind, text, offset = self.peek()
        if kind != "END":
            self.fail(f"unexpected {text!r}")
        return p

    def expr(self) -> Polynomial:
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek()[0] == "*":
            offset = self.advance()[2]
            q = self.factor()
            if len(p) > 1 and len(q) > 1:
                self.charge(f"product of a {len(p)}-term and a {len(q)}-term polynomial",
                            _product_terms(p, q), offset)
            p = p * q
        return p

    def factor(self) -> Polynomial:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                sign = -sign
        p = self.power()
        return p if sign == 1 else -p

    def power(self) -> Polynomial:
        p = self.atom()
        while self.peek()[0] == "^":
            self.advance()
            kind, _, offset = self.peek()
            if kind != "NUM":
                self.fail("exponent must be a non-negative integer")
            n = self.integer()
            if n > MAX_EXPONENT:
                raise BudgetError(f"exponent {n} exceeds MAX_EXPONENT = {MAX_EXPONENT}", offset)
            if len(p) > 1:
                self.charge(f"power {n} of a {len(p)}-term polynomial",
                            _power_terms(p, n), offset)
            p = p ** n
        return p

    def atom(self) -> Polynomial:
        kind, text, offset = self.peek()
        if kind == "NUM":
            num = self.integer()
            if self.peek()[0] == "/":
                self.advance()
                kind2, _, offset2 = self.peek()
                if kind2 != "NUM":
                    self.fail("expected integer denominator")
                den = self.integer()
                if den == 0:
                    raise PolynomialSyntaxError("zero denominator", offset2)
                return Polynomial.constant(self.ring, Fraction(num, den))
            return Polynomial.constant(self.ring, num)
        if kind == "NAME":
            self.advance()
            if text not in self.index:
                raise UnknownVariableError(text, offset)
            return Polynomial.variable(self.ring, self.index[text])
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                raise BudgetError(f"parentheses nested {self.depth} deep exceed "
                                  f"MAX_NESTING_DEPTH = {MAX_NESTING_DEPTH}", offset)
            self.advance()
            p = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return p
        self.fail("expected a term")


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse text in the fixed grammar; byte offsets are reported on failure."""
    return _Parser(text, tuple(variables)).parse()


# ---------------------------------------------------------------------------
# calculus

def differentiate(p: Polynomial, var_index: int) -> Polynomial:
    """Exact partial derivative with respect to the var_index-th variable."""
    if not 0 <= var_index < len(p.ring):
        raise ValueError(f"variable index {var_index} out of range")
    out: dict[Monomial, Fraction] = {}
    for exps, c in p.items():
        e = exps[var_index]
        if e == 0:
            continue
        dropped = tuple(v - 1 if i == var_index else v for i, v in enumerate(exps))
        out[dropped] = out.get(dropped, Fraction(0)) + c * e
    return Polynomial(p.ring, out)


def jacobian_generators(f: Polynomial) -> list[Polynomial]:
    """All partials of f, in ring variable order. Zero partials are kept."""
    return [differentiate(f, i) for i in range(len(f.ring))]


# ---------------------------------------------------------------------------
# matrices of polynomials

@dataclass(frozen=True)
class PolyMatrix:
    """Immutable rows x cols matrix of polynomials over one ring, row major."""

    rows: int
    cols: int
    entries: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        rings = {e.ring for e in self.entries}
        if len(rings) > 1:
            raise RingMismatchError("matrix entries live in different rings")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return PolyMatrix(r, c, tuple(p for row in rows for p in row))

    @property
    def ring(self) -> Ring:
        if not self.entries:
            raise ValueError("empty matrix has no ring")
        return self.entries[0].ring

    def entry(self, i: int, j: int) -> Polynomial:
        return self.entries[i * self.cols + j]

    def column(self, j: int) -> tuple[Polynomial, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.cols, self.rows,
                          tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Exact product of the two SparseColumns forms by _cleared_product,
        each output term divided back to a Fraction once. Only nonzero terms
        meet, so the cost follows the nonzero products, not rows * cols * inner."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ring = self.ring if self.rows and other.cols else None
        left, right = SparseColumns.of(self), SparseColumns.of(other)
        den = left.den * right.den
        entries = [[{} for _ in range(other.cols)] for _ in range(self.rows)]
        for j, column in enumerate(_cleared_product(left, right)):
            for (i, e), c in column.items():
                if c:
                    entries[i][j][e] = Fraction(c, den)
        return PolyMatrix(self.rows, other.cols,
                          tuple(Polynomial._trusted(ring, t) for row in entries for t in row))

    def determinant(self) -> Polynomial:
        """Exact determinant by Laplace expansion memoized on column subsets."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            raise ValueError("empty matrix determinant is not defined here")
        ring = self.ring
        memo: dict[tuple[int, ...], Polynomial] = {}

        def minor(cols: tuple[int, ...]) -> Polynomial:
            # determinant of the submatrix on rows n-len(cols)..n-1 and these columns
            if cols in memo:
                return memo[cols]
            i = n - len(cols)
            if len(cols) == 1:
                out = self.entry(i, cols[0])
            else:
                out = Polynomial.zero(ring)
                for pos, j in enumerate(cols):
                    a = self.entry(i, j)
                    if a.is_zero():
                        continue
                    rest = cols[:pos] + cols[pos + 1:]
                    term = a * minor(rest)
                    out = out + term if pos % 2 == 0 else out - term
            memo[cols] = out
            return out

        return minor(tuple(range(n)))


@dataclass(frozen=True)
class SparseColumns:
    """A rows x len(columns) matrix over Q[x] in ints: column j maps (row,
    exponents) to a nonzero int c, the term c / den * x^exponents of entry
    (row, j)."""

    ring: Ring
    rows: int
    columns: tuple[dict, ...]
    den: int = 1

    @property
    def cols(self) -> int:
        return len(self.columns)

    @staticmethod
    def cleared(ring: Ring, rows: int, columns: Sequence[dict]) -> SparseColumns:
        """Columns {(row, exponents): Fraction} cleared by the lcm of their denominators."""
        den = lcm(*(c.denominator for col in columns for c in col.values()))
        return SparseColumns(ring, rows, tuple({k: c.numerator * (den // c.denominator)
                                                for k, c in col.items()} for col in columns), den)

    @staticmethod
    def of(m: SparseColumns | PolyMatrix) -> SparseColumns:
        """m itself, or the PolyMatrix m cleared."""
        if isinstance(m, SparseColumns):
            return m
        return SparseColumns.cleared(m.ring if m.entries else (), m.rows, [
            {(i, e): c for i, p in enumerate(m.entries[j::m.cols]) for e, c in p._terms.items()}
            for j in range(m.cols)])

    def transpose(self) -> SparseColumns:
        columns = [{} for _ in range(self.rows)]
        for j, column in enumerate(self.columns):
            for (i, e), c in column.items():
                columns[i][j, e] = c
        return SparseColumns(self.ring, self.cols, tuple(columns), self.den)


def _cleared_product(left: SparseColumns, right: SparseColumns):
    """The columns of left.den * right.den * (left @ right), each as
    {(row, exponents): int}; terms that cancel are kept, as 0."""
    for column in right.columns:
        acc: dict[tuple[int, Monomial], int] = {}
        for (k, e2), c2 in column.items():
            for (i, e1), c1 in left.columns[k].items():
                key = i, tuple(map(add, e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        yield acc


def hessian_determinant(f: Polynomial) -> Polynomial:
    """det of the matrix of second partials, exact over the rationals."""
    n = len(f.ring)
    firsts = jacobian_generators(f)
    rows = [[differentiate(firsts[i], j) for j in range(n)] for i in range(n)]
    return PolyMatrix.from_rows(rows).determinant()
