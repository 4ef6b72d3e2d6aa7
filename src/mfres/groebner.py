"""Groebner bases for submodules of free modules over Q[x_0..x_n].

Elements of a rank r free module are stored as maps from (component, exponent
vector) to a coefficient: a Fraction or an int at the public boundary, an int
inside the core. Monomial orders are global (degrevlex by default, lex on
request); module terms are compared position over term by default, with
lower component index taking priority. Global orders are enough here because the only local
question the engine answers, support at the origin, is reduced to nilpotency
of the variable multiplication operators on a finite quotient.

Buchberger runs with the sugar selection strategy and the Gebauer-Moeller
pair update (Gebauer & Moeller 1988, J. Symb. Comp. 6). S-pairs are formed
only between elements whose leading terms share a component. When h joins
the basis, criterion B drops each queued pair whose lcm lt(h) divides
without equalling either lcm with h; among the new pairs, criterion M drops
those whose lcm another new lcm properly divides, and criterion F keeps one
pair per lcm. All three rest on the chain criterion: if lt(k) divides
lcm(i, j), then S(i, j) is a monomial combination of S(i, k) and S(k, j)
whose terms all lie below lcm(i, j), so S(i, j) reduces to zero once those
two pairs do. The argument only multiplies and divides terms of one
component, where module terms behave exactly like monomials, so it holds
for module pairs of equal component as it does for ideals. The coprime
leading term criterion is not of that kind: it holds only in ambient rank
one, and only there does a coprime pair discard its class of new pairs of
equal lcm. Input generators are pre-sorted as monic vectors, so the run is
independent of the caller's ordering and scaling. The run keeps a minimal
basis, one element per minimal leading term; groebner_basis and syzygy_basis
interreduce it into the reduced basis, monic and sorted, hence canonical for
a fixed order. Everything else needs only the leading terms and normal
forms, which depend on the module alone, so it skips that step.

The core runs on Python ints. Inputs are cleared of denominators once, and
every basis element is kept as a primitive integer vector: coefficients of
gcd 1 and a positive leading coefficient. Reduction is pseudo-division:
_reduce returns (remainder, scale) with scale * vec congruent to the
remainder, and an S-vector multiplies a and b by the cofactors lc(b)/g and
lc(a)/g, g = gcd(lc(a), lc(b)). Each step is then the step of the monic
computation over Q times a nonzero integer, so the run (pairs, reductions,
leading terms) is the same, and the content is divided out only when a
remainder joins the basis. The scale of one reduction is capped at
MAX_COEFFICIENT_BITS, since runaway coefficient growth shows there first.

A term is one int too, packed as Monagan and Pearce pack monomials (CASC
2007). Fields of FIELD_BITS bits, each topped by a guard bit, hold from the
bottom the component as FIELD_LIMIT - 1 - comp, the exponents e_(n-1) ..
e_0, under degrevlex the partial sums e_0 + ... + e_j for j = 1 up to n-1,
and last an unguarded position field. The term x^a e_c is the int
lift(c) + mono(a): mono(a), the sum of the a_k times the packed x_k, fills
the exponent and partial-sum fields, and lift(c), the packed e_c, is an
offset W_c placed above the component field, plus that field. By default
W_c is FIELD_LIMIT - 1 - comp in the position field, so int order is
position over term (under degrevlex then the degree, then larger partial
sums, which is the reverse lexicographic tie-break). A product is a sum of
ints, a component is one mask, and in one component a divides b exactly
when b - a sets no guard bit. Every term a run forms is checked for a set
guard bit: a component, exponent or degree that reaches FIELD_LIMIT raises
BudgetError; a degree field holds the degree of W_c plus that of x^a.
Tuples and Fractions remain at the public boundary: a run packs its inputs
once and unpacks its outputs once.

Any offsets give a module monomial order, which is all Buchberger's
algorithm and Macaulay's basis theorem below need: the keys are
non-negative ints, so every descending chain ends; multiplying two terms by
x^b adds mono(b) to both ints, which keeps their comparison; and terms of
two components differ in the component field. Every public output, the
Groebner bases, normal forms, syzygies, coordinates and standard monomials,
uses the default offsets and so keeps position over term. Only homology
counts choose others, since a count of leading terms is the same under
every order as long as the kernel and the image counted against it share
one (see below); mf.periodic_homology orders each free term by the leading
terms of the differential leaving it, and _leading_gap refuses bases under
two packings.

Syzygies, images, module membership, and coordinates all come from one
construction: a Groebner basis of the augmented module generated by
(g_i, e_i) inside Q^r + Q^k, with the first block dominating the tag block.
Its elements led by a tag lie in the tag block and form a basis of the
syzygy module; the first-block parts of the others form a basis of the
span of the g_i; reducing (v, 0) decides membership of v and reads
off coordinates in terms of the g_i. Relations n_j added as untagged rows
(n_j, 0) turn the first into the preimage {c : sum c_i g_i in span n_j},
the kernel of the map the g_i induce into Q^r / span n_j, and the second
into the span of the g_i and n_j.

Dimensions of subquotients are counts of leading terms. For submodules
I inside K and one term order, K and I have echelon bases over Q indexed by
their leading terms (Macaulay's basis theorem), so dim K/I is the number of
terms in LT(K) but not in LT(I), the monomial modules the leading terms
generate. A homology dimension ker d / im d' thus needs only the augmented
bases of d and d', and any other subquotient two plain Groebner bases. The
count is the same under every order, so these bases are built under
degrevlex: the monomial order reaches only the outputs that depend on it,
the Groebner bases, syzygies and coordinates, and the standard monomials.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from collections import Counter
from itertools import product, starmap
from operator import itemgetter, mul
from typing import Iterable, Sequence, Union

from .errors import BudgetError, ContainmentError, InfiniteQuotientError, InternalCheckError
from .polyring import Monomial, Polynomial, Ring, degrevlex_key

Term = tuple[int, Monomial]  # (component, exponent vector)
Vec = dict[Term, Union[Fraction, int]]


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order plus the position-over-term module extension."""

    name: str

    def __post_init__(self):
        if self.name not in ("degrevlex", "lex"):
            raise ValueError(f"unknown order {self.name!r}")

    def mono_key(self, exps: Monomial) -> tuple:
        return degrevlex_key(exps) if self.name == "degrevlex" else exps

    def term_key(self, term: Term) -> tuple:
        comp, exps = term
        return (-comp, self.mono_key(exps))


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def get_order(name: str) -> MonomialOrder:
    order = MonomialOrder(name)  # ValueError on an unknown name
    return DEGREVLEX if order == DEGREVLEX else LEX


@dataclass(frozen=True)
class FreeModuleElement:
    """Element of Q[x]^r, one polynomial per component."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("rank zero elements are not represented")
        rings = {p.ring for p in self.components}
        if len(rings) > 1:
            raise ValueError("components live in different rings")

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def ring(self) -> Ring:
        return self.components[0].ring

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __repr__(self) -> str:
        return "FreeModuleElement((" + ", ".join(str(p) for p in self.components) + "))"


GenLike = Union[FreeModuleElement, Polynomial]


def _to_element(g: GenLike) -> FreeModuleElement:
    if isinstance(g, Polynomial):
        return FreeModuleElement((g,))
    return g


def element_to_vec(el: FreeModuleElement) -> Vec:
    out: Vec = {}
    for comp, poly in enumerate(el.components):
        for exps, c in poly.items():
            out[(comp, exps)] = c
    return out


def vec_to_element(vec: Vec, rank: int, ring: Ring) -> FreeModuleElement:
    polys = [dict() for _ in range(rank)]
    for (comp, exps), c in vec.items():
        polys[comp][exps] = c
    return FreeModuleElement(tuple(Polynomial(ring, d) for d in polys))


# ---------------------------------------------------------------------------
# low level vector ops

# Width of a field of a packed term, whose top bit is its guard.
FIELD_BITS = 16
FIELD_LIMIT = 1 << (FIELD_BITS - 1)
_FIELD = (1 << FIELD_BITS) - 1  # one field; the lowest names a term's component
_OVERFLOW = f"a component, exponent or degree reaches FIELD_LIMIT = {FIELD_LIMIT}"


class _Packing:
    """Module terms over n variables as ints under one module order, the
    monomial order with an offset per component (see the module docstring):
    position over term, or the packed e_c given as `lifts`."""

    def __init__(self, order: MonomialOrder, nvars: int):
        self.graded = order.name == "degrevlex"
        sums = max(nvars - 1, 0) if self.graded else 0
        # e_k lies in field n-k, the partial sum e_0 + ... + e_j (j >= 1) in field n+j
        self.offsets = [FIELD_BITS * (nvars - k) for k in range(nvars)]
        self.weights = [(1 << s) + sum(1 << FIELD_BITS * (nvars + j)
                                       for j in range(max(k, 1), sums + 1))
                        for k, s in enumerate(self.offsets)]  # x_k packed
        self.shift = FIELD_BITS * (1 + nvars + sums)  # the position field
        self.guards = sum(1 << FIELD_BITS * (f + 1) - 1 for f in range(1, 1 + nvars + sums))
        self.lifts: list[int] | None = None  # None: lift(c) as below

    def lift(self, comp: int) -> int:
        """The packed e_comp."""
        if self.lifts is not None:
            return self.lifts[comp]
        if comp >= FIELD_LIMIT:
            raise BudgetError(_OVERFLOW)
        return (FIELD_LIMIT - 1 - comp) * ((1 << self.shift) + 1)

    def monomial(self, exps: Monomial) -> int:
        if (sum(exps) if self.graded else max(exps, default=0)) >= FIELD_LIMIT:
            raise BudgetError(_OVERFLOW)
        return sum(map(mul, exps, self.weights))

    def pack(self, comp: int, exps: Monomial) -> int:
        term = self.lift(comp) + self.monomial(exps)
        if term & self.guards:
            raise BudgetError(_OVERFLOW)
        return term

    def packer(self):
        """pack for many input terms: the monomial part of each exponent vector is
        computed and checked once per packer, or once per family of weighted copies."""
        monomials: dict[Monomial, int] = getattr(self, "monomials", {})
        lift, guards = self.lift, self.guards

        def pack(comp: int, exps: Monomial) -> int:
            monomial = monomials.get(exps)
            if monomial is None:
                monomial = monomials[exps] = self.monomial(exps)
            term = lift(comp) + monomial
            if term & guards:
                raise BudgetError(_OVERFLOW)
            return term

        return pack

    def unpack(self, packed: int) -> Term:
        comp = FIELD_LIMIT - 1 - (packed & _FIELD)
        if self.lifts is not None:
            packed -= self.lifts[comp]
        return comp, tuple(packed >> s & _FIELD for s in self.offsets)

    def weighted(self, lifts: list[int]) -> _Packing:
        """This order with the given lifts; its weighted copies share one monomial cache."""
        if len(lifts) > FIELD_LIMIT:
            raise BudgetError(_OVERFLOW)
        packing = object.__new__(_Packing)
        packing.__dict__.update({"monomials": {}, **self.__dict__}, lifts=lifts)
        return packing

    def induced(self, columns: Sequence[dict]) -> _Packing:
        """The order on the source of a map, given by its columns, maps
        (row, exponents) -> coefficient, whose target this packing orders:
        e_j is lifted to the leading term of column j, its own component in
        the low field; a zero column lifts it to the bottom, 0."""
        pack = self.packer()
        return self.weighted([(max(starmap(pack, column)) & ~_FIELD if column else 0)
                              | FIELD_LIMIT - 1 - j for j, column in enumerate(columns)])

    def augmented(self, tags: _Packing) -> _Packing:
        """The order of a tagged run on this packing's module followed by
        that of `tags`: a bit above every position field raises the first
        block over all tags, and tag j is component rank + j."""
        rank, block = len(self.lifts), FIELD_LIMIT << self.shift
        return self.weighted([lift + block for lift in self.lifts] +
                             [lift - rank for lift in tags.lifts])


_packing = lru_cache(maxsize=16)(_Packing)  # built once per order and variable count


# Inside the Groebner core vectors map packed terms to int coefficients. A
# divisor is a primitive integer vector (its coefficients have gcd 1) split
# into its leading term, its leading coefficient, which is positive, and the
# rest; _reduce takes divisors grouped by their component field.
IntVec = dict[int, int]
Divisor = tuple[int, int, tuple[tuple[int, int], ...]]
Divisors = dict[int, list[Divisor]]


class _Basis(list):
    """Divisors, with the packing their terms are written in."""

    def __init__(self, packing: _Packing, divisors: Iterable[Divisor] = ()):
        super().__init__(divisors)
        self.packing = packing


# Budget on pseudo-division: the bits of the scale one _reduce call
# multiplies its input by, checked each time the scale grows. Runaway
# coefficient growth is what makes a Buchberger run hang; the largest scale
# any test, benchmark or reference input reaches is far below it.
MAX_COEFFICIENT_BITS = 8192


def _integral(vec: Vec, pack) -> tuple[IntVec, int]:
    """(den * vec, den), packed by pack, for the least den > 0 clearing all
    denominators."""
    den = math.lcm(*(c.denominator for c in vec.values()))
    return {pack(*t): c.numerator * (den // c.denominator) for t, c in vec.items()}, den


def _divisor(vec: IntVec, lt: int) -> Divisor:
    """vec divided by its content, signed so that the coefficient at lt is
    positive, split into lt, that coefficient and the rest."""
    g = math.gcd(*vec.values())
    if vec[lt] < 0:
        g = -g
    # a tuple of a list takes its block from the free list of its size; one of a
    # generator is resized from ten items, so freed tails would pile up there
    return lt, vec[lt] // g, tuple([(t, c // g) for t, c in vec.items() if t != lt])


def _monic(d: Divisor, packing: _Packing) -> Vec:
    """The divisor scaled to leading coefficient 1, leading term first."""
    unpack = packing.unpack
    return {unpack(d[0]): Fraction(1), **{unpack(t): Fraction(c, d[1]) for t, c in d[2]}}


def _by_component(divisors: Iterable[Divisor]) -> Divisors:
    out: Divisors = {}
    for d in divisors:
        out.setdefault(d[0] & _FIELD, []).append(d)
    return out


def _reduce(vec: IntVec, divisors: Divisors, packing: _Packing) -> tuple[IntVec, int]:
    """Full normal form by pseudo-division: (remainder, scale) with scale > 0
    and scale * vec congruent to the remainder, every term of which escapes
    every divisor.

    The terms still to be reduced live in `work`, and each also sits,
    negated, in a heapq min-heap, so the leading term is a pop away. A
    subtraction that cancels a term removes it from `work` only; its heap
    entry is skipped when popped. To cancel c*t by a divisor whose leading
    coefficient lc does not divide c, work, remainder and scale are first
    multiplied by lc / gcd(c, lc); the divisor's leading term then cancels t
    exactly, so only its tail, shifted by one addition, is subtracted. Terms
    leave in descending order, which is the order of the remainder's keys.
    """
    guards = packing.guards
    work = dict(vec)
    heap = [-t for t in work]
    heapq.heapify(heap)
    remainder: IntVec = {}
    scale = 1
    while heap:
        term = -heapq.heappop(heap)
        coeff = work.pop(term, None)
        if coeff is None:
            continue
        if term & guards:  # a shift of the input or of a tail overflowed
            raise BudgetError(_OVERFLOW)
        for lt, lc, tail in divisors.get(term & _FIELD, ()):
            if not (step := term - lt) & guards:
                if coeff % lc:
                    g = math.gcd(coeff, lc)
                    m = lc // g
                    scale *= m
                    if scale.bit_length() > MAX_COEFFICIENT_BITS:
                        raise BudgetError(f"pseudo-division scale of {scale.bit_length()} bits "
                                          f"exceeds MAX_COEFFICIENT_BITS = {MAX_COEFFICIENT_BITS}")
                    for t in work:
                        work[t] *= m
                    for t in remainder:
                        remainder[t] *= m
                    factor = -(coeff // g)
                else:
                    factor = -(coeff // lc)
                for t, k in tail:
                    t += step
                    old = work.get(t)
                    if old is None:
                        work[t] = factor * k
                        heapq.heappush(heap, -t)
                    else:
                        new = old + factor * k
                        if new:
                            work[t] = new
                        else:
                            del work[t]
                break
        else:
            remainder[term] = coeff
    return remainder, scale


# ---------------------------------------------------------------------------
# Buchberger

def _s_vector(a: Divisor, b: Divisor, lcm: int) -> IntVec:
    """lc(b)/g * lcm/lt(a) * a - lc(a)/g * lcm/lt(b) * b with g the gcd of
    the two leading coefficients; the leading terms cancel. _reduce checks
    its terms for overflow."""
    lta, lca, tail_a = a
    ltb, lcb, tail_b = b
    g = math.gcd(lca, lcb)
    ma, mb = lcb // g, lca // g
    step = lcm - lta
    s: IntVec = {t + step: ma * k for t, k in tail_a}
    step = lcm - ltb
    for t, k in tail_b:
        t += step
        new = s.get(t, 0) - mb * k
        if new:
            s[t] = new
        else:
            del s[t]
    return s


def _seeds(vecs: list[Vec], packing: _Packing) -> list[tuple[Divisor, int]]:
    """The nonzero inputs as divisors with their sugar, the largest degree
    of a term, sorted as monic vectors, so the run depends neither on the
    caller's ordering nor on how the inputs are scaled: by leading term,
    and seeds of one leading term by their monic tails, terms descending.
    A monic tail is compared in ints: scaled by L, the lcm of the leading
    coefficients tied on its leading term, each coefficient c / lc is the
    int c * (L // lc), and a common L > 0 keeps the order."""
    seeds = []
    pack = packing.packer()
    for v in filter(None, vecs):
        ints = _integral(v, pack)[0]
        seeds.append((_divisor(ints, max(ints)), max(sum(exps) for _, exps in v)))
    lts = Counter(d[0] for d, _ in seeds)
    lcms: dict[int, int] = {}  # tied leading term -> L
    for (lt, lc, _), _ in seeds:
        if lts[lt] > 1:
            lcms[lt] = math.lcm(lcms.get(lt, 1), lc)
    seeds.sort(key=lambda s: (s[0][0], s[0][0] in lcms and [
        (packing.unpack(t), c * (lcms[s[0][0]] // s[0][1]))
        for t, c in sorted(s[0][2], reverse=True)]))
    return seeds


def _buchberger(vecs: list[Vec], ambient_rank: int, packing: _Packing) -> _Basis:
    """Minimal Groebner basis of the submodule generated by vecs, sorted
    descending by leading term; tails are left as the run made them."""
    guards = packing.guards
    basis = _Basis(packing)
    divisors: Divisors = {}  # the same elements, by component
    sugars: list[int] = []
    lead: dict[int, dict[int, Monomial]] = {}  # by component: index -> leading exponents
    queued: dict[int, dict[tuple[int, int], int]] = {}  # and pair -> lcm; the heap may hold more
    heap: list[tuple[int, int, int, int]] = []

    def insert(d: Divisor, sugar: int) -> None:
        k = len(basis)
        lt = d[0]
        key = lt & _FIELD
        comp, exps = packing.unpack(lt)
        basis.append(d)
        divisors.setdefault(key, []).append(d)
        sugars.append(sugar)
        same, pairs = lead.setdefault(key, {}), queued.setdefault(key, {})

        def lcm_with(i: int) -> int:
            return packing.pack(comp, tuple(map(max, same[i], exps)))

        # criterion B: lt(h) | lcm(i, j) and lcm(i, j) differs from both lcm(i, h), lcm(j, h)
        for (i, j), lcm in list(pairs.items()):
            if not (lcm - lt) & guards and lcm != lcm_with(i) and lcm != lcm_with(j):
                del pairs[(i, j)]
        classes: dict[int, list[int]] = {}
        for i in same:
            classes.setdefault(lcm_with(i), []).append(i)
        same[k] = exps
        for lcm, members in classes.items():
            # criterion M: another new lcm properly divides this one
            if any(other != lcm and not (lcm - other) & guards for other in classes):
                continue
            i = members[0]  # criterion F: one pair per lcm
            degree = sum(map(max, same[i], exps))
            # product criterion, valid for ideals only, never for module S-pairs;
            # one coprime pair discards its whole class
            if ambient_rank == 1 and any(degree == sum(same[j]) + sum(exps) for j in members):
                continue
            pair_sugar = max(sugars[i] + degree - sum(same[i]), sugar + degree - sum(exps))
            pairs[(i, k)] = lcm
            heapq.heappush(heap, (pair_sugar, lcm, i, k))

    for d, sugar in _seeds(vecs, packing):
        insert(d, sugar)

    while heap:
        sugar, lcm, i, j = heapq.heappop(heap)
        if queued[lcm & _FIELD].pop((i, j), None) is None:
            continue  # dropped by criterion B
        h, _ = _reduce(_s_vector(basis[i], basis[j], lcm), divisors, packing)
        if h:
            insert(_divisor(h, next(iter(h))), sugar)  # a remainder lists its leading term first

    kept: Divisors = {}  # one element per minimal leading term
    for d in sorted(basis, key=itemgetter(0)):
        if not any(not (d[0] - m[0]) & guards for m in kept.get(d[0] & _FIELD, ())):
            kept.setdefault(d[0] & _FIELD, []).append(d)
    return _Basis(packing, sorted((d for ds in kept.values() for d in ds), key=itemgetter(0),
                                  reverse=True))


def _autoreduce(basis: _Basis) -> _Basis:
    """The reduced basis from a minimal one, in its order: each tail
    reduced by the whole basis, which leaves the unique reduced basis of the
    submodule up to scaling. An element's own leading term divides none of
    its tail terms, nor any term the reduction brings in, all being smaller.
    """
    packing = basis.packing
    divisors = _by_component(basis)
    final = _Basis(packing)
    for lt, lc, tail in basis:
        rest, scale = _reduce(dict(tail), divisors, packing)
        final.append(_divisor({lt: lc * scale, **rest}, lt))
    return final


# ---------------------------------------------------------------------------
# public types

@dataclass(frozen=True)
class GroebnerBasis:
    """Canonical reduced basis of a submodule of Q[x]^ambient_rank."""

    ring: Ring
    ambient_rank: int
    order: MonomialOrder
    generators: tuple[FreeModuleElement, ...]
    # the generators as primitive integer divisors, in the same order
    divisors: _Basis = field(repr=False, compare=False)

    def leading_terms(self) -> list[Term]:
        return [self.divisors.packing.unpack(lt) for lt, _, _ in self.divisors]


@dataclass(frozen=True)
class FiniteQuotientBasis:
    """Standard monomial basis of a finite dimensional quotient Q[x]^r / M."""

    standard_monomials: tuple[tuple[int, Monomial], ...]
    dimension: int


def groebner_basis(generators: Sequence[GenLike],
                   order: MonomialOrder = DEGREVLEX,
                   ambient_rank: int | None = None,
                   ring: Ring | None = None) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic and input-order independent."""
    elements = [_to_element(g) for g in generators]
    nonzero = [e for e in elements if not e.is_zero()]
    if elements:
        ranks = {e.rank for e in elements}
        if len(ranks) > 1:
            raise ValueError("generators have mixed ranks")
        ambient_rank = ranks.pop()
        ring = elements[0].ring
    else:
        if ambient_rank is None or ring is None:
            raise ValueError("empty input needs explicit ambient_rank and ring")
    packing = _packing(order, len(ring))
    divisors = _autoreduce(_buchberger([element_to_vec(e) for e in nonzero], ambient_rank,
                                       packing))
    gens = tuple(vec_to_element(_monic(d, packing), ambient_rank, ring) for d in divisors)
    return GroebnerBasis(ring=ring, ambient_rank=ambient_rank, order=order, generators=gens,
                         divisors=divisors)


def normal_form(x: GenLike, gb: GroebnerBasis) -> FreeModuleElement | Polynomial:
    """Unique remainder of x modulo the basis; type matches the input."""
    el = _to_element(x)
    if el.rank != gb.ambient_rank:
        raise ValueError("rank mismatch with basis")
    packing = gb.divisors.packing
    vec, den = _integral(element_to_vec(el), packing.pack)
    red, scale = _reduce(vec, _by_component(gb.divisors), packing)
    scale *= den
    out = vec_to_element({packing.unpack(t): Fraction(c, scale) for t, c in red.items()},
                         gb.ambient_rank, el.ring)
    if isinstance(x, Polynomial):
        return out.components[0]
    return out


# ---------------------------------------------------------------------------
# syzygies, membership, coordinates

class _AugmentedBasis:
    """Minimal Groebner basis of the rows (g_i, e_i) and (n_j, 0), original
    components dominating tags, for g_i and n_j given as vectors of Q[x]^rank
    with int or Fraction coefficients. The relations n_j carry no tag. By
    elimination the elements led by a tag form a minimal basis of the
    preimage {c : sum c_i g_i in span n_j}, the syzygy module when there are
    no relations; the first-block parts of the others form a minimal basis of
    the span of the g_i and n_j. split() takes the two apart; express()
    reduces against the whole basis.

    The run is ordered position over term unless `_packings` gives (the
    packing of the run, the packing tag j is re-based into as component j),
    as periodic_homology does."""

    def __init__(self, gens: list[Vec], rank: int, ring: Ring, order: MonomialOrder,
                 relations: Sequence[Vec] = (), _packings: tuple[_Packing, _Packing] | None = None):
        if not gens:
            raise ValueError("need at least one generator")
        self.rank, self.ring, self.count = rank, ring, len(gens)
        default = _packing(order, len(ring))
        self.packing, self.target = _packings or (default, default)
        one = (0,) * len(ring)
        aug = [*relations, *({**g, (rank + i, one): 1} for i, g in enumerate(gens))]
        self.basis = _buchberger(aug, rank + self.count, self.packing)

    def split(self) -> tuple[_Basis, _Basis]:
        """(kernel, image), emptying the basis, each element freed once read:
        the kernel, whose tails lie in the tag block, re-based into `target`,
        which adds one int to every term; the image as first-block parts."""
        rank, basis = self.rank, self.basis
        rebase = self.target.lift(0) - self.packing.lift(rank)
        lead = FIELD_LIMIT - rank  # the least component field of the first block
        kernel, image = _Basis(self.target), _Basis(self.packing)
        while basis:
            lt, lc, tail = basis.pop()
            if (lt & _FIELD) < lead:
                kernel.append((lt + rebase, lc, tuple([(t + rebase, k) for t, k in tail])))
            else:
                image.append(_divisor({lt: lc, **{t: k for t, k in tail if (t & _FIELD) >= lead}},
                                      lt))
        kernel.reverse()
        image.reverse()
        return kernel, image

    def syzygies(self) -> list[Vec]:
        """The reduced basis of the kernel, each vector monic over the tags."""
        kernel = self.split()[0]
        return [_monic(d, kernel.packing) for d in _autoreduce(kernel)]

    def express(self, el: FreeModuleElement) -> list[Polynomial] | None:
        """Coordinates c with el = sum c_i g_i, or None when el is outside."""
        vec, den = _integral(element_to_vec(el), self.packing.pack)
        red, scale = _reduce(vec, _by_component(self.basis), self.packing)
        red = {self.packing.unpack(t): c for t, c in red.items()}
        if any(comp < self.rank for comp, _ in red):
            return None
        # s * (el, 0) reduces to (0, w) with el = -sum w_i g_i / s
        scale *= den
        coeffs = [dict() for _ in range(self.count)]
        for (comp, exps), c in red.items():
            coeffs[comp - self.rank][exps] = Fraction(-c, scale)
        return [Polynomial(self.ring, d) for d in coeffs]


def syzygy_basis(generators: Sequence[GenLike],
                 order: MonomialOrder = DEGREVLEX) -> list[FreeModuleElement]:
    """Reduced basis of {(c_1..c_k) : sum c_i g_i = 0} in Q[x]^k, found under
    degrevlex, where coefficients stay small, then brought to the order."""
    elements = [_to_element(g) for g in generators]
    if not elements:
        return []
    ring = elements[0].ring
    syzygies = [vec_to_element(v, len(elements), ring) for v in _AugmentedBasis(
        [element_to_vec(e) for e in elements], elements[0].rank, ring, DEGREVLEX).syzygies()]
    if order == DEGREVLEX:
        return syzygies
    return list(groebner_basis(syzygies, order, len(elements), ring).generators)


def express_in_terms(x: GenLike, generators: Sequence[GenLike],
                     order: MonomialOrder = DEGREVLEX) -> list[Polynomial] | None:
    """Coordinates of x in terms of the generators, or None if not a member."""
    elements = [_to_element(g) for g in generators]
    if not elements:
        el = _to_element(x)
        return [] if el.is_zero() else None
    return _AugmentedBasis([element_to_vec(e) for e in elements], elements[0].rank,
                           elements[0].ring, order).express(_to_element(x))


# ---------------------------------------------------------------------------
# quotient dimensions

# Budget on quotient walks. quotient_dimension searches for standard
# monomials in the boxes cut out by the pure powers among the leading terms
# and checks the boxes' total size before the walk; the subquotient walk of
# _leading_gap stops when it would count past it.
MAX_QUOTIENT_BOX = 100_000


def quotient_dimension(gb: GroebnerBasis) -> FiniteQuotientBasis | None:
    """Standard monomial basis of Q[x]^r / M, or None when infinite."""
    r = gb.ambient_rank
    nvars = len(gb.ring)
    if r == 0:
        return FiniteQuotientBasis((), 0)
    lts_by_comp: dict[int, list[Monomial]] = {c: [] for c in range(r)}
    for comp, exps in gb.leading_terms():
        lts_by_comp[comp].append(exps)

    boxes = []
    for comp in range(r):
        bounds = []
        for i in range(nvars):
            pure = [e[i] for e in lts_by_comp[comp]
                    if all(e[j] == 0 for j in range(nvars) if j != i)]
            if not pure:
                return None  # no pure power of x_i leads in this component
            bounds.append(min(pure))
        boxes.append(bounds)
    size = sum(math.prod(bounds) for bounds in boxes)
    if size > MAX_QUOTIENT_BOX:
        raise BudgetError(f"quotient walk over {size} monomials exceeds "
                          f"MAX_QUOTIENT_BOX = {MAX_QUOTIENT_BOX}")

    monomials: list[tuple[int, Monomial]] = []
    for comp, bounds in enumerate(boxes):
        lts = lts_by_comp[comp]
        for exps in product(*map(range, bounds)):
            if not any(all(a <= b for a, b in zip(lt, exps)) for lt in lts):
                monomials.append((comp, exps))

    monomials.sort(key=lambda t: (t[0], gb.order.mono_key(t[1])))
    return FiniteQuotientBasis(tuple(monomials), len(monomials))


def _leading_gap(kernel: _Basis, image: _Basis) -> int:
    """dim over Q of K / I, given minimal Groebner bases of I inside K under
    one packing, as the number of terms in LT(K) but not in LT(I).

    Bases under two packings raise InternalCheckError: leading terms under
    two orders count nothing. Then every image element must reduce to zero
    modulo the kernel, or ContainmentError. Then every variable x_i must act
    nilpotently on each minimal generator m of LT(K) outside LT(I), some
    x_i^a m lying in LT(I), or InfiniteQuotientError. Last a walk from those
    generators, one variable at a time, counts the gap: a term outside LT(I)
    has all its divisors above m outside LT(I) too, so stopping at LT(I)
    misses none.
    """
    packing = kernel.packing
    if image.packing is not packing:
        raise InternalCheckError("kernel and image bases are under different orders")
    guards = packing.guards
    divisors = _by_component(kernel)
    for lt, lc, tail in image:
        if _reduce({lt: lc, **dict(tail)}, divisors, packing)[0]:
            raise ContainmentError("image generators are not in the kernel span")
    walls = _by_component(image)

    def walled(term: int) -> bool:
        return any(not (term - w[0]) & guards for w in walls.get(term & _FIELD, ()))

    seen = {lt for lt, _, _ in kernel if not walled(lt)}
    for m in seen:
        exps = packing.unpack(m)[1]
        bounds = [packing.unpack(w[0])[1] for w in walls.get(m & _FIELD, ())]
        for i in range(len(exps)):
            # x_i^a m is in LT(I) for some a when a wall bounds m off the x_i axis
            if not any(all(a <= b for j, (a, b) in enumerate(zip(w, exps)) if j != i)
                       for w in bounds):
                raise InfiniteQuotientError("subquotient is not finite dimensional")
    stack = list(seen)
    while stack:
        m = stack.pop()
        for x in packing.weights:
            term = m + x
            if term not in seen and not walled(term):
                if term & guards:
                    raise BudgetError(_OVERFLOW)
                if len(seen) == MAX_QUOTIENT_BOX:
                    raise BudgetError(f"subquotient walk passes MAX_QUOTIENT_BOX = "
                                      f"{MAX_QUOTIENT_BOX} monomials")
                seen.add(term)
                stack.append(term)
    return len(seen)


def subquotient_dimension(kernel_gens: Sequence[GenLike],
                          image_gens: Sequence[GenLike]) -> int:
    """dim over Q of (span kernel_gens) / (span image_gens).

    One Groebner basis of each span; the dimension is a count of leading
    terms (see _leading_gap), which also checks that the image span lies in
    the kernel span (ContainmentError) and that the quotient is finite
    (InfiniteQuotientError). The dimension does not depend on the term
    order, so the bases are built under degrevlex, where coefficients stay
    small.
    """
    kernel = [_to_element(g) for g in kernel_gens]
    image = [_to_element(g) for g in image_gens]
    ranks = {g.rank for g in kernel + image}
    if len(ranks) > 1:
        raise ValueError("kernel and image generators have different ranks")
    rank = ranks.pop() if ranks else 1
    packing = _packing(DEGREVLEX, len((kernel + image)[0].ring) if kernel + image else 0)
    kernel_basis, image_basis = (_buchberger([element_to_vec(g) for g in gens], rank, packing)
                                 for gens in (kernel, image))
    return _leading_gap(kernel_basis, image_basis)


def origin_support_check(gb: GroebnerBasis) -> bool:
    """True when the finite quotient Q[x]/I is supported only at the origin.

    Every variable must act nilpotently on the quotient; since the quotient
    has dimension mu, nilpotency is exactly x_i^mu lying in the ideal.
    """
    if gb.ambient_rank != 1:
        raise ValueError("origin support is defined for ideals")
    q = quotient_dimension(gb)
    if q is None:
        raise InfiniteQuotientError("quotient is not finite dimensional")
    mu = q.dimension
    ring = gb.ring
    for i in range(len(ring)):
        power = Polynomial.variable(ring, i) ** mu
        if not normal_form(power, gb).is_zero():
            return False
    return True
