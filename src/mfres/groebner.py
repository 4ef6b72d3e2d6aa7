"""Groebner bases for submodules of free modules over Q[x_0..x_n].

Elements of a rank r free module are stored as maps from (component, exponent
vector) to a coefficient: a Fraction at the public boundary, an int inside
the core. Monomial orders are global (degrevlex by default, lex on
request); module terms are compared position over term, with lower component
index taking priority. Global orders are enough here because the only local
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
remainder joins the basis. Monic Fraction vectors are built only where the
public functions return them, by dividing by a leading coefficient or a
scale. The scale of one reduction is capped at MAX_COEFFICIENT_BITS, since
runaway coefficient growth shows there first.

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
degrevlex: the order reaches only the outputs that depend on it, the
Groebner bases, syzygies and coordinates, and the standard monomials.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import BudgetError, ContainmentError, InfiniteQuotientError
from .polyring import Monomial, Polynomial, Ring, degrevlex_key, lex_key

Term = tuple[int, Monomial]  # (component, exponent vector)
Vec = dict[Term, Fraction]


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order plus the position-over-term module extension."""

    name: str

    def mono_key(self, exps: Monomial) -> tuple:
        if self.name == "degrevlex":
            return degrevlex_key(exps)
        if self.name == "lex":
            return lex_key(exps)
        raise ValueError(f"unknown order {self.name!r}")

    def term_key(self, term: Term) -> tuple:
        comp, exps = term
        return (-comp, self.mono_key(exps))

    def heap_key(self, term: Term) -> tuple:
        """Reverse of term_key: a min-heap on it pops the leading term first."""
        comp, exps = term
        if self.name == "degrevlex":
            return (comp, -sum(exps), exps[::-1])
        if self.name == "lex":
            return (comp, tuple(-e for e in exps))
        raise ValueError(f"unknown order {self.name!r}")


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def get_order(name: str) -> MonomialOrder:
    if name == "degrevlex":
        return DEGREVLEX
    if name == "lex":
        return LEX
    raise ValueError(f"unknown order {name!r}")


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

# Inside the Groebner core vectors have int coefficients. A divisor is a
# primitive integer vector (its coefficients have gcd 1) split into its
# leading term, its leading coefficient, which is positive, and the rest;
# _reduce takes divisors grouped by the component of their leading term.
IntVec = dict[Term, int]
Divisor = tuple[Term, int, tuple[tuple[Term, int], ...]]
Divisors = dict[int, list[Divisor]]


# Budget on pseudo-division: the bits of the scale one _reduce call
# multiplies its input by, checked each time the scale grows. Runaway
# coefficient growth is what makes a Buchberger run hang; the largest scale
# any test, benchmark or reference input reaches is far below it.
MAX_COEFFICIENT_BITS = 8192


def _lt(vec: Vec, order: MonomialOrder) -> Term:
    return max(vec, key=order.term_key)


def _divides(small: Term, big: Term) -> bool:
    return small[0] == big[0] and all(a <= b for a, b in zip(small[1], big[1]))


def _mono_sub(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _integral(vec: Vec) -> tuple[IntVec, int]:
    """(den * vec, den) for the least den > 0 that clears every denominator."""
    den = math.lcm(*(c.denominator for c in vec.values()))
    return {t: c.numerator * (den // c.denominator) for t, c in vec.items()}, den


def _divisor(vec: IntVec, lt: Term) -> Divisor:
    """vec divided by its content, signed so that the coefficient at lt is
    positive, split into lt, that coefficient and the rest."""
    g = math.gcd(*vec.values())
    if vec[lt] < 0:
        g = -g
    return lt, vec[lt] // g, tuple((t, c // g) for t, c in vec.items() if t != lt)


def _monic(d: Divisor) -> Vec:
    """The divisor scaled to leading coefficient 1, leading term first."""
    lt, lc, tail = d
    return {lt: Fraction(1), **{t: Fraction(c, lc) for t, c in tail}}


def _by_component(divisors: Iterable[Divisor]) -> Divisors:
    out: Divisors = {}
    for d in divisors:
        out.setdefault(d[0][0], []).append(d)
    return out


def _degree(d: Divisor) -> int:
    (_, exps), _, tail = d
    return max([sum(exps)] + [sum(e) for (_, e), _ in tail])


def _reduce(vec: IntVec, divisors: Divisors, order: MonomialOrder) -> tuple[IntVec, int]:
    """Full normal form by pseudo-division: (remainder, scale) with scale > 0
    and scale * vec congruent to the remainder, every term of which escapes
    every divisor.

    The terms still to be reduced live in `work`, and each also sits in a
    min-heap under its heap_key, computed once when the term enters, so the
    leading term is a pop away. A subtraction that cancels a term removes it
    from `work` only; its heap entry is skipped when popped. To cancel c*t by
    a divisor whose leading coefficient lc does not divide c, work, remainder
    and scale are first multiplied by lc / gcd(c, lc); the divisor's leading
    term then cancels t exactly, so only its tail is subtracted. Terms leave
    in descending order, which is the order of the remainder's keys.
    """
    key = order.heap_key
    work = dict(vec)
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    remainder: IntVec = {}
    scale = 1
    while heap:
        term = heapq.heappop(heap)[1]
        coeff = work.pop(term, None)
        if coeff is None:
            continue
        exps = term[1]
        for (_, dexps), lc, tail in divisors.get(term[0], ()):
            if all(a <= b for a, b in zip(dexps, exps)):
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
                shift = _mono_sub(exps, dexps)
                for (c, e), k in tail:
                    t = (c, tuple(map(add, e, shift)))
                    old = work.get(t)
                    if old is None:
                        work[t] = factor * k
                        heapq.heappush(heap, (key(t), t))
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

def _s_vector(a: Divisor, b: Divisor, lcm: Monomial) -> IntVec:
    """lc(b)/g * lcm/lt(a) * a - lc(a)/g * lcm/lt(b) * b with g the gcd of
    the two leading coefficients; the leading terms cancel."""
    (_, ea), lca, tail_a = a
    (_, eb), lcb, tail_b = b
    g = math.gcd(lca, lcb)
    ma, mb = lcb // g, lca // g
    shift = _mono_sub(lcm, ea)
    s: IntVec = {(c, tuple(map(add, e, shift))): ma * k for (c, e), k in tail_a}
    shift = _mono_sub(lcm, eb)
    for (c, e), k in tail_b:
        t = (c, tuple(map(add, e, shift)))
        new = s.get(t, 0) - mb * k
        if new:
            s[t] = new
        else:
            del s[t]
    return s


def _buchberger(vecs: list[Vec], ambient_rank: int, order: MonomialOrder) -> list[Divisor]:
    """Minimal Groebner basis of the submodule generated by vecs, sorted
    descending by leading term; tails are left as the run made them."""
    seeds = [_divisor(_integral(v)[0], _lt(v, order)) for v in vecs if v]
    # sorted as monic vectors, so the run depends neither on the caller's
    # ordering nor on how the inputs are scaled
    seeds.sort(key=lambda d: (order.term_key(d[0]), sorted(
        ((t, Fraction(c, d[1])) for t, c in d[2]),
        key=lambda kv: order.term_key(kv[0]), reverse=True)))

    basis: list[Divisor] = []
    divisors: Divisors = {}  # the same elements, by component
    sugars: list[int] = []
    queued: dict[tuple[int, int], Monomial] = {}  # pair -> lcm; the heap may hold more
    heap: list[tuple[int, tuple, int, int]] = []

    def insert(d: Divisor, sugar: int) -> None:
        k = len(basis)
        comp, exps = d[0]
        basis.append(d)
        divisors.setdefault(comp, []).append(d)
        sugars.append(sugar)
        # criterion B: lt(h) | lcm(i, j) and lcm(i, j) differs from both lcm(i, h), lcm(j, h)
        for (i, j), lcm in list(queued.items()):
            if (basis[i][0][0] == comp and all(a <= b for a, b in zip(exps, lcm))
                    and lcm != _mono_lcm(basis[i][0][1], exps)
                    and lcm != _mono_lcm(basis[j][0][1], exps)):
                del queued[(i, j)]
        classes: dict[Monomial, list[int]] = {}
        for i in range(k):
            if basis[i][0][0] == comp:
                classes.setdefault(_mono_lcm(basis[i][0][1], exps), []).append(i)
        for lcm, members in classes.items():
            # criterion M: another new lcm properly divides this one
            if any(other != lcm and all(a <= b for a, b in zip(other, lcm)) for other in classes):
                continue
            # product criterion, valid for ideals only, never for module S-pairs;
            # one coprime pair discards its whole class
            if ambient_rank == 1 and any(
                    lcm == tuple(map(add, basis[i][0][1], exps)) for i in members):
                continue
            i = members[0]  # criterion F: one pair per lcm
            pair_sugar = max(sugars[i] + sum(lcm) - sum(basis[i][0][1]),
                             sugar + sum(lcm) - sum(exps))
            queued[(i, k)] = lcm
            heapq.heappush(heap, (pair_sugar, order.term_key((comp, lcm)), i, k))

    for d in seeds:
        insert(d, _degree(d))

    while heap:
        sugar, _, i, j = heapq.heappop(heap)
        lcm = queued.pop((i, j), None)
        if lcm is None:
            continue  # dropped by criterion B
        h, _ = _reduce(_s_vector(basis[i], basis[j], lcm), divisors, order)
        if h:
            insert(_divisor(h, next(iter(h))), sugar)  # a remainder lists its leading term first

    kept: Divisors = {}  # one element per minimal leading term
    for d in sorted(basis, key=lambda d: order.term_key(d[0])):
        if not any(_divides(lt, d[0]) for lt, _, _ in kept.get(d[0][0], ())):
            kept.setdefault(d[0][0], []).append(d)
    return [d for comp in sorted(kept) for d in reversed(kept[comp])]


def _autoreduce(basis: list[Divisor], order: MonomialOrder) -> list[Divisor]:
    """The reduced basis from a minimal one, in its order: each tail
    reduced by the whole basis, which leaves the unique reduced basis of the
    submodule up to scaling. An element's own leading term divides none of
    its tail terms, nor any term the reduction brings in, all being smaller.
    """
    divisors = _by_component(basis)
    final = []
    for lt, lc, tail in basis:
        rest, scale = _reduce(dict(tail), divisors, order)
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
    divisors: tuple[Divisor, ...] = field(repr=False, compare=False)

    def leading_terms(self) -> list[Term]:
        return [lt for lt, _, _ in self.divisors]


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
    divisors = _autoreduce(_buchberger([element_to_vec(e) for e in nonzero], ambient_rank, order),
                           order)
    gens = tuple(vec_to_element(_monic(d), ambient_rank, ring) for d in divisors)
    return GroebnerBasis(ring=ring, ambient_rank=ambient_rank, order=order, generators=gens,
                         divisors=tuple(divisors))


def normal_form(x: GenLike, gb: GroebnerBasis) -> FreeModuleElement | Polynomial:
    """Unique remainder of x modulo the basis; type matches the input."""
    el = _to_element(x)
    if el.rank != gb.ambient_rank:
        raise ValueError("rank mismatch with basis")
    vec, den = _integral(element_to_vec(el))
    red, scale = _reduce(vec, _by_component(gb.divisors), gb.order)
    scale *= den
    out = vec_to_element({t: Fraction(c, scale) for t, c in red.items()}, gb.ambient_rank, el.ring)
    if isinstance(x, Polynomial):
        return out.components[0]
    return out


# ---------------------------------------------------------------------------
# syzygies, membership, coordinates

class _AugmentedBasis:
    """Minimal Groebner basis of the rows (g_i, e_i) and (n_j, 0), original
    components dominating tags. The relations n_j carry no tag. By
    elimination the elements led by a tag form a minimal basis of the
    preimage {c : sum c_i g_i in span n_j}, stored as `kernel` with tags
    shifted to components 0..k-1: the syzygy module when there are no
    relations; syzygies() interreduces it alone, since its tails lie in the
    tag block. The first-block parts of the others form `image`, a minimal
    basis of the span of the g_i and n_j."""

    def __init__(self, gens: list[FreeModuleElement], order: MonomialOrder,
                 relations: Sequence[FreeModuleElement] = ()):
        if not gens:
            raise ValueError("need at least one generator")
        self.rank = gens[0].rank
        self.ring = gens[0].ring
        self.count = len(gens)
        self.order = order
        zero_exps = tuple(0 for _ in self.ring)
        aug: list[Vec] = [element_to_vec(n) for n in relations]
        for i, g in enumerate(gens):
            vec = element_to_vec(g)
            vec[(self.rank + i, zero_exps)] = Fraction(1)
            aug.append(vec)
        basis = _buchberger(aug, self.rank + self.count, order)
        self.divisors = _by_component(basis)
        r = self.rank
        self.kernel: list[Divisor] = []
        self.image: list[Divisor] = []
        for (comp, exps), lc, tail in basis:
            if comp >= r:
                self.kernel.append(((comp - r, exps), lc,
                                    tuple(((c - r, e), k) for (c, e), k in tail)))
            else:
                first = {t: k for t, k in tail if t[0] < r}
                self.image.append(_divisor({(comp, exps): lc, **first}, (comp, exps)))

    def syzygies(self) -> list[FreeModuleElement]:
        return [vec_to_element(_monic(d), self.count, self.ring)
                for d in _autoreduce(self.kernel, self.order)]

    def express(self, el: FreeModuleElement) -> list[Polynomial] | None:
        """Coordinates c with el = sum c_i g_i, or None when el is outside."""
        vec, den = _integral(element_to_vec(el))
        red, scale = _reduce(vec, self.divisors, self.order)
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
    syzygies = _AugmentedBasis(elements, DEGREVLEX).syzygies()
    if order == DEGREVLEX:
        return syzygies
    return list(groebner_basis(syzygies, order, len(elements), elements[0].ring).generators)


def express_in_terms(x: GenLike, generators: Sequence[GenLike],
                     order: MonomialOrder = DEGREVLEX) -> list[Polynomial] | None:
    """Coordinates of x in terms of the generators, or None if not a member."""
    elements = [_to_element(g) for g in generators]
    if not elements:
        el = _to_element(x)
        return [] if el.is_zero() else None
    return _AugmentedBasis(elements, order).express(_to_element(x))


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


def _leading_gap(kernel: list[Divisor], image: list[Divisor]) -> int:
    """dim over Q of K / I, given minimal degrevlex Groebner bases of I
    inside K, as the number of terms in LT(K) but not in LT(I).

    First every image element must reduce to zero modulo the kernel, or
    ContainmentError. Then every variable x_i must act nilpotently on each
    minimal generator m of LT(K) outside LT(I), some x_i^a m lying in
    LT(I), or InfiniteQuotientError. Last a walk from those generators, one
    variable at a time, counts the gap: a term outside LT(I) has all its
    divisors above m outside LT(I) too, so stopping at LT(I) misses none.
    """
    divisors = _by_component(kernel)
    for lt, lc, tail in image:
        if _reduce({lt: lc, **dict(tail)}, divisors, DEGREVLEX)[0]:
            raise ContainmentError("image generators are not in the kernel span")
    walls: dict[int, list[Monomial]] = {}
    for (comp, exps), _, _ in image:
        walls.setdefault(comp, []).append(exps)

    def walled(comp: int, exps: Monomial) -> bool:
        return any(all(a <= b for a, b in zip(w, exps)) for w in walls.get(comp, ()))

    seen = {lt for lt, _, _ in kernel if not walled(*lt)}
    for comp, exps in seen:
        for i in range(len(exps)):
            # x_i^a m is in LT(I) for some a when a wall bounds m off the x_i axis
            if not any(all(a <= b for j, (a, b) in enumerate(zip(w, exps)) if j != i)
                       for w in walls.get(comp, ())):
                raise InfiniteQuotientError("subquotient is not finite dimensional")
    stack = list(seen)
    while stack:
        comp, exps = stack.pop()
        for i in range(len(exps)):
            term = (comp, exps[:i] + (exps[i] + 1,) + exps[i + 1:])
            if term not in seen and not walled(*term):
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
    kernel_basis, image_basis = (_buchberger([element_to_vec(g) for g in gens], rank, DEGREVLEX)
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
