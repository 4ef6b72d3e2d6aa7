from __future__ import annotations

import contextlib
import dataclasses
import inspect
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

import mfres.groebner
import mfres.mf
from mfres import (
    BudgetError,
    ContainmentError,
    DEGREVLEX,
    LEX,
    FreeModuleElement,
    InfiniteQuotientError,
    InternalCheckError,
    MatrixFactorization,
    PolyMatrix,
    Polynomial,
    SparseColumns,
    TwoPeriodicComplex,
    cokernel_presentation,
    dual,
    express_in_terms,
    get_order,
    groebner_basis,
    hochster_theta,
    hom_complex,
    homology_dimensions,
    jacobian_generators,
    normal_form,
    origin_support_check,
    periodic_homology,
    quotient_dimension,
    shift,
    subquotient_dimension,
    syzygy_basis,
    to_string,
    tor_lengths,
)
from mfres.groebner import (FIELD_LIMIT, _FIELD, _AugmentedBasis, _autoreduce, _buchberger,
                             _leading_gap, _monic, _packing, _seeds, element_to_vec,
                             vec_to_element)
from conftest import XY, XYZ, koszul_rank4, make_mf, make_module, matrix, poly, sparse_to_matrix


class TestGroebnerBasis:
    def test_twisted_cubic_slice_both_orders(self):
        gens = [poly("y - x^2"), poly("x^3")]
        for order in (DEGREVLEX, LEX):
            gb = groebner_basis(gens, order)
            strings = sorted(to_string(g.components[0]) for g in gb.generators)
            assert strings == ["x*y", "x^2 - y", "y^2"]
            q = quotient_dimension(gb)
            assert q.dimension == 3

    def test_input_order_independence(self):
        gens = [poly("x^2 + y"), poly("x*y - 1"), poly("y^3 + x")]
        reference = groebner_basis(gens).generators
        rng = random.Random(7)
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert groebner_basis(shuffled).generators == reference

    def test_scaling_invariance(self):
        gens = [poly("2*x^2 + 2*y"), poly("1/3*y^2")]
        scaled = [poly("x^2 + y"), poly("y^2")]
        assert groebner_basis(gens).generators == groebner_basis(scaled).generators

    def test_empty_input_needs_context(self):
        with pytest.raises(ValueError):
            groebner_basis([])
        gb = groebner_basis([], ambient_rank=1, ring=XY)
        assert gb.generators == ()
        assert quotient_dimension(gb) is None

    def test_module_basis_keeps_components_apart(self):
        zero = Polynomial.zero(XY)
        gens = [
            FreeModuleElement((poly("x"), zero)),
            FreeModuleElement((zero, poly("y"))),
        ]
        gb = groebner_basis(gens)
        assert len(gb.generators) == 2
        assert gb.ambient_rank == 2


class TestNormalForm:
    def test_reduces_members_to_zero(self):
        gb = groebner_basis([poly("y - x^2"), poly("x^3")])
        member = poly("(y - x^2)*(x + y) + x^3*y")
        assert normal_form(member, gb).is_zero()

    def test_type_preserving(self):
        gb = groebner_basis([poly("x^2")])
        out = normal_form(poly("x^3 + x + 1"), gb)
        assert isinstance(out, Polynomial)
        assert out == poly("x + 1")

    @given(st.integers(0, 3), st.integers(0, 3),
           st.fractions(max_denominator=5), st.fractions(max_denominator=5))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_and_linear(self, a, b, c1, c2):
        gb = groebner_basis([poly("x^2 - y"), poly("y^2")])
        p = Polynomial(XY, {(a, b): c1, (b, a): c2} if (a, b) != (b, a)
                       else {(a, b): c1 + c2})
        nf = normal_form(p, gb)
        assert normal_form(nf, gb) == nf
        q = poly("x*y + 1")
        assert normal_form(p + q, gb) == nf + normal_form(q, gb)


# the lex syzygies of these run past MAX_COEFFICIENT_BITS when the tagged
# Buchberger run is made under lex itself
RUNAWAY = ("3*x^2*y^2*z - 3*x^2*z + x*z^2", "-2*x^2*y^2 - 2*z^2 + 2*x", "-x*y*z^2 - 2*x^2 - 2*y")


class TestSyzygiesAndMembership:
    def test_syzygies_annihilate(self):
        gens = [poly("x^2 + y"), poly("x*y"), poly("y^2 - x")]
        for syz in syzygy_basis(gens):
            total = Polynomial.zero(XY)
            for c, g in zip(syz.components, gens):
                total = total + c * g
            assert total.is_zero()

    def test_lex_syzygies_of_the_runaway_draw(self):
        gens = [poly(p, XYZ) for p in RUNAWAY]
        syz = syzygy_basis(gens, LEX)
        assert syz
        for s in syz:
            assert sum((c * g for c, g in zip(s.components, gens)), Polynomial.zero(XYZ)).is_zero()
        # the same module as the degrevlex syzygies, in its reduced lex basis
        by_degrevlex = syzygy_basis(gens)
        lex_gb = groebner_basis(syz, LEX)
        assert all(normal_form(s, lex_gb).is_zero() for s in by_degrevlex)
        assert tuple(syz) == lex_gb.generators == groebner_basis(by_degrevlex, LEX).generators

    def test_koszul_syzygy_is_found(self):
        sys_gens = syzygy_basis([poly("x"), poly("y")])
        assert sys_gens  # (y, -x) up to sign and scale
        assert any(not s.is_zero() for s in sys_gens)

    def test_express_member(self):
        coords = express_in_terms(poly("x^2 + x*y"), [poly("x")])
        assert coords is not None
        assert coords[0] == poly("x + y")

    def test_express_combination(self):
        gens = [poly("x^2 - y"), poly("y^3")]
        target = poly("(x^2 - y)*(y + 2) + y^3*x")
        coords = express_in_terms(target, gens)
        assert coords is not None
        rebuilt = sum((c * g for c, g in zip(coords, gens)), Polynomial.zero(XY))
        assert rebuilt == target

    def test_express_non_member(self):
        assert express_in_terms(poly("y"), [poly("x")]) is None


class TestQuotients:
    def test_staircase_basis(self):
        gb = groebner_basis([poly("x^2"), poly("y^3")])
        q = quotient_dimension(gb)
        assert q.dimension == 6
        exps = [m for _, m in q.standard_monomials]
        assert set(exps) == {(a, b) for a in range(2) for b in range(3)}

    def test_infinite_quotient_is_none(self):
        assert quotient_dimension(groebner_basis([poly("x")])) is None

    def test_subquotient_chain_in_one_spot(self):
        # (x)/(x^2) inside Q[x, y] mod y: use univariate flavored generators
        dim = subquotient_dimension([poly("x"), poly("y")],
                                    [poly("x^2"), poly("x*y"), poly("y")])
        assert dim == 1

    def test_subquotient_full_mod_ideal(self):
        dim = subquotient_dimension([Polynomial.one(XY)],
                                    [poly("x"), poly("y")])
        assert dim == 1

    def test_subquotient_rejects_outside_image(self):
        with pytest.raises(ContainmentError):
            subquotient_dimension([poly("x^2")], [poly("x")])

    def test_subquotient_detects_infinite(self):
        with pytest.raises(InfiniteQuotientError):
            subquotient_dimension([poly("x")], [])

    def test_zero_kernel(self):
        assert subquotient_dimension([], []) == 0


class TestQuotientBudget:
    def test_box_is_checked_before_the_walk(self, monkeypatch):
        gb = groebner_basis([poly("x^400"), poly("y^400")])

        def refuse(*ranges):
            raise AssertionError("the walk started")
        monkeypatch.setattr(mfres.groebner, "product", refuse)
        with pytest.raises(BudgetError, match="MAX_QUOTIENT_BOX"):
            quotient_dimension(gb)

    def test_an_infinite_quotient_is_not_a_budget_error(self):
        assert quotient_dimension(groebner_basis([poly("x^400")])) is None

    def test_subquotient_walk_is_budgeted(self):
        # Q[x, y] / (x^400, y^400) has 160,000 standard monomials
        with pytest.raises(BudgetError, match="MAX_QUOTIENT_BOX"):
            subquotient_dimension([Polynomial.one(XY)], [poly("x^400"), poly("y^400")])


class TestOriginSupport:
    def test_node_jacobian(self):
        assert origin_support_check(groebner_basis([poly("y"), poly("x")]))

    def test_shifted_point(self):
        assert not origin_support_check(groebner_basis([poly("x - 1"), poly("y")]))

    def test_fermat_jacobian(self):
        assert origin_support_check(groebner_basis([poly("3*x^2"), poly("3*y^2")]))


def test_only_order_dependent_functions_take_an_order():
    # chi, Ext, Tor, theta, Gram entries and subquotient dimensions are the
    # same under every order; only Groebner outputs and the Milnor basis are not
    takes_order = {name for name in mfres.__all__
                   if callable(obj := getattr(mfres, name)) and not inspect.isclass(obj)
                   and "order" in inspect.signature(obj).parameters}
    assert takes_order == {"groebner_basis", "syzygy_basis", "express_in_terms",
                           "milnor_algebra"}
    for fn in (mfres.groebner._leading_gap, mfres.pairings._syzygy_step):
        assert "order" not in inspect.signature(fn).parameters
    assert "over" not in {f.name for f in dataclasses.fields(mfres.ModulePresentation)}


def test_get_order_names():
    assert get_order("degrevlex") is DEGREVLEX
    assert get_order("lex") is LEX
    with pytest.raises(ValueError):
        get_order("grlex")


@st.composite
def _packable_terms(draw):
    """An order, a variable count and terms whose fields reach up to the
    field edge: each exponent under lex, the degree under degrevlex."""
    order = draw(st.sampled_from([DEGREVLEX, LEX]))
    nvars = draw(st.integers(1, 3))
    edge = (FIELD_LIMIT - 1) // (nvars if order == DEGREVLEX else 1)
    term = st.tuples(st.integers(0, 3), st.tuples(*[st.integers(0, edge)] * nvars))
    return order, nvars, draw(st.lists(term, min_size=2, max_size=6))


@given(_packable_terms())
@settings(max_examples=200, deadline=None)
def test_packing_matches_tuple_terms(case):
    order, nvars, terms = case
    packing = _packing(order, nvars)
    zero = packing.pack(0, (0,) * nvars)
    for s in terms:
        ps = packing.pack(*s)
        assert packing.unpack(ps) == s
        for t in terms:
            pt = packing.pack(*t)
            assert (ps < pt) == (order.term_key(s) < order.term_key(t))
            assert (ps == pt) == (s == t)
            packed_divides = ps >> packing.shift == pt >> packing.shift and not (pt - ps) & packing.guards
            assert packed_divides == (s[0] == t[0] and all(a <= b for a, b in zip(s[1], t[1])))
            # s times the monomial of t: one addition, or a set guard bit past the edge
            total = ps + packing.pack(0, t[1]) - zero
            product = tuple(a + b for a, b in zip(s[1], t[1]))
            if (sum(product) if order == DEGREVLEX else max(product)) < FIELD_LIMIT:
                assert total == packing.pack(s[0], product)
            else:
                assert total & packing.guards
                with pytest.raises(BudgetError):
                    packing.pack(s[0], product)


@st.composite
def _lifted_terms(draw):
    """A packing whose three components carry lifts made as the induced
    orders make them, a packed term with its component field replaced and
    perhaps the block bit of a tagged run added; terms over them, and a
    monomial to multiply them by."""
    order = draw(st.sampled_from([DEGREVLEX, LEX]))
    nvars = draw(st.integers(1, 3))
    packing = _packing(order, nvars)
    small = st.tuples(*[st.integers(0, 40)] * nvars)
    lifts = [packing.pack(draw(st.integers(0, 3)), draw(small)) & ~_FIELD | FIELD_LIMIT - 1 - c
             for c in range(3)]
    lifts = [lift + draw(st.booleans()) * (FIELD_LIMIT << packing.shift) for lift in lifts]
    terms = st.tuples(st.integers(0, 2), small)
    return packing.weighted(lifts), draw(st.lists(terms, min_size=2, max_size=6)), draw(small)


@given(_lifted_terms())
@settings(max_examples=200, deadline=None)
def test_any_lifts_give_a_module_order(case):
    packing, terms, m = case
    for s in terms:
        ps = packing.pack(*s)
        assert packing.unpack(ps) == s
        sm = packing.pack(s[0], tuple(a + b for a, b in zip(s[1], m)))
        assert sm > ps or not any(m)  # a term is below each of its multiples
        for t in terms:
            pt = packing.pack(*t)
            assert (ps == pt) == (s == t)
            # multiplying both terms by one monomial keeps their order
            tm = packing.pack(t[0], tuple(a + b for a, b in zip(t[1], m)))
            assert (ps < pt) == (sm < tm)
            packed_divides = (ps & _FIELD) == (pt & _FIELD) and not (pt - ps) & packing.guards
            assert packed_divides == (s[0] == t[0] and all(a <= b for a, b in zip(s[1], t[1])))


@st.composite
def _seed_lists(draw):
    """Vectors of Q[x, y]^2 with duplicates and rescaled copies among them."""
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    term = st.tuples(st.integers(0, 1), st.tuples(st.integers(0, 2), st.integers(0, 2)))
    vecs = draw(st.lists(st.dictionaries(term, coeff, max_size=4), min_size=1, max_size=6))
    for v in draw(st.lists(st.sampled_from(vecs), max_size=4)):
        k = draw(coeff)
        vecs.append({t: k * c for t, c in v.items()})
    return draw(st.permutations(vecs))


@given(_seed_lists(), st.sampled_from([DEGREVLEX, LEX]))
@settings(max_examples=100, deadline=None)
def test_seeds_sort_as_monic_vectors(vecs, order):
    # the key Buchberger sorted its seeds by before terms were packed: the
    # leading term, then the monic tail, terms descending
    def monic(v):
        lt = max(v, key=order.term_key)
        return {t: c / v[lt] for t, c in v.items()}, lt

    def old_key(v):
        m, lt = monic(v)
        return order.term_key(lt), sorted(((t, c) for t, c in m.items() if t != lt),
                                          key=lambda kv: order.term_key(kv[0]), reverse=True)

    packing = _packing(order, 2)
    want = [monic(v)[0] for v in sorted(filter(None, vecs), key=old_key)]
    assert [_monic(d, packing) for d, _ in _seeds(vecs, packing)] == want


def test_seeds_build_no_fraction(monkeypatch):
    # three seeds tied on x e_0 with leading coefficients 2, 3 and 1/2: their
    # monic tails 3/2, 1/6 and 2 y e_0 are compared as the ints 9, 1 and 12
    x, y = (0, (1, 0)), (0, (0, 1))
    vecs = [{x: Fraction(2), y: Fraction(3)}, {x: 3, y: Fraction(1, 2)}, {x: Fraction(1, 2), y: 1},
            {(1, (0, 0)): 5}]
    packing = _packing(DEGREVLEX, 2)
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(
        lambda cls, *args, **kwargs: built.append(args) or new(cls, *args, **kwargs)))
    seeds = _seeds(vecs, packing)
    assert built == []
    # the seed of the lower term 5 e_1 first, then the tied ones by those ints
    assert [d[2] for d, _ in seeds] == [(), ((packing.pack(*y), 1),), ((packing.pack(*y), 3),),
                                        ((packing.pack(*y), 2),)]


class TestFieldOverflow:
    """Past FIELD_LIMIT a packed field would carry into its neighbour; every
    run refuses such a term with BudgetError instead."""

    def test_exponent_at_the_limit(self):
        big = Polynomial(XY, {(FIELD_LIMIT, 0): 1, (0, 1): 1})
        for run in (lambda: groebner_basis([big, poly("y^2")]),
                    lambda: groebner_basis([big], LEX),
                    lambda: syzygy_basis([big, poly("x*y")]),
                    lambda: homology_dimensions(TwoPeriodicComplex(
                        PolyMatrix.from_rows([[big]]), PolyMatrix.from_rows([[poly("0")]])))):
            with pytest.raises(BudgetError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
                run()

    def test_just_below_the_limit(self):
        edge = Polynomial(XY, {(FIELD_LIMIT - 1, 0): 1})
        assert groebner_basis([edge], LEX).generators[0].components[0] == edge

    def test_reduction_shift(self):
        # x^3 -> x^2 y^(L-1) -> x y^(2L-2) -> y^(3L-3): each step shifts the
        # tail y^(L-1) by one more y^(L-1), and the last shift would carry
        gb = groebner_basis([Polynomial(XY, {(1, 0): 1, (0, FIELD_LIMIT - 1): -1})], LEX)
        with pytest.raises(BudgetError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            normal_form(poly("x^3"), gb)

    def test_lex_s_vector_tail(self):
        # the S-vector y * (x + y^(L-1)) - x*y = y^L crosses the limit under
        # lex, where the seeds and the lcm x*y stay inside it
        seed = Polynomial(XY, {(1, 0): 1, (0, FIELD_LIMIT - 1): 1})
        with pytest.raises(BudgetError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            groebner_basis([seed, poly("x*y")], LEX)

    def test_induced_offset_degree(self):
        # F_e is lifted by x^h, the leading term of d_eo, and F_o by the
        # leading term x^h * x^h of d_oe under F_e's order, whose degree field
        # reaches the limit before any run starts
        d = PolyMatrix.from_rows([[Polynomial(XY, {(FIELD_LIMIT // 2, 0): 1})]])
        with pytest.raises(BudgetError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            periodic_homology(SparseColumns.of(d), SparseColumns.of(d))

    def test_component_index(self):
        # F_e has one component more than the component field can name
        wide = SparseColumns(XY, 1, ({(0, (1, 0)): 1},) * (FIELD_LIMIT + 1))
        tall = SparseColumns(XY, FIELD_LIMIT + 1, ({},))
        with pytest.raises(BudgetError, match=f"FIELD_LIMIT = {FIELD_LIMIT}"):
            periodic_homology(wide, tall)


# ---- an independent reference: all-pairs Buchberger with no criteria ----
#
# Vectors are dicts {(component, exponents): Fraction}. Leading terms are found
# by a linear scan with a comparison written out from the definition of the
# orders, every S-pair of equal component is reduced, and the result is
# minimalised and interreduced at the end.


def _ref_greater(order: str, s, t) -> bool:
    """s > t, position over term: the lower component wins, then the order."""
    if s[0] != t[0]:
        return s[0] < t[0]
    a, b = s[1], t[1]
    if order == "degrevlex":
        if sum(a) != sum(b):
            return sum(a) > sum(b)
        # the last exponent that differs is smaller in the larger monomial
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return x < y
        return False
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def _ref_lt(vec, order: str):
    best = None
    for t in vec:
        if best is None or _ref_greater(order, t, best):
            best = t
    return best


def _ref_subtract(target, scale, shift, vec):
    """target -= scale * x^shift * vec, in place."""
    for (c, e), v in vec.items():
        t = (c, tuple(a + b for a, b in zip(e, shift)))
        new = target.get(t, Fraction(0)) - scale * v
        if new:
            target[t] = new
        else:
            target.pop(t, None)


def _ref_normal_form(vec, basis, order: str):
    vec, remainder = dict(vec), {}
    while vec:
        t = _ref_lt(vec, order)
        for g in basis:
            gt = _ref_lt(g, order)
            if gt[0] == t[0] and all(x <= y for x, y in zip(gt[1], t[1])):
                shift = tuple(y - x for x, y in zip(gt[1], t[1]))
                _ref_subtract(vec, vec[t] / g[gt], shift, g)
                break
        else:
            remainder[t] = vec.pop(t)
    return remainder


def _ref_reduced_basis(gens: list[FreeModuleElement], order: str):
    basis = [{(c, e): v for c, p in enumerate(g.components) for e, v in p.items()}
             for g in gens]
    basis = [v for v in basis if v]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        ti, tj = _ref_lt(basis[i], order), _ref_lt(basis[j], order)
        if ti[0] != tj[0]:
            continue
        lcm = tuple(map(max, ti[1], tj[1]))
        s = {}
        _ref_subtract(s, -1 / basis[i][ti], tuple(l - e for l, e in zip(lcm, ti[1])), basis[i])
        _ref_subtract(s, 1 / basis[j][tj], tuple(l - e for l, e in zip(lcm, tj[1])), basis[j])
        h = _ref_normal_form(s, basis, order)
        if h:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(h)
    lts = [_ref_lt(g, order) for g in basis]

    def redundant(k):
        return any(m != k and lts[m][0] == lts[k][0]
                   and all(x <= y for x, y in zip(lts[m][1], lts[k][1]))
                   and (lts[m] != lts[k] or m < k) for m in range(len(basis)))

    minimal = [g for k, g in enumerate(basis) if not redundant(k)]
    reduced = []
    for k, g in enumerate(minimal):
        h = _ref_normal_form(g, minimal[:k] + minimal[k + 1:], order)
        lc = h[_ref_lt(h, order)]
        reduced.append({t: c / lc for t, c in h.items()})

    def descending(a, b):  # leading terms are distinct by now
        return -1 if _ref_greater(order, _ref_lt(a, order), _ref_lt(b, order)) else 1

    reduced.sort(key=cmp_to_key(descending))
    rank, ring = gens[0].rank, gens[0].ring
    out = []
    for vec in reduced:
        polys = [{} for _ in range(rank)]
        for (c, e), v in vec.items():
            polys[c][e] = v
        out.append(FreeModuleElement(tuple(Polynomial(ring, p) for p in polys)))
    return tuple(out)


def _polynomials(ring, max_exp: int, max_terms: int):
    monomials = st.tuples(*[st.integers(0, max_exp)] * len(ring))
    coefficients = st.integers(-3, 3).filter(bool)
    return st.dictionaries(monomials, coefficients, max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms))


@st.composite
def _ideals(draw):
    ring = draw(st.sampled_from([XY, XYZ]))
    polys = _polynomials(ring, 3 if ring == XY else 2, 3)
    return [FreeModuleElement((p,)) for p in draw(st.lists(polys, min_size=1, max_size=3))]


@st.composite
def _submodules(draw):
    rank = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 3))
    return [FreeModuleElement(tuple(draw(_polynomials(XY, 2, 2)) for _ in range(rank)))
            for _ in range(count)]


class TestAgainstPlainBuchberger:
    """groebner_basis against the reference above, which applies no pair
    criterion: ideals, where the product criterion is live, and rank 2 and 3
    submodules, where criterion B has to respect components."""

    def check(self, gens, order):
        assert groebner_basis(gens, order).generators == _ref_reduced_basis(gens, order.name)
        for syz in syzygy_basis(gens, order):
            for c in range(gens[0].rank):
                total = Polynomial.zero(gens[0].ring)
                for coeff, g in zip(syz.components, gens):
                    total = total + coeff * g.components[c]
                assert total.is_zero()

    @given(_ideals(), st.sampled_from([DEGREVLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_ideals(self, gens, order):
        self.check(gens, order)

    @given(_submodules(), st.sampled_from([DEGREVLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_submodules(self, gens, order):
        self.check(gens, order)


def _rational_polynomials(ring, max_exp: int, max_terms: int):
    monomials = st.tuples(*[st.integers(0, max_exp)] * len(ring))
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
    return st.dictionaries(monomials, coefficients, max_size=max_terms).map(
        lambda terms: Polynomial(ring, terms))


@st.composite
def _rational_case(draw):
    """Generators of a submodule of Q[x, y]^rank, an element x, and
    multipliers, all with rational coefficients."""
    rank = draw(st.sampled_from([1, 2]))
    polys = _rational_polynomials(XY, 2, 3)
    gens = [FreeModuleElement(tuple(draw(polys) for _ in range(rank)))
            for _ in range(draw(st.integers(1, 3)))]
    x = FreeModuleElement(tuple(draw(polys) for _ in range(rank)))
    multipliers = [draw(_rational_polynomials(XY, 1, 2)) for _ in gens]
    return gens, x, multipliers


def _combination(coords, gens):
    return FreeModuleElement(tuple(
        sum((c * g.components[i] for c, g in zip(coords, gens)), Polynomial.zero(XY))
        for i in range(gens[0].rank)))


class TestRationalCoefficients:
    """Reduction runs on integers inside; results on rational inputs must be
    exact all the same."""

    @given(_rational_case())
    @settings(max_examples=60, deadline=None)
    def test_normal_form_differs_by_a_member(self, case):
        gens, x, _ = case
        gb = groebner_basis(gens)
        r = normal_form(x, gb)
        diff = FreeModuleElement(tuple(a - b for a, b in zip(x.components, r.components)))
        coords = express_in_terms(diff, gens)
        assert coords is not None
        assert _combination(coords, gens) == diff
        lts = [_ref_lt({(c, e): v for c, p in enumerate(g.components) for e, v in p.items()},
                       "degrevlex") for g in gb.generators]
        for comp, p in enumerate(r.components):
            for exps, _ in p.items():
                assert not any(c == comp and all(a <= b for a, b in zip(e, exps))
                               for c, e in lts)

    @given(_rational_case())
    @settings(max_examples=60, deadline=None)
    def test_express_rebuilds_members_exactly(self, case):
        gens, _, multipliers = case
        target = _combination(multipliers, gens)
        coords = express_in_terms(target, gens)
        assert coords is not None
        assert _combination(coords, gens) == target


def _presentation_route(kernel, image, order):
    """dim (span kernel) / (span image) as Q[x]^k modulo the syzygies of the
    kernel generators plus the coordinates of the image generators."""
    relations = list(syzygy_basis(kernel, order))
    for g in image:
        coords = express_in_terms(g, kernel, order)
        if coords is None:
            raise ContainmentError("image generator outside the kernel span")
        if any(not p.is_zero() for p in coords):
            relations.append(FreeModuleElement(tuple(coords)))
    if not relations:
        raise InfiniteQuotientError("nothing to divide by")
    q = quotient_dimension(groebner_basis(relations, order))
    if q is None:
        raise InfiniteQuotientError("infinite presentation")
    return q.dimension


@st.composite
def _subquotient_case(draw):
    """Kernel generators k_j of a submodule of Q[x, y]^rank, and image
    generators x^a k_j, y^b k_j and multiples of the k_j, which span a
    finite colength submodule; some draws drop one generator (the quotient
    may become infinite) or add a random element (usually outside)."""
    rank = draw(st.sampled_from([1, 2]))
    polys = _polynomials(XY, 2, 2)
    kernel = [FreeModuleElement(tuple(draw(polys) for _ in range(rank)))
              for _ in range(draw(st.integers(1, 2)))]
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    image = []
    for k in kernel:
        for m in (poly(f"x^{a}"), poly(f"y^{b}"), draw(_polynomials(XY, 1, 2))):
            image.append(FreeModuleElement(tuple(m * p for p in k.components)))
    if draw(st.booleans()):
        del image[draw(st.integers(0, len(image) - 1))]
    if draw(st.booleans()):
        image.append(FreeModuleElement(tuple(draw(polys) for _ in range(rank))))
    return kernel, image


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ContainmentError, InfiniteQuotientError) as exc:
        return type(exc)


def _elements(*pairs):
    return [FreeModuleElement((poly(a), poly(b))) for a, b in pairs]


# a draw on which subquotient_dimension, when it still took lex, passed the
# coefficient budget at 8,469 bits while the presentation route answered
LEX_BUDGET_CASE = (
    _elements(("1", "x^2*y^2 + x"), ("x^2*y^2", "2*y^2 + 1")),
    _elements(("x^3", "x^5*y^2 + x^4"), ("x*y + 1", "x^3*y^3 + x^2*y^2 + x^2*y + x"),
              ("x^5*y^2", "2*x^3*y^2 + x^3"), ("x^2*y^5", "2*y^5 + y^3"),
              ("x^2*y^3 + x^2*y^2", "2*y^3 + 2*y^2 + y + 1"), ("2*y^2 + y", "3")))


class TestAgainstPresentationRoute:
    """subquotient_dimension counts leading terms of two Groebner bases; the
    presentation route builds the quotient from syzygies, coordinates and a
    third basis. Both give the same dimension or the same error: the route,
    which takes no order, against the reference under degrevlex, and against
    the reference under lex wherever that one answers within the budget."""

    @example(case=LEX_BUDGET_CASE, order=LEX)
    @given(_subquotient_case(), st.sampled_from([DEGREVLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_same_dimension_or_error(self, case, order):
        kernel, image = case
        got = _outcome(subquotient_dimension, kernel, image)
        assert got == _outcome(_presentation_route, kernel, image, DEGREVLEX)
        if order == LEX:
            with contextlib.suppress(BudgetError):
                assert got == _outcome(_presentation_route, kernel, image, LEX)


@st.composite
def _augmented_case(draw):
    """Generators of a submodule of Q[x, y]^rank and up to two relations."""
    rank = draw(st.sampled_from([1, 2]))
    polys = _polynomials(XY, 3 - rank, 3)
    gens, relations = ([FreeModuleElement(tuple(draw(polys) for _ in range(rank)))
                        for _ in range(draw(st.integers(lo, hi)))] for lo, hi in ((1, 3), (0, 2)))
    return gens, relations


@st.composite
def _factorization_pair(draw):
    """A rank 2 factorization of x^(a+d) + y^(b+c) under a unimodular change
    of basis with polynomial entries, and its shift, its dual or itself."""
    a, b, c, d = (draw(st.integers(1, 2)) for _ in range(4))
    u, v = (to_string(draw(_polynomials(XY, 1, 2))) for _ in range(2))
    p, p_inv = matrix([["1", u], ["0", "1"]]), matrix([["1", f"-({u})"], ["0", "1"]])
    q, q_inv = matrix([["1", "0"], [v, "1"]]), matrix([["1", "0"], [f"-({v})", "1"]])
    a_mat = matrix([[f"x^{a}", f"y^{b}"], [f"-y^{c}", f"x^{d}"]])
    b_mat = matrix([[f"x^{d}", f"-y^{b}"], [f"y^{c}", f"x^{a}"]])
    x = MatrixFactorization(poly(f"x^{a + d} + y^{b + c}"), p @ a_mat @ q, q_inv @ b_mat @ p_inv)
    return x, draw(st.sampled_from([x, shift(x), dual(x)]))


def _homology_outcome(x, y):
    try:
        return (homology_dimensions(hom_complex(x, y)),
                tor_lengths(x, cokernel_presentation(y)))
    except (BudgetError, InfiniteQuotientError) as exc:
        return type(exc)


class TestMinimalBases:
    """Buchberger returns minimal bases and only groebner_basis and
    syzygies interreduce. Normal forms and leading terms depend only on the
    module, so the answers are those of fully interreduced bases."""

    @given(_augmented_case(), st.sampled_from([DEGREVLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_syzygies_are_the_tag_led_part_of_the_reduced_basis(self, case, order):
        gens, relations = case
        rank, count = gens[0].rank, len(gens)
        zero, one = Polynomial.zero(XY), Polynomial.one(XY)
        augmented = [FreeModuleElement(n.components + (zero,) * count) for n in relations]
        augmented += [FreeModuleElement(g.components + tuple(one if t == i else zero
                                                             for t in range(count)))
                      for i, g in enumerate(gens)]
        gb = groebner_basis(augmented, order)
        want = [FreeModuleElement(g.components[rank:])
                for g, (comp, _) in zip(gb.generators, gb.leading_terms()) if comp >= rank]
        syzygies = _AugmentedBasis([element_to_vec(g) for g in gens], rank, XY, order,
                                   [element_to_vec(n) for n in relations]).syzygies()
        assert [vec_to_element(v, count, XY) for v in syzygies] == want

    @given(_factorization_pair())
    @settings(max_examples=25, deadline=None)
    def test_homology_equals_that_of_reduced_kernels_and_images(self, pair):
        # Hom homology has no relations; Tor against coker(A') has f and A'
        x, y = pair
        want = _homology_outcome(x, y)
        gap = mfres.mf._leading_gap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mfres.mf, "_leading_gap", lambda kernel, image: gap(
                _autoreduce(kernel), _autoreduce(image)))
            assert _homology_outcome(x, y) == want


def _position_over_term(packing, columns):
    """_Packing.induced with every lift the default one: position over term
    on each free term, as periodic_homology ordered them before."""
    default = _packing(DEGREVLEX, len(packing.offsets))
    return packing.weighted([default.lift(j) for j in range(len(columns))])


class TestInducedOrders:
    """periodic_homology orders each free term by the leading terms of the
    differential leaving it; a kernel and the image it is counted against
    share one order, and the counts are those of position over term."""

    @given(_factorization_pair())
    @settings(max_examples=25, deadline=None)
    def test_homology_equals_that_under_position_over_term(self, pair):
        # Hom homology, and Tor against coker(A') with its relations
        x, y = pair
        want = _homology_outcome(x, y)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mfres.groebner._Packing, "induced", _position_over_term)
            assert _homology_outcome(x, y) == want

    def test_leading_gap_refuses_bases_under_two_orders(self, monkeypatch):
        # (1) / (x^2, y) has dimension 2 under one packing
        packing = _packing(DEGREVLEX, 2)
        whole = _buchberger([{(0, (0, 0)): 1}], 1, packing)
        walls = [{(0, (2, 0)): 1}, {(0, (0, 1)): 1}]
        assert _leading_gap(whole, _buchberger(walls, 1, packing)) == 2
        with pytest.raises(InternalCheckError, match="different orders"):
            _leading_gap(whole, _buchberger(walls, 1, _packing(LEX, 2)))
        # in periodic_homology ker d_eo and im d_oe share F_e's order, ker
        # d_oe and im d_eo F_o's; a kernel against the image of its own run
        # would mix the two
        pairs = []
        monkeypatch.setattr(mfres.mf, "_leading_gap",
                            lambda kernel, image: pairs.append((kernel, image)) or 0)
        left = koszul_rank4(("x", "y", "z"), ("x^2", "y^2", "z^2"))
        right = koszul_rank4(("x^2", "y", "z^2"), ("x", "y^2", "z"))
        homology_dimensions(hom_complex(left, right))
        (ker_eo, im_oe), (ker_oe, im_eo) = pairs
        assert (_leading_gap(ker_eo, im_oe), _leading_gap(ker_oe, im_eo)) == (4, 4)
        for kernel, image in ((ker_eo, im_eo), (ker_oe, im_oe)):
            with pytest.raises(InternalCheckError, match="different orders"):
                _leading_gap(kernel, image)


class TestWorkCounts:
    """_reduce calls made by fixed inputs: one per S-pair reduced, per element
    interreduced and per membership test; and _buchberger runs. They do not
    depend on the machine, so they pin the work the pair criteria, the
    shared kernel-and-image route and the minimal bases save."""

    @pytest.fixture
    def reduce_calls(self, monkeypatch):
        calls = []
        original = mfres.groebner._reduce

        def counting(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(mfres.groebner, "_reduce", counting)
        return calls

    def test_cubic_jacobian(self, reduce_calls):
        groebner_basis(jacobian_generators(poly("x^3 + y^3")))
        assert len(reduce_calls) == 2

    def test_rank_four_koszul_syzygies(self, reduce_calls):
        left = koszul_rank4(("x", "y", "z"), ("x^2", "y^2", "z^2"))
        right = koszul_rank4(("x^2", "y", "z^2"), ("x", "y^2", "z"))
        d = sparse_to_matrix(hom_complex(left, right).d_even_to_odd)
        reduce_calls.clear()
        syzygy_basis([FreeModuleElement(d.column(j)) for j in range(d.cols)])
        # interreducing the whole augmented basis, not only the syzygies, made 135
        assert len(reduce_calls) == 99

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Calls of _cleared_product and constructions of Polynomial,
        FreeModuleElement and Fraction, by name."""
        made = {"_cleared_product": 0, "Polynomial": 0, "FreeModuleElement": 0, "Fraction": 0}

        def counting(name, fn):
            return lambda *args, **kwargs: made.__setitem__(name, made[name] + 1) or fn(*args,
                                                                                        **kwargs)

        for module in (mfres.mf, mfres.polyring):
            monkeypatch.setattr(module, "_cleared_product",
                                counting("_cleared_product", mfres.polyring._cleared_product))
        monkeypatch.setattr(Polynomial, "__init__", counting("Polynomial", Polynomial.__init__))
        monkeypatch.setattr(Polynomial, "_trusted", classmethod(
            counting("Polynomial", Polynomial._trusted.__func__)))
        monkeypatch.setattr(FreeModuleElement, "__init__",
                            counting("FreeModuleElement", FreeModuleElement.__init__))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting("Fraction", Fraction.__new__)))
        return made

    def test_rank_four_koszul_hom_complex_is_sparse(self, constructions):
        # the differentials go from the certified integer forms to sparse
        # columns and on to Buchberger: no product, polynomial, module
        # element or fraction on the way
        left = koszul_rank4(("x", "y", "z"), ("x^2", "y^2", "z^2"))
        right = koszul_rank4(("x^2", "y", "z^2"), ("x", "y^2", "z"))
        for name in constructions:
            constructions[name] = 0
        c = hom_complex(left, right)
        assert homology_dimensions(c) == (4, 4)
        assert constructions == dict.fromkeys(constructions, 0)
        # each differential stores r' (nnz(A) + nnz(B)) + r (nnz(A') + nnz(B'))
        # nonzero terms: 4 * (12 + 12) + 4 * (12 + 12)
        nnz = [sum(len(p) for p in m.entries) for m in (left.A, left.B, right.A, right.B)]
        assert nnz == [12, 12, 12, 12]
        for d in (c.d_even_to_odd, c.d_odd_to_even):
            assert sum(map(len, d.columns)) == 4 * (nnz[0] + nnz[1]) + 4 * (nnz[2] + nnz[3]) == 192

    def test_rank_four_koszul_homology(self, reduce_calls, monkeypatch):
        # two augmented Buchberger runs and one containment check per image
        # basis element, with nothing interreduced, each free term ordered by
        # the differential leaving it; the syzygy-plus-presentation route made
        # 679 calls, interreducing both augmented bases 338, and position over
        # term on both free terms 198
        left = koszul_rank4(("x", "y", "z"), ("x^2", "y^2", "z^2"))
        right = koszul_rank4(("x^2", "y", "z^2"), ("x", "y^2", "z"))
        c = hom_complex(left, right)
        reduce_calls.clear()
        autoreduced, original = [], mfres.groebner._autoreduce
        monkeypatch.setattr(mfres.groebner, "_autoreduce",
                            lambda *args: autoreduced.append(None) or original(*args))
        assert homology_dimensions(c) == (4, 4)
        assert len(reduce_calls) == 183
        assert autoreduced == []

    @staticmethod
    def _mixed_pair():
        """The shape of the first pair of the koszul-mixed benchmark: direct
        sums of two rank-2 Koszul factorizations of x^3 + y^3, splits (1, 1),
        (2, 2) against (1, 2), (2, 1), each side changed to g A h^-1, h B g^-1
        with g and h adding c times row i + 1 to row i for each i."""
        def koszul(k, l):
            return ([[f"x^{k}", f"y^{l}"], [f"-y^{3 - l}", f"x^{3 - k}"]],
                    [[f"x^{3 - k}", f"-y^{l}"], [f"y^{3 - l}", f"x^{k}"]])

        def chain(cs):
            g = g_inv = matrix([[str(int(r == s)) for s in range(4)] for r in range(4)])
            for i, c in enumerate(cs):
                step, back = (matrix([[str(k) if (r, s) == (i, i + 1) else str(int(r == s))
                                       for s in range(4)] for r in range(4)]) for k in (c, -c))
                g, g_inv = step @ g, g_inv @ back
            return g, g_inv

        def side(splits, g, h):
            (a1, b1), (a2, b2) = (koszul(*k) for k in splits)
            a = matrix([r + ["0", "0"] for r in a1] + [["0", "0"] + r for r in a2])
            b = matrix([r + ["0", "0"] for r in b1] + [["0", "0"] + r for r in b2])
            return (MatrixFactorization(poly("x^3 + y^3"), a, b),
                    MatrixFactorization(poly("x^3 + y^3"), g[0] @ a @ h[1], h[0] @ b @ g[1]))

        (x0, x), (y0, y) = (side(splits, chain(cs), chain(ds)) for splits, cs, ds in (
            ([(1, 1), (2, 2)], (1, -2, 2), (-1, 1, 2)), ([(1, 2), (2, 1)], (2, 1, -1), (1, -2, -2))))
        return (x0, y0), (x, y)

    def test_mixed_pair_s_pairs(self, monkeypatch):
        # the S-pairs the two tagged runs reduce; position over term on both
        # free terms, the order before, reduced 81
        (x0, y0), (x, y) = self._mixed_pair()
        want = homology_dimensions(hom_complex(x0, y0))
        c = hom_complex(x, y)
        spairs, original = [], mfres.groebner._s_vector
        monkeypatch.setattr(mfres.groebner, "_s_vector",
                            lambda *args: spairs.append(None) or original(*args))
        assert homology_dimensions(c) == want
        assert len(spairs) == 58

    @pytest.fixture
    def buchberger_runs(self, monkeypatch):
        runs = []
        original = mfres.groebner._buchberger

        def counting(*args):
            runs.append(None)
            return original(*args)

        monkeypatch.setattr(mfres.groebner, "_buchberger", counting)
        return runs

    def test_tor_is_one_run_per_differential(self, buchberger_runs):
        # the syzygy, kernel and image route took three runs per differential
        c1 = make_mf("x^3 + y^3", [["x + y"]], [["x^2 - x*y + y^2"]])
        m1 = make_module("x^3 + y^3", [["x + y"]])
        assert tor_lengths(c1, m1) == (0, 2)
        assert len(buchberger_runs) == 2

    def test_theta_of_a_raw_presentation(self, buchberger_runs):
        # two resolution steps of one run each, then one window of two runs;
        # the old route took two runs per step and six for the window
        m1 = make_module("x^3 + y^3", [["x + y"]])
        assert hochster_theta(m1, m1) == -2
        assert len(buchberger_runs) == 4

    def test_runaway_coefficients_stop_at_the_budget(self, reduce_calls):
        # without the budget this tagged lex run's pseudo-division scales pass
        # 80,000 bits and it does not finish in minutes
        gens = [FreeModuleElement((poly(p, XYZ),)) for p in RUNAWAY]
        with pytest.raises(BudgetError, match="MAX_COEFFICIENT_BITS"):
            _AugmentedBasis([element_to_vec(g) for g in gens], 1, XYZ, LEX)
        assert len(reduce_calls) == 88
