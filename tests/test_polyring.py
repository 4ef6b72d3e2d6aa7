from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfres import (
    BudgetError,
    Polynomial,
    PolyMatrix,
    PolynomialSyntaxError,
    RingMismatchError,
    SparseColumns,
    UnknownVariableError,
    differentiate,
    hessian_determinant,
    jacobian_generators,
    parse_polynomial,
    to_string,
)
from conftest import XY, XYZ, matrix, poly


class TestParsing:
    def test_three_terms(self):
        p = poly("x^2 - 2*x*y + y^2")
        assert len(p) == 3
        assert p.coefficient((2, 0)) == 1
        assert p.coefficient((1, 1)) == -2
        assert p.coefficient((0, 2)) == 1

    def test_rational_literal(self):
        p = poly("1/2*x + 3")
        assert p.coefficient((1, 0)) == Fraction(1, 2)
        assert p.constant_term() == 3

    def test_parenthesized_products(self):
        assert poly("(x + y)*(x - y)") == poly("x^2 - y^2")

    def test_power_binds_tighter_than_product(self):
        assert poly("2*x^3") == poly("x^3") + poly("x^3")

    def test_unary_minus(self):
        assert poly("-x + -(y)") == -poly("x + y")

    def test_trailing_operator_offset(self):
        with pytest.raises(PolynomialSyntaxError) as info:
            poly("x + ")
        assert info.value.offset == 4

    def test_unknown_variable_named(self):
        with pytest.raises(UnknownVariableError) as info:
            poly("x + z")
        assert info.value.name == "z"

    def test_division_only_in_literals(self):
        with pytest.raises(PolynomialSyntaxError):
            poly("x/y")

    def test_exponent_must_be_integer_literal(self):
        with pytest.raises(PolynomialSyntaxError):
            poly("x^y")

    def test_empty_input(self):
        with pytest.raises(PolynomialSyntaxError):
            poly("")


class TestParserBudgets:
    """Oversized text is refused before the big object is built."""

    @pytest.fixture
    def no_powers(self, monkeypatch):
        original = Polynomial.__pow__

        def refuse(self, n):
            assert n < 100, "a large power was expanded"
            return original(self, n)
        monkeypatch.setattr(Polynomial, "__pow__", refuse)

    def test_power_of_a_sum_predicted_too_large(self, no_powers):
        # (x + y + 1)^300 has 45,451 terms and does not finish parsing in 10 s
        with pytest.raises(BudgetError, match="MAX_POWER_TERMS") as info:
            poly("(x + y + 1)^300")
        assert info.value.offset == 12

    def test_powers_are_budgeted_over_the_whole_text(self, monkeypatch):
        # each (x + y + 1)^20 may have 231 terms; the ninth takes the text
        # past 2,000, so it is refused before it is expanded
        expanded = []
        original = Polynomial.__pow__

        def counting(self, n):
            expanded.append(n)
            return original(self, n)
        monkeypatch.setattr(Polynomial, "__pow__", counting)
        text = " + ".join(["(x + y + 1)^20"] * 10)
        with pytest.raises(BudgetError, match="2079 with the expansions before it") as info:
            poly(text)
        assert len(expanded) == 8
        assert info.value.offset == 8 * len("(x + y + 1)^20 + ") + len("(x + y + 1)^")

    @pytest.mark.parametrize("text, offset, largest", [
        # the 21st factor would take the text to 2,020 predicted terms; the
        # whole product has 7,381 terms
        ("*".join(["(x+y+1)"] * 120), 20 * len("(x+y+1)*") - 1, 231),
        # two powers of 231 terms each, then products predicted at 861 and
        # 1,891 terms: the second is refused (the whole product has 3,321)
        ("*".join(["(x+y+1)^20"] * 4), 2 * len("(x+y+1)^20*") - 1, 861)])
    def test_products_are_budgeted_over_the_whole_text(self, monkeypatch, text,
                                                       offset, largest):
        sizes = []
        original = Polynomial.__mul__

        def recording(self, other):
            out = original(self, other)
            sizes.append(len(out))
            return out
        monkeypatch.setattr(Polynomial, "__mul__", recording)
        with pytest.raises(BudgetError, match="MAX_POWER_TERMS") as info:
            poly(text)
        assert info.value.offset == offset
        assert max(sizes) == largest

    @pytest.mark.parametrize("text", ["x^1001", "x^3 + y^2 + x^400000000*y^3"])
    def test_exponent_cap(self, text, no_powers):
        with pytest.raises(BudgetError, match="MAX_EXPONENT"):
            poly(text)

    def test_exponent_too_long_for_int(self, no_powers):
        with pytest.raises(BudgetError, match="MAX_LITERAL_DIGITS"):
            poly("x^" + "9" * 5000)

    def test_coefficient_too_long_for_int(self):
        with pytest.raises(BudgetError, match="MAX_LITERAL_DIGITS") as info:
            poly("x + 1/" + "7" * 5000)
        assert info.value.offset == 6

    def test_nesting_depth(self):
        def parse_below(frames, depth):
            # leaves headroom for callers that are already deep in the stack
            if frames:
                return parse_below(frames - 1, depth)
            return poly("(" * depth + "x" + ")" * depth)
        assert parse_below(150, 100) == poly("x")
        with pytest.raises(BudgetError, match="MAX_NESTING_DEPTH = 100") as info:
            poly("x + " + "(" * 101 + "y" + ")" * 101)
        assert info.value.offset == len("x + ") + 100

    def test_sibling_parentheses_do_not_nest(self):
        assert poly(" + ".join(["(" * 60 + "x" + ")" * 60] * 3)) == poly("3*x")

    def test_within_budget(self):
        assert poly("x^1000").total_degree() == 1000
        assert len(poly("(x + y)^20")) == 21
        assert poly("(x + 1)^0") == poly("1")


class TestStringRoundTrip:
    def test_canonical_examples(self):
        assert to_string(poly("y^2 + x^2 - 2*x*y")) == "x^2 - 2*x*y + y^2"
        assert to_string(Polynomial.zero(XY)) == "0"
        assert to_string(poly("-1/3*x")) == "-1/3*x"

    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.fractions(max_denominator=7)),
        max_size=8))
    def test_round_trip(self, triples):
        terms = {}
        for a, b, c in triples:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
        p = Polynomial(XY, terms)
        assert parse_polynomial(to_string(p), XY) == p


class TestArithmetic:
    def test_square_of_sum(self):
        assert poly("x + y") ** 2 == poly("x^2 + 2*x*y + y^2")

    def test_pow_matches_repeated_product(self):
        p = poly("x + 2*y + 1")
        q = Polynomial.one(XY)
        for _ in range(5):
            q = q * p
        assert p ** 5 == q

    @given(st.integers(0, 4), st.integers(0, 4),
           st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
           st.integers(0, 15))
    def test_single_term_power_matches_repeated_product(self, a, b, c, n):
        p = Polynomial.monomial(XY, (a, b), c)
        q = Polynomial.one(XY)
        for _ in range(n):
            q = q * p
        assert (p ** n)._terms == q._terms

    def test_monomial_powers_make_no_products(self, monkeypatch):
        calls = []
        original = Polynomial.__mul__

        def counting(self, other):
            calls.append(None)
            return original(self, other)
        monkeypatch.setattr(Polynomial, "__mul__", counting)
        assert poly("x^7*y^3") == Polynomial.monomial(XY, (7, 3))
        assert len(calls) == 1

    def test_scalar_coercion(self):
        assert poly("x") * Fraction(1, 3) * 3 == poly("x")

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatchError):
            poly("x") + parse_polynomial("x", XYZ)

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_distributivity_on_samples(self, a, b):
        p, q, r = poly("x + 1"), poly(f"{a}*y" if a else "0"), poly(f"{b}*x*y" if b else "0")
        assert p * (q + r) == p * q + p * r


class TestCalculus:
    def test_partial_derivative(self):
        assert differentiate(poly("x^3*y"), 0) == poly("3*x^2*y")
        assert differentiate(poly("x^3*y"), 1) == poly("x^3")

    def test_jacobian_generators(self):
        gens = jacobian_generators(poly("x^3 + y^5"))
        assert gens == [poly("3*x^2"), poly("5*y^4")]

    def test_hessians(self):
        assert hessian_determinant(poly("x*y")) == poly("-1")
        assert hessian_determinant(poly("x^3 + y^3")) == poly("36*x*y")
        assert hessian_determinant(poly("x^2 + y^2")) == poly("4")


class TestPolyMatrix:
    def test_determinant_2x2(self):
        m = matrix([["x", "y"], ["y", "x"]])
        assert m.determinant() == poly("x^2 - y^2")

    def test_determinant_3x3(self):
        m = matrix([["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"]], XYZ)
        assert m.determinant() == parse_polynomial("x*y*z", XYZ)

    def test_adjugate_identity(self):
        m = matrix([["x + 1", "y"], ["x^2", "y^2 - 3"]])
        det = m.determinant()
        prod = m @ m.adjugate()
        for i in range(2):
            for j in range(2):
                assert prod.entry(i, j) == (det if i == j else Polynomial.zero(XY))

    def test_matmul_shapes(self):
        a = matrix([["x", "y"]])
        b = matrix([["x"], ["y"]])
        assert (a @ b).entry(0, 0) == poly("x^2 + y^2")
        with pytest.raises(ValueError):
            b @ matrix([["x"], ["y"]])

    def test_matmul_with_zero_entries_matches_entrywise_sums(self):
        a = matrix([["x", "0", "y - 1"], ["0", "0", "0"]])
        b = matrix([["0", "x*y"], ["y^2", "0"], ["x", "0"]])
        prod = a @ b
        assert prod.rows == 2 and prod.cols == 2
        for i in range(2):
            for j in range(2):
                want = sum((a.entry(i, k) * b.entry(k, j) for k in range(3)),
                           Polynomial.zero(XY))
                assert prod.entry(i, j) == want
        assert prod.entry(0, 0) == poly("x*y - x")
        assert prod.entry(1, 1).is_zero()

    def test_cancellation_leaves_a_canonical_zero(self):
        a = matrix([["x", "y"]])
        b = matrix([["y"], ["-x"]])
        zero = (a @ b).entry(0, 0)
        assert zero == Polynomial.zero(XY) and hash(zero) == hash(Polynomial.zero(XY))
        assert (poly("x") - poly("x")).terms == {}


def _naive_product(a: PolyMatrix, b: PolyMatrix) -> list[list[dict]]:
    """Entries of a @ b as {exponents: Fraction}, by the triple loop."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc: dict = {}
            for k in range(a.cols):
                for e1, c1 in a.entry(i, k).items():
                    for e2, c2 in b.entry(k, j).items():
                        e = (e1[0] + e2[0], e1[1] + e2[1])
                        acc[e] = acc.get(e, Fraction(0)) + c1 * c2
            row.append({e: c for e, c in acc.items() if c != 0})
        out.append(row)
    return out


_entries = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=3)


@st.composite
def _factors(draw):
    rows, inner, cols = (draw(st.integers(0, 3)) for _ in range(3))

    def mat(r, c):
        return PolyMatrix(r, c, tuple(Polynomial(XY, draw(_entries)) for _ in range(r * c)))
    return mat(rows, inner), mat(inner, cols)


class TestMatmulAgainstNaive:
    @given(_factors())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_triple_loop(self, factors):
        a, b = factors
        if a.rows and b.cols and not a.cols:
            # an empty factor carries no ring, so there is none for the zeros
            with pytest.raises(ValueError):
                a @ b
            return
        prod = a @ b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        want = _naive_product(a, b)
        for i in range(a.rows):
            for j in range(b.cols):
                got = prod.entry(i, j)
                assert got.ring == XY
                assert got.terms == want[i][j]
                assert all(type(c) is Fraction for _, c in got.items())

    @given(_factors())
    @settings(max_examples=150, deadline=None)
    def test_sparse_transpose_matches_the_matrix_transpose(self, factors):
        # herbrand_difference transposes the certified columns instead of
        # clearing the transposed PolyMatrix again: both must agree, empty
        # shapes and denominators included
        for m in factors:
            assert SparseColumns.of(m).transpose() == SparseColumns.of(m.transpose())


class TestConstructorValidation:
    def test_public_constructor_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            Polynomial(XY, {(1,): 1})
        with pytest.raises(ValueError):
            Polynomial(XY, {(1, -1): 1})

    def test_public_constructor_normalises_coefficients(self):
        p = Polynomial(XY, {(1, 0): 2, (0, 1): 0})
        assert p.terms == {(1, 0): Fraction(2)}
        assert isinstance(p.coefficient((1, 0)), Fraction)

    def test_arithmetic_results_equal_validated_ones(self):
        p = poly("x + 2*y") * poly("x - y") + poly("1/2")
        rebuilt = Polynomial(XY, p.terms)
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert all(isinstance(c, Fraction) for _, c in p.items())
