from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfres import (
    DifferentialForm,
    ParityError,
    Polynomial,
    chern_character_form,
    d_polynomial,
    euler_lemma_check,
    exterior_derivative,
    matrix_form_product_trace,
    wedge,
)
from conftest import XY, XYZ, poly


def simple_polys(variables=XY):
    return st.builds(
        lambda pairs: Polynomial(variables,
                                 {e: c for e, c in pairs if c != 0}),
        st.lists(st.tuples(
            st.tuples(*[st.integers(0, 3)] * len(variables)),
            st.fractions(max_denominator=4)), max_size=5))


class TestWedge:
    def test_anticommutes_in_degree_one(self):
        dx = d_polynomial(poly("x"))
        dy = d_polynomial(poly("y"))
        assert wedge(dx, dy) == -wedge(dy, dx)
        assert wedge(dx, dx).is_zero()

    def test_top_degree_coefficient(self):
        a = d_polynomial(poly("x^2"))  # 2x dx
        b = d_polynomial(poly("y^2"))  # 2y dy
        top = wedge(a, b)
        assert top.coefficient((0, 1)) == poly("4*x*y")

    def test_degree_overflow_collapses(self):
        dx = d_polynomial(poly("x"))
        dy = d_polynomial(poly("y"))
        assert wedge(wedge(dx, dy), dx).is_zero()


class TestExteriorDerivative:
    @given(simple_polys())
    @settings(max_examples=30, deadline=None)
    def test_d_squared_zero_on_functions(self, p):
        zero_form = DifferentialForm.from_polynomial(p)
        once = exterior_derivative(zero_form)
        assert exterior_derivative(once).is_zero()

    @given(simple_polys(), simple_polys())
    @settings(max_examples=30, deadline=None)
    def test_leibniz_on_functions(self, p, q):
        lhs = d_polynomial(p * q)
        rhs = (wedge(DifferentialForm.from_polynomial(p), d_polynomial(q)) +
               wedge(DifferentialForm.from_polynomial(q), d_polynomial(p)))
        assert lhs == rhs

    def test_d_squared_zero_on_one_forms(self):
        form = wedge(DifferentialForm.from_polynomial(poly("x*y^2")),
                     d_polynomial(poly("x + y")))
        assert form.degree == 1
        assert exterior_derivative(exterior_derivative(form)).is_zero()


class TestTraceForms:
    def test_empty_product_is_identity_trace(self):
        tr = matrix_form_product_trace([], identity_size=3, ring=XY)
        assert tr.degree == 0
        assert tr.coefficient(()) == Polynomial.constant(XY, 3)

    def test_node_character(self, node_mf):
        ch = chern_character_form(node_mf)
        assert ch.degree == 2
        assert ch.coefficient((0, 1)) == Polynomial.one(XY)

    def test_vanishing_characters(self, plane_mf, cusp_mf):
        assert chern_character_form(plane_mf).is_zero()
        assert chern_character_form(cusp_mf).is_zero()

    def test_odd_variable_count_rejected(self, clifford_mf):
        with pytest.raises(ParityError):
            chern_character_form(clifford_mf)


class TestLemmaIdentity:
    def test_holds_on_small_examples(self, node_mf, cusp_mf, cubic_mf, plane_mf,
                                      clifford_mf):
        for mf in (node_mf, cusp_mf, cubic_mf, plane_mf, clifford_mf):
            assert euler_lemma_check(mf, 1)

    def test_j_bounds(self, node_mf):
        with pytest.raises(ValueError):
            euler_lemma_check(node_mf, 0)
        with pytest.raises(ValueError):
            euler_lemma_check(node_mf, 2)
