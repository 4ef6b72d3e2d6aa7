from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from operator import add, sub
from pathlib import Path

import pytest

import mfres.mf
from mfres import (
    ContainmentError,
    FactorizationError,
    InfiniteQuotientError,
    InternalCheckError,
    MatrixFactorization,
    Polynomial,
    PolyMatrix,
    SparseColumns,
    cokernel_presentation,
    dual,
    gram_matrix,
    herbrand_difference,
    hom_complex,
    homology_dimensions,
    load_corpus,
    shift,
    TwoPeriodicComplex,
    tor_lengths,
    validate_mf,
)
from mfres.cli import builtin_corpus_dir
from conftest import (XY, entrywise, is_zero_matrix, koszul_rank4, make_mf, make_module, matrix,
                      poly, sparse_to_matrix)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestValidation:
    def test_accepts_real_factorization(self, node_mf):
        assert node_mf.rank == 1

    def test_rejects_wrong_product_with_entry_coordinates(self):
        # checked on construction, so the invalid pair is never built
        with pytest.raises(FactorizationError) as info:
            MatrixFactorization(potential=poly("x*y"), A=matrix([["x"]]), B=matrix([["x"]]))
        message = str(info.value)
        assert "entry (1,1)" in message
        assert "expected x*y" in message
        assert "found x^2" in message

    def test_accepts_rational_coefficients(self):
        # the integer products carry the cleared denominators 2 * 1 on both sides
        mf = MatrixFactorization(poly("x*y"), matrix([["1/2*x"]]), matrix([["2*y"]]))
        assert validate_mf(mf) is mf

    @pytest.mark.parametrize("f, a, b, message", [
        ("x*y", [["1/3*x"]], [["2/3*y"]],
         "product A*B mismatch at entry (1,1): expected x*y, found 2/9*x*y"),
        ("1/2*x*y", [["x"]], [["y"]],
         "product A*B mismatch at entry (1,1): expected 1/2*x*y, found x*y"),
        ("x*y", [["x", "1"], ["0", "y"]], [["y", "0"], ["0", "x"]],
         "product A*B mismatch at entry (1,2): expected 0, found x"),
        ("x^2*y", [["x", "0"], ["0", "x*y"]], [["x*y", "0"], ["1", "x"]],
         "product A*B mismatch at entry (2,1): expected 0, found x*y"),
        # (1,2) and (2,1) are both wrong: the product runs column by column,
        # but the message names the first wrong entry in row major order
        ("x*y", [["x", "1"], ["1", "y"]], [["y", "0"], ["0", "x"]],
         "product A*B mismatch at entry (1,2): expected 0, found x"),
    ])
    def test_rejects_mismatch_with_exact_message(self, f, a, b, message):
        with pytest.raises(FactorizationError) as info:
            MatrixFactorization(poly(f), matrix(a), matrix(b))
        assert str(info.value) == message

    def test_rejects_zero_potential(self):
        zero = poly("0")
        with pytest.raises(FactorizationError):
            validate_mf(MatrixFactorization(zero, matrix([["x"]]), matrix([["0"]])))

    def test_rejects_nonsquare(self):
        with pytest.raises(FactorizationError):
            validate_mf(MatrixFactorization(poly("x*y"),
                                            matrix([["x", "y"]]),
                                            matrix([["y"], ["x"]])))


class TestValidatedOnce:
    """validate_mf runs when a factorization is built, and at no later use."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        original = mfres.mf.validate_mf
        monkeypatch.setattr(mfres.mf, "validate_mf",
                            lambda mf: calls.append(mf) or original(mf))
        return calls

    def test_load_corpus_validates_each_factorization_once(self, validations):
        corpus = load_corpus(builtin_corpus_dir() / "cubic.json")
        assert len(corpus.factorizations) == 3
        assert [id(mf) for mf in validations] == [id(mf) for mf in corpus.factorizations]

    def test_pairings_do_not_validate_again(self, validations):
        items = load_corpus(builtin_corpus_dir() / "cubic.json").factorizations
        validations.clear()
        gram_matrix(items, "euler")
        herbrand_difference(items[0], items[1])
        tor_lengths(items[0], cokernel_presentation(items[1]))
        assert validations == []

    def test_tor_and_ext_clear_no_matrix_again(self, monkeypatch):
        # both routes read the columns validate_mf certified: SparseColumns.of
        # is never handed a PolyMatrix after construction
        x, y = load_corpus(builtin_corpus_dir() / "cubic.json").factorizations[1:]
        cleared, original = [], SparseColumns.of
        monkeypatch.setattr(SparseColumns, "of", staticmethod(
            lambda m: (isinstance(m, PolyMatrix) and cleared.append(m)) or original(m)))
        assert (x.rank, y.rank) == (1, 2)
        assert tor_lengths(x, cokernel_presentation(y)) == (1, 1)
        assert herbrand_difference(x, y) == 0
        assert cleared == []

    @pytest.mark.parametrize("route", [
        lambda x, y: tor_lengths(x, cokernel_presentation(y)),
        lambda x, y: herbrand_difference(x, y),
    ], ids=["tor", "ext"])
    def test_tor_and_ext_need_certified_forms(self, node_mf, monkeypatch, route):
        # as hom_complex does (test_composite_check_is_live), neither route
        # falls back to clearing the PolyMatrix of an unchecked factorization
        monkeypatch.setattr(mfres.mf, "validate_mf", lambda mf: mf)
        bare = MatrixFactorization(node_mf.potential, node_mf.A, node_mf.B)
        with pytest.raises(InternalCheckError):
            route(bare, node_mf)


class TestInvolutions:
    def test_shift_swaps_and_relabels(self, node_mf):
        s = shift(node_mf)
        assert s.A == node_mf.B and s.B == node_mf.A
        assert s.label == "N1[1]"
        assert shift(s) == node_mf
        assert shift(s).label == "N1"

    def test_dual_transposes(self, cubic_mf):
        d = dual(cubic_mf)
        assert d.A == cubic_mf.A.transpose()
        assert d.label == "C1*"
        assert dual(d) == cubic_mf


class TestHomComplex:
    def test_composites_vanish(self, node_mf, cubic_mf):
        for mf in (node_mf, cubic_mf):
            c = hom_complex(mf, mf)
            assert c.is_complex()
            assert c.rank_even == 2 * mf.rank * mf.rank

    def test_potential_mismatch_rejected(self, node_mf, cubic_mf):
        with pytest.raises(FactorizationError):
            hom_complex(node_mf, cubic_mf)

    def test_endomorphism_dimensions(self, node_mf, cubic_mf, plane_mf):
        assert homology_dimensions(hom_complex(node_mf, node_mf)) == (1, 0)
        assert homology_dimensions(hom_complex(cubic_mf, cubic_mf)) == (2, 0)
        h_even, h_odd = homology_dimensions(hom_complex(plane_mf, plane_mf))
        assert h_even == h_odd  # chi(S, S) = 0 since S[1] = S

    def test_shift_swaps_parity(self, node_mf, cubic_mf):
        for mf in (node_mf, cubic_mf):
            base = homology_dimensions(hom_complex(mf, mf))
            shifted = homology_dimensions(hom_complex(mf, shift(mf)))
            assert shifted == (base[1], base[0])

    def test_relabeling_variables_preserves_dimensions(self):
        # same geometry written in swapped variables
        original = make_mf("x^3 + y^3", [["x + y"]], [["x^2 - x*y + y^2"]])
        swapped = make_mf("y^3 + x^3", [["y + x"]], [["y^2 - y*x + x^2"]])
        assert (homology_dimensions(hom_complex(original, original)) ==
                homology_dimensions(hom_complex(swapped, swapped)))


def _product_route_holds(x, y) -> bool:
    # the differentials turned back into PolyMatrix and multiplied out: the
    # product route shares nothing with hom_complex's block check
    c = hom_complex(x, y)
    return TwoPeriodicComplex(sparse_to_matrix(c.d_even_to_odd),
                              sparse_to_matrix(c.d_odd_to_even)).is_complex()


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProductOracle:
    """TwoPeriodicComplex.is_complex multiplies both composites out; it must
    hold on every Hom complex that hom_complex certified by its block check."""

    def test_every_corpus_pair(self):
        pairs = 0
        for path in sorted(builtin_corpus_dir().glob("*.json")):
            items = []
            for mf in load_corpus(path).factorizations:
                items += [mf, shift(mf), dual(mf), shift(dual(mf))]
            for x in items:
                for y in items:
                    assert _product_route_holds(x, y), (x.label, y.label)
                    pairs += 1
        assert pairs == 256

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_koszul_workload_inputs(self, seed):
        # the 16 pairs of one round of the koszul benchmark workload
        inputs = _perfbench_inputs()
        rng = random.Random(seed)
        for nvars in (2, 3, 3, 3) * 4:
            spec = inputs.koszul_pair(rng, nvars)
            ring = ("x", "y", "z")[:nvars]
            f = Polynomial(ring, inputs.potential(spec["degrees"]))
            x, y = (MatrixFactorization(f, *(PolyMatrix.from_rows(
                [[Polynomial(ring, p) for p in row] for row in m])
                for m in inputs.factorization(spec, side))) for side in ("left", "right"))
            assert _product_route_holds(x, y), spec


class TestHomologyChecks:
    """homology_dimensions on complexes built by hand, not by hom_complex."""

    def test_composite_not_zero_is_a_containment_error(self):
        # multiplication by x is injective, so im(y) is outside ker(x) = 0
        c = TwoPeriodicComplex(matrix([["x"]]), matrix([["y"]]))
        with pytest.raises(ContainmentError):
            homology_dimensions(c)

    # is_complex tests both composites, with rational entries and sums that
    # cancel; each pair has m n = 0 and n m != 0, in either order
    @pytest.mark.parametrize("m, n", [
        ([["1/2*x", "0"], ["0", "0"]], [["0", "0"], ["y", "0"]]),
        ([["1", "1"], ["0", "0"]], [["1/3", "0"], ["-1/3", "0"]]),
    ])
    def test_one_nonzero_composite_is_not_a_complex(self, m, n):
        m, n = matrix(m), matrix(n)
        assert is_zero_matrix(m @ n) and not is_zero_matrix(n @ m)
        assert not TwoPeriodicComplex(m, n).is_complex()
        assert not TwoPeriodicComplex(n, m).is_complex()

    def test_composites_that_cancel_are_a_complex(self):
        # m = [[u v, -u^2], [v^2, -u v]] with u = x/2, v = y/3 squares to zero
        m = matrix([["1/6*x*y", "-1/4*x^2"], ["1/9*y^2", "-1/6*x*y"]])
        assert is_zero_matrix(m @ m)
        assert TwoPeriodicComplex(m, m).is_complex()

    def test_rank_zero_complex_has_no_homology(self):
        empty = PolyMatrix(0, 0, ())
        assert homology_dimensions(TwoPeriodicComplex(empty, empty)) == (0, 0)

    def test_ranks_come_from_the_even_to_odd_shape(self):
        c = TwoPeriodicComplex(matrix([["x", "y"]]), matrix([["y"], ["-x"]]))
        assert (c.rank_even, c.rank_odd) == (2, 1)
        with pytest.raises(ValueError, match="odd-to-even"):
            TwoPeriodicComplex(matrix([["x", "y"]]), matrix([["y", "-x"]]))

    def test_zero_differentials_are_infinite(self):
        c = TwoPeriodicComplex(matrix([["0"]]), matrix([["0"]]))
        with pytest.raises(InfiniteQuotientError):
            homology_dimensions(c)


def _random_matrix(rng, ring, rows, cols):
    monomials = [tuple(rng.randint(0, 2) for _ in ring) for _ in range(3)]
    return PolyMatrix(rows, cols, tuple(
        Polynomial(ring, {m: rng.randint(-3, 3) for m in monomials})
        for _ in range(rows * cols)))


def _vec(*blocks):
    entries = tuple(p for m in blocks for p in m.entries)
    return PolyMatrix(len(entries), 1, entries)


def _apply(d, v: PolyMatrix) -> PolyMatrix:
    """The sparse integer columns of d applied to the column v, term by term."""
    out = [Polynomial.zero(d.ring)] * d.rows
    for j, column in enumerate(d.columns):
        for (i, e), c in column.items():
            out[i] = out[i] + Polynomial.monomial(d.ring, e, Fraction(c, d.den)) * v.entries[j]
    return PolyMatrix(d.rows, 1, tuple(out))


class TestHomDifferentials:
    """The Kronecker-block differentials against the hom_complex docstring,
    d(alpha_0, alpha_1) = (B' alpha_0 - alpha_1 B, A' alpha_1 - alpha_0 A) and
    d(beta_0, beta_1) = (A' beta_0 + beta_1 B, B' beta_1 + beta_0 A): the
    sparse columns applied to vec(x0, x1), against PolyMatrix products on
    random rp x r matrices."""

    def check(self, left, right, seed):
        rng = random.Random(seed)
        c = hom_complex(left, right)
        a, b, ap, bp = left.A, left.B, right.A, right.B
        for _ in range(3):
            x0 = _random_matrix(rng, left.ring, right.rank, left.rank)
            x1 = _random_matrix(rng, left.ring, right.rank, left.rank)
            assert _apply(c.d_even_to_odd, _vec(x0, x1)) == _vec(
                entrywise(sub, bp @ x0, x1 @ b), entrywise(sub, ap @ x1, x0 @ a))
            assert _apply(c.d_odd_to_even, _vec(x0, x1)) == _vec(
                entrywise(add, ap @ x0, x1 @ b), entrywise(add, bp @ x1, x0 @ a))

    def test_cubic_ranks_one_and_two_both_orders(self, cubic_mf):
        d1 = make_mf("x^3 + y^3", [["x", "-y"], ["y^2", "x^2"]],
                     [["x^2", "y"], ["-y^2", "x"]], label="D1")
        self.check(cubic_mf, d1, seed=1)
        self.check(d1, cubic_mf, seed=2)
        self.check(d1, shift(d1), seed=3)

    def test_rank_four_koszul_pair(self):
        left = koszul_rank4(("x", "y", "z"), ("x^2", "y^2", "z^2"))
        right = koszul_rank4(("x^2", "y", "z^2"), ("x", "y^2", "z"))
        assert (left.rank, right.rank) == (4, 4)
        self.check(left, right, seed=4)

    def test_rational_entries(self):
        # denominators 2, 3 and 6 on the two sides: one common one per differential
        left = make_mf("x*y", [["1/2*x"]], [["2*y"]])
        right = make_mf("x*y", [["1/3*x", "y"], ["0", "3*y"]], [["3*y", "-y"], ["0", "1/3*x"]])
        self.check(left, right, seed=5)
        self.check(right, left, seed=6)

    def corrupt_block(self, monkeypatch, damage, index=2):
        # damage the terms of one Kronecker block, by default the third built
        kron = mfres.mf._kron
        blocks = []

        def corrupt(*args):
            terms = list(kron(*args))
            blocks.append(None)
            return iter(damage(terms) if len(blocks) == index + 1 else terms)

        monkeypatch.setattr(mfres.mf, "_kron", corrupt)
        return blocks

    def test_corrupted_entry_is_caught(self, cubic_mf, monkeypatch):
        # one coefficient of one Kronecker entry off by 1: A and B are valid,
        # so only the d o d = 0 check sees it, before the second differential
        blocks = self.corrupt_block(
            monkeypatch, lambda terms: [terms[0][:3] + (terms[0][3] + 1,)] + terms[1:])
        with pytest.raises(InternalCheckError):
            hom_complex(cubic_mf, cubic_mf)
        assert len(blocks) == 4

    @pytest.mark.parametrize("damage", [
        lambda terms: terms[1:],
        lambda terms: terms + [terms[0][:2] + ((5, 5), 1)],
        lambda terms: [(terms[0][0] + 1,) + terms[0][1:]] + terms[1:],
    ], ids=["dropped", "added", "moved"])
    def test_missing_extra_or_moved_term_is_caught(self, cubic_mf, monkeypatch, damage):
        self.corrupt_block(monkeypatch, damage)
        with pytest.raises(InternalCheckError):
            hom_complex(cubic_mf, cubic_mf)

    @pytest.mark.parametrize("index, flip", [(0, 1), (2, 2)], ids=["M(x)I", "I(x)M^T"])
    def test_term_moved_off_its_identity_entry_is_caught(self, monkeypatch, index, flip):
        # rank 2 on both sides: flipping a bit of the row index moves a term
        # from entry (t, t) of its identity factor to (1 - t, t), where the
        # factor entry it stands for is the same
        d1 = make_mf("x^3 + y^3", [["x", "-y"], ["y^2", "x^2"]], [["x^2", "y"], ["-y^2", "x"]])
        self.corrupt_block(monkeypatch, lambda terms: [
            (terms[0][0] ^ flip,) + terms[0][1:]] + terms[1:], index)
        with pytest.raises(InternalCheckError):
            hom_complex(d1, d1)

    def test_composite_check_is_live(self, node_mf, monkeypatch):
        # A B = x^2 != x*y: only the d o d = 0 check can catch it now
        monkeypatch.setattr(mfres.mf, "validate_mf", lambda mf: mf)
        bad = MatrixFactorization(poly("x*y"), matrix([["x"]]), matrix([["x"]]))
        with pytest.raises(InternalCheckError):
            hom_complex(bad, node_mf)


class TestTor:
    def test_node_lengths(self, node_mf):
        rx = make_module("x*y", [["x"]], label="Rx")
        ry = make_module("x*y", [["y"]], label="Ry")
        assert tor_lengths(node_mf, rx) == (0, 1)
        assert tor_lengths(node_mf, ry) == (1, 0)

    def test_self_tor_symmetric_when_matrices_agree(self, cusp_mf):
        m = cokernel_presentation(cusp_mf)
        even, odd = tor_lengths(cusp_mf, m)
        assert even == odd

    def test_requires_matching_potential(self, node_mf):
        other = make_module("x^3 + y^3", [["x + y"]])
        with pytest.raises(ValueError):
            tor_lengths(node_mf, other)

    def test_cokernel_presentation_columns(self, cubic_mf):
        pres = cokernel_presentation(cubic_mf)
        assert pres.ambient_rank == 1
        assert pres.potential == cubic_mf.potential
        assert pres.relations[0].components[0] == poly("x + y")
