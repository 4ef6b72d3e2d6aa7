from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mfres.pairings

from mfres import (
    DEGREVLEX,
    LEX,
    BudgetError,
    FactorizationError,
    FreeModuleElement,
    MatrixFactorization,
    MfresError,
    ModulePresentation,
    GramMatrix,
    InternalCheckError,
    ParityError,
    PolyMatrix,
    Polynomial,
    SingularityError,
    SparseColumns,
    chern_character_form,
    chern_milnor_class,
    cokernel_presentation,
    combination_class,
    combination_pairing,
    dual,
    euler_pairing,
    gram_matrix,
    groebner_basis,
    herbrand_difference,
    hochster_theta,
    hom_complex,
    homology_dimensions,
    hrr_check,
    is_positive_semidefinite,
    jacobian_generators,
    load_corpus,
    milnor_algebra,
    parse_polynomial,
    periodic_homology,
    residue_functional,
    residue_pairing,
    shift,
    subquotient_dimension,
    syzygy_basis,
    tor_lengths,
)
from mfres import ratmat
from mfres.cli import builtin_corpus_dir
from mfres.pairings import PsdReport
from conftest import XY, adjugate, make_mf, make_module, poly, scalar_columns


def brieskorn_mu_by_staircase(a: int, b: int) -> int:
    """Independent count for x^a + y^b: monomials under the pure power stairs.

    The Jacobian ideal is (x^(a-1), y^(b-1)); no Groebner step is needed to
    list the standard monomials, so this counts lattice points directly.
    """
    count = 0
    for i in range(a - 1):
        for j in range(b - 1):
            count += 1
    return count


class TestMilnorAlgebra:
    def test_anchor_values(self):
        for text, mu in (("x*y", 1), ("x^3 + y^2", 2),
                         ("x^3 + y^3", 4), ("x^3 + y^5", 8)):
            assert milnor_algebra(poly(text)).mu == mu

    def test_brieskorn_staircase_oracle(self):
        for a in range(2, 6):
            for b in range(2, 6):
                f = poly(f"x^{a} + y^{b}")
                assert milnor_algebra(f).mu == brieskorn_mu_by_staircase(a, b)

    def test_rejects_nonvanishing(self):
        with pytest.raises(SingularityError):
            milnor_algebra(poly("x*y + 1"))

    def test_rejects_smooth(self):
        with pytest.raises(SingularityError):
            milnor_algebra(poly("x + y^2"))

    def test_rejects_non_isolated(self):
        with pytest.raises(SingularityError):
            milnor_algebra(poly("x^2*y"))

    def test_rejects_critical_points_elsewhere(self):
        # f' = 1 + 3x^2 never vanishes at 0; support is off the origin
        with pytest.raises(SingularityError):
            milnor_algebra(parse_polynomial("x + x^3", ("x",)))

    def test_rejects_zero(self):
        with pytest.raises(SingularityError):
            milnor_algebra(Polynomial.zero(XY))


class TestResidue:
    def test_cubic_basis_values(self):
        alg = milnor_algebra(poly("x^3 + y^3"))
        rf = residue_functional(alg)
        assert rf.evaluate(poly("1")) == 0
        assert rf.evaluate(poly("x")) == 0
        assert rf.evaluate(poly("x*y")) == Fraction(1, 9)
        assert rf.evaluate(alg.hessian) == 4

    def test_e8_value(self):
        rf = residue_functional(milnor_algebra(poly("x^3 + y^5")))
        assert rf.evaluate(poly("x*y^3")) == Fraction(1, 15)

    @given(st.integers(0, 2), st.integers(0, 2), st.fractions(max_denominator=5))
    @settings(max_examples=25, deadline=None)
    def test_vanishes_on_jacobian_ideal(self, a, b, c):
        f = poly("x^3 + y^3")
        rf = residue_functional(milnor_algebra(f))
        g = Polynomial(XY, {(a, b): c} if c else {})
        for partial in jacobian_generators(f):
            assert rf.evaluate(partial * g) == 0

    def test_linearity(self):
        rf = residue_functional(milnor_algebra(poly("x^3 + y^3")))
        p, q = poly("x*y + x"), poly("3*x*y - y^2")
        assert rf.evaluate(p + q) == rf.evaluate(p) + rf.evaluate(q)

    def test_pairing_of_top_forms(self, cubic_mf):
        rf = residue_functional(milnor_algebra(poly("x^3 + y^3")))
        ch = chern_character_form(cubic_mf)
        # coefficient is 3y - 3x, and res((3y - 3x)^2) = -18 res(xy)
        assert residue_pairing(rf, ch, ch) == -2

    def test_pairing_rejects_low_degree(self):
        from mfres import DifferentialForm
        rf = residue_functional(milnor_algebra(poly("x*y")))
        func = DifferentialForm.from_polynomial(poly("x"))
        with pytest.raises(ValueError):
            residue_pairing(rf, func, func)


class TestOneVariablePeriodicExt:
    """Self Ext of R/(x^k) over Q[x]/(x^n), counted by hand.

    With X = (x^k, x^(n-k)) the even kernel is the diagonal and the even
    image is the ideal (x^min(k, n-k)) on it; the odd spot matches after the
    same elimination. Both homology dimensions equal min(k, n-k).
    """

    def test_engine_matches_degree_count(self):
        ring = ("x",)
        for n in range(2, 7):
            f = parse_polynomial(f"x^{n}", ring)
            for k in range(1, n):
                a = PolyMatrix.from_rows([[parse_polynomial(f"x^{k}", ring)]])
                b = PolyMatrix.from_rows([[parse_polynomial(f"x^{n - k}", ring)]])
                x_mf = MatrixFactorization(f, a, b)
                expected = min(k, n - k)
                assert homology_dimensions(hom_complex(x_mf, x_mf)) == (
                    expected, expected)


class TestEulerPairing:
    def test_node_and_cubic_values(self, node_mf, cubic_mf):
        assert euler_pairing(node_mf, node_mf) == 1
        assert euler_pairing(cubic_mf, cubic_mf) == 2

    def test_shift_negates(self, node_mf, cubic_mf):
        for mf in (node_mf, cubic_mf):
            assert euler_pairing(mf, shift(mf)) == -euler_pairing(mf, mf)

    def test_self_shift_forces_zero(self, cusp_mf, plane_mf):
        # A = B makes X[1] = X on the nose, so chi(X, X) = -chi(X, X)
        for mf in (cusp_mf, plane_mf):
            assert euler_pairing(mf, mf) == 0

    def test_herbrand_is_the_same_number(self, node_mf, cubic_mf):
        for mf in (node_mf, cubic_mf):
            assert herbrand_difference(mf, mf) == euler_pairing(mf, mf)


class TestExtRoute:
    """herbrand_difference reads stable Ext of coker(A) against coker(A')
    over R off the resolution; the pair must be the Hom complex pair, and
    the three-run reference under either term order."""

    @pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=lambda o: o.name)
    def test_ext_pair_is_the_hom_pair_on_every_corpus_pair(self, order):
        pairs = 0
        for path in sorted(builtin_corpus_dir().glob("*.json")):
            items = []
            for mf in load_corpus(path).factorizations:
                items += [mf, shift(mf), dual(mf), shift(dual(mf))]
            for x in items:
                for y in items:
                    ext = periodic_homology(SparseColumns.of(x.A.transpose()),
                                            SparseColumns.of(x.B.transpose()),
                                            cokernel_presentation(y))
                    assert ext == homology_dimensions(hom_complex(x, y)), (x.label, y.label)
                    assert herbrand_difference(x, y) == ext[0] - ext[1]
                    a, b = ([FreeModuleElement(m.column(j)) for j in range(m.cols)]
                            for m in (x.A.transpose(), x.B.transpose()))
                    n = cokernel_presentation(y)
                    assert ext == (_three_run_homology(a, b, n, order),
                                   _three_run_homology(b, a, n, order)), (x.label, y.label)
                    pairs += 1
        assert pairs == 256  # cubic 12^2, node 8^2, cusp, plane, clifford 4^2 each

    def test_different_potentials_rejected(self, node_mf, cubic_mf):
        with pytest.raises(FactorizationError):
            herbrand_difference(node_mf, cubic_mf)


class TestChernClass:
    def test_node_class(self, node_mf):
        alg = milnor_algebra(poly("x*y"))
        assert chern_milnor_class(node_mf, alg) == (Fraction(1),)

    def test_cubic_class_is_reduced_coefficient(self, cubic_mf):
        alg = milnor_algebra(poly("x^3 + y^3"))
        got = chern_milnor_class(cubic_mf, alg)
        assert got == alg.coordinates(poly("3*y - 3*x"))
        assert any(c != 0 for c in got)

    def test_wrong_algebra_rejected(self, node_mf):
        alg = milnor_algebra(poly("x^3 + y^3"))
        with pytest.raises(MfresError):
            chern_milnor_class(node_mf, alg)


class TestHrr:
    def test_node_report(self, node_mf):
        report = hrr_check(node_mf, node_mf)
        assert (report.chi, report.residue_side, report.sign) == (1, -1, -1)
        assert report.equal

    def test_cubic_all_ordered_pairs(self, cubic_mf):
        others = [cubic_mf, shift(cubic_mf),
                  make_mf("x^3 + y^3",
                          [["x", "-y"], ["y^2", "x^2"]],
                          [["x^2", "y"], ["-y^2", "x"]], label="D1")]
        for left in others:
            for right in others:
                assert hrr_check(left, right).equal

    def test_odd_variable_count_rejected(self, clifford_mf):
        with pytest.raises(ParityError):
            hrr_check(clifford_mf, clifford_mf)

    def test_independent_routes_agree_numerically(self, cubic_mf):
        # chi through Groebner homology, the other side through the residue
        report = hrr_check(cubic_mf, cubic_mf)
        assert report.chi == 2
        assert report.residue_side == -2
        assert report.sign == -1


class TestTheta:
    def test_factorization_and_presentation_paths_agree(self, cubic_mf):
        m1 = make_module("x^3 + y^3", [["x + y"]], label="m1")
        m2 = make_module("x^3 + y^3", [["x^2 - x*y + y^2"]], label="m2")
        assert hochster_theta(cubic_mf, m1) == hochster_theta(m1, m1) == -2
        assert hochster_theta(cubic_mf, m2) == hochster_theta(m1, m2) == 2

    def test_symmetry(self):
        m1 = make_module("x^3 + y^3", [["x + y"]])
        m2 = make_module("x^3 + y^3", [["x^2 - x*y + y^2"]])
        assert hochster_theta(m1, m2) == hochster_theta(m2, m1)

    def test_vanishes_in_even_dimension(self, clifford_mf):
        m = cokernel_presentation(clifford_mf)
        assert hochster_theta(clifford_mf, m) == 0
        assert hochster_theta(dual(clifford_mf), m) == 0
        assert hochster_theta(shift(clifford_mf), m) == 0

    def test_duality_sign(self, node_mf, cubic_mf):
        # theta(M*, M') = -(-1)^((n+1)/2) theta(M, M') with n + 1 = 2 here
        for x_mf, rel in ((node_mf, "x"), (cubic_mf, "x + y")):
            m_star = cokernel_presentation(dual(x_mf))
            m_plain = cokernel_presentation(x_mf)
            other = make_module(
                "x*y" if rel == "x" else "x^3 + y^3", [[rel]])
            assert hochster_theta(m_star, other) == hochster_theta(m_plain, other)

    def test_bridge_to_euler(self, node_mf, cubic_mf):
        # theta(M, M') = -chi(sigma(M*), sigma M') and
        # chi(sigma M, sigma M') = (-1)^((n+1)/2) theta(M, M')
        for x_mf in (node_mf, cubic_mf):
            m = cokernel_presentation(x_mf)
            assert hochster_theta(x_mf, m) == -euler_pairing(dual(x_mf), x_mf)
            assert euler_pairing(x_mf, x_mf) == -hochster_theta(x_mf, m)


CORPUS_MODULES = {"cubic.json": ("m1", "m2"), "node.json": ("Rx", "Ry")}


class TestThetaResolution:
    """A raw presentation is resolved in SparseColumns, from its relations
    to the periodic window."""

    @pytest.mark.parametrize("name", sorted(CORPUS_MODULES))
    def test_builds_no_poly_matrix(self, monkeypatch, name):
        corpus = load_corpus(builtin_corpus_dir() / name)
        modules = [corpus.module(label) for label in CORPUS_MODULES[name]]
        built, post_init = [], PolyMatrix.__post_init__
        monkeypatch.setattr(PolyMatrix, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        for m in modules:
            for n in modules:
                hochster_theta(m, n)
        assert built == []

    @pytest.mark.parametrize("name, label", [(name, label) for name in sorted(CORPUS_MODULES)
                                             for label in CORPUS_MODULES[name]])
    def test_syzygy_steps_per_corpus_module(self, monkeypatch, name, label):
        # d_2 and d_3 from d_1, the relations, and d_3 == d_1: a change of
        # normalisation that moves the periodicity point changes the count
        m = load_corpus(builtin_corpus_dir() / name).module(label)
        steps, step = [], mfres.pairings._syzygy_step
        monkeypatch.setattr(mfres.pairings, "_syzygy_step",
                            lambda d, f: steps.append(d) or step(d, f))
        hochster_theta(m, m)
        assert len(steps) == 2


# ---- the route Tor and theta took before periodic_homology ----
#
# Each kernel was a syzygy run on the map's columns and the relations,
# cut to the columns; each window a subquotient of two more plain runs; each
# resolution step a syzygy run, the same cut and a plain run.


def _preimage(cols, relations, order):
    """Generators of {c : sum c_i cols_i in span relations}."""
    heads = [FreeModuleElement(s.components[:len(cols)])
             for s in syzygy_basis(list(cols) + list(relations), order)]
    return [h for h in heads if not h.is_zero()]


def _block_relations(module, blocks):
    """Relations of module^blocks over Q, f e_i included."""
    s, f = module.ambient_rank, module.potential
    pad = (Polynomial.zero(f.ring),) * s
    base = [r.components for r in module.relations]
    base += [pad[:i] + (f,) + pad[i + 1:] for i in range(s)]
    return [FreeModuleElement(pad * b + comps + pad * (blocks - 1 - b))
            for b in range(blocks) for comps in base]


def _tensor_columns(cols, s):
    """Columns of (the matrix with columns cols) (x) I_s."""
    zero = Polynomial.zero(cols[0].ring)
    return [FreeModuleElement(tuple(p if u == t else zero for p in c.components for u in range(s)))
            for c in cols for t in range(s)]


def _three_run_homology(out_cols, in_cols, module, order):
    """dim ker(out (x) N) / im(in (x) N), both maps given by columns."""
    s = module.ambient_rank
    kernel = _preimage(_tensor_columns(out_cols, s),
                       _block_relations(module, out_cols[0].rank), order)
    if not kernel:
        return 0
    image = _tensor_columns(in_cols, s) + _block_relations(module, in_cols[0].rank)
    return subquotient_dimension(kernel, image)


def _three_run_tor(mf, module, order):
    a, b = ([FreeModuleElement(m.column(j)) for j in range(m.cols)] for m in (mf.A, mf.B))
    return (_three_run_homology(b, a, module, order), _three_run_homology(a, b, module, order))


def _three_run_theta(m, module, order):
    f = m.potential
    maps = [(list(m.relations), m.ambient_rank)]  # (columns of d_p, rank of F_(p-1))
    while len(maps) < 3 or maps[-1] != maps[-3]:
        if len(maps) == 30:
            raise MfresError("resolution did not become two periodic within the step cap")
        cols, rows = maps[-1]
        if not cols:
            return 0
        heads = _preimage(cols, scalar_columns(f, rows), order)
        maps.append((list(groebner_basis(heads, order).generators) if heads else [], len(cols)))
    p = len(maps) - 2
    lengths = {pos % 2: _three_run_homology(maps[pos - 1][0], maps[pos][0], module, order)
               for pos in (p, p + 1)}
    return lengths[0] - lengths[1]


FACTORIZATIONS = {  # (A, B) rows, one factorization per potential
    "x^3 + y^3": ([["x + y"]], [["x^2 - x*y + y^2"]]),
    "x*y": ([["x"]], [["y"]]),
    "x^3 + y^2": ([["y", "x"], ["x^2", "-y"]], [["y", "x"], ["x^2", "-y"]]),
}


@st.composite
def r_presentations(draw, potential):
    """Random presentations over R = Q[x, y]/(potential) of ambient rank 1-2
    with up to two relations of small degree. Entries are often entries of
    the potential's factorization, since finite length modules, which
    random relations mostly give, have theta zero against everything."""
    ambient = draw(st.integers(1, 2))
    entries = st.one_of(
        st.sampled_from([e for rows in FACTORIZATIONS[potential] for row in rows for e in row]
                        + ["0"]).map(poly),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        st.integers(-2, 2), max_size=2).map(lambda d: Polynomial(XY, d)))
    relations = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient),
                              max_size=2))
    return ModulePresentation(
        ambient_rank=ambient,
        relations=tuple(FreeModuleElement(tuple(rel)) for rel in relations),
        potential=poly(potential))


def _outcome(compute):
    try:
        return compute()
    except MfresError as exc:
        return type(exc).__name__


class TestAgainstThreeRunRoute:
    """tor_lengths and hochster_theta take no order. They must match the
    three-run reference under degrevlex and, on the cases drawn with lex,
    the reference under lex wherever that one returns a value."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_presentations(self, data):
        potential = data.draw(st.sampled_from(sorted(FACTORIZATIONS)))
        order = data.draw(st.sampled_from([DEGREVLEX, LEX]))
        m = data.draw(r_presentations(potential))
        n = data.draw(r_presentations(potential))
        mf = make_mf(potential, *FACTORIZATIONS[potential])
        for new, old in ((lambda: tor_lengths(mf, n), lambda o: _three_run_tor(mf, n, o)),
                         (lambda: hochster_theta(m, n), lambda o: _three_run_theta(m, n, o))):
            got = _outcome(new)
            reference = _outcome(lambda: old(DEGREVLEX))
            # the old kernels tag every relation too, so their runs are larger
            # and can pass the coefficient budget where the new ones finish
            if reference != "BudgetError":
                assert got == reference
            # a lex resolution can also miss the step cap that degrevlex meets
            if order == LEX and type(lex := _outcome(lambda: old(LEX))) is not str:
                assert got == lex


class TestGram:
    def test_euler_gram_cubic(self, cubic_mf):
        g = gram_matrix([cubic_mf, shift(cubic_mf)], "euler")
        assert g.entries == ((2, -2), (-2, 2))
        assert g.labels == ("C1", "C1[1]")

    def test_signed_theta_gram_node(self):
        rx = make_module("x*y", [["x"]], label="Rx")
        ry = make_module("x*y", [["y"]], label="Ry")
        g = gram_matrix([rx, ry], "signed_theta")
        assert g.entries == ((1, -1), (-1, 1))

    def test_signed_theta_needs_even_variables(self, clifford_mf):
        with pytest.raises(ParityError):
            gram_matrix([clifford_mf], "signed_theta")

    def test_unknown_pairing(self, node_mf):
        with pytest.raises(ValueError):
            gram_matrix([node_mf], "cup")

    def test_euler_needs_factorizations(self):
        rx = make_module("x*y", [["x"]])
        with pytest.raises(MfresError):
            gram_matrix([rx], "euler")


class TestPsd:
    def test_negative_pivot_reported(self):
        g = GramMatrix(("a", "b"), "euler", ((1, 2), (2, 1)))
        report = is_positive_semidefinite(g)
        assert not report.psd
        assert report.negative_pivot == -3

    def test_zero_diagonal_nonzero_block(self):
        g = GramMatrix(("a", "b"), "euler", ((0, 1), (1, 0)))
        report = is_positive_semidefinite(g)
        assert not report.psd
        assert report.negative_pivot is None

    def test_kernel_of_rank_one_matrix(self):
        g = GramMatrix(("a", "b"), "euler", ((2, -2), (-2, 2)))
        report = is_positive_semidefinite(g)
        assert report.psd
        assert report.kernel_basis == ((Fraction(1), Fraction(1)),)

    def test_definite_has_no_kernel(self):
        g = GramMatrix(("a", "b"), "euler", ((2, 1), (1, 2)))
        report = is_positive_semidefinite(g)
        assert report.psd and report.kernel_basis == ()

    def test_zero_matrix_full_kernel(self):
        g = GramMatrix(("a",), "theta", ((0,),))
        report = is_positive_semidefinite(g)
        assert report.psd and len(report.kernel_basis) == 1

    def test_asymmetric_rejected(self):
        g = GramMatrix(("a", "b"), "euler", ((0, 1), (2, 0)))
        with pytest.raises(MfresError):
            is_positive_semidefinite(g)

    def test_size_budget(self):
        from mfres.pairings import MAX_GRAM_SIZE
        n = MAX_GRAM_SIZE
        zero = GramMatrix(tuple(map(str, range(n))), "euler", ((0,) * n,) * n)
        assert len(is_positive_semidefinite(zero).kernel_basis) == n
        # strings would fail to convert: the budget comes before any entry
        over = GramMatrix(tuple(map(str, range(n + 1))), "euler", (("x",) * (n + 1),) * (n + 1))
        with pytest.raises(BudgetError, match="MAX_GRAM_SIZE = 128"):
            is_positive_semidefinite(over)

    def test_entry_budget(self):
        from mfres.pairings import MAX_GRAM_ENTRY_BITS
        top = 2 ** MAX_GRAM_ENTRY_BITS - 1
        assert is_positive_semidefinite(GramMatrix(("a",), "euler", ((-top,),))).negative_pivot == -top
        # checked on every entry before the symmetry check and the elimination
        over = GramMatrix(("a", "b"), "euler", ((1, 0), (top + 1, 1)))
        with pytest.raises(BudgetError, match="MAX_GRAM_ENTRY_BITS = 64"):
            is_positive_semidefinite(over)


    def test_perturbed_kernel_vector_raises(self, monkeypatch):
        original = ratmat.nullspace

        def perturbed(a, ncols):
            first, *rest = original(a, ncols)
            return (tuple(x + (i == 0) for i, x in enumerate(first)), *rest)
        monkeypatch.setattr(ratmat, "nullspace", perturbed)
        g = GramMatrix(("a", "b"), "euler", ((2, -2), (-2, 2)))
        with pytest.raises(InternalCheckError):
            is_positive_semidefinite(g)

    def test_missing_kernel_vector_raises(self, monkeypatch):
        original = ratmat.nullspace
        monkeypatch.setattr(ratmat, "nullspace", lambda a, ncols: original(a, ncols)[1:])
        g = GramMatrix(("a", "b", "c"), "euler", ((1, 1, 0), (1, 1, 0), (0, 0, 0)))
        assert len(original(g.entries, 3)) == 2
        with pytest.raises(InternalCheckError):
            is_positive_semidefinite(g)


def _ref_psd(g: GramMatrix) -> PsdReport:
    """Reference for is_positive_semidefinite: LDL^T on Fractions with
    largest diagonal pivoting, the first largest on a tie. Only for valid
    input: no budget or symmetry checks."""
    n = g.size
    m = [[Fraction(v) for v in row] for row in g.entries]
    work = [row[:] for row in m]
    for k in range(n):
        pivot_index = k
        for i in range(k, n):
            if work[i][i] > work[pivot_index][pivot_index]:
                pivot_index = i
        d = work[pivot_index][pivot_index]
        if d < 0:
            return PsdReport(psd=False, kernel_basis=(), negative_pivot=d)
        if d == 0:
            # all remaining diagonals are <= 0; PSD exactly when the block is zero
            block_zero = all(work[i][j] == 0
                             for i in range(k, n) for j in range(k, n))
            if block_zero:
                break
            return PsdReport(psd=False, kernel_basis=(), negative_pivot=None)
        if pivot_index != k:
            work[k], work[pivot_index] = work[pivot_index], work[k]
            for row in work:
                row[k], row[pivot_index] = row[pivot_index], row[k]
        for i in range(k + 1, n):
            factor = work[i][k] / d
            for j in range(k + 1, n):
                work[i][j] -= factor * work[k][j]
    kernel = ratmat.nullspace(tuple(tuple(row) for row in m), n)
    return PsdReport(psd=True, kernel_basis=tuple(kernel))


def _gram_of(b, n):
    """B^T B for the rows of B in Q^n."""
    return [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


def _symmetric(rng, n, entry):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = entry()
    return m


def _permuted(rng, m):
    order = list(range(len(m)))
    rng.shuffle(order)
    return [[m[i][j] for j in order] for i in order]


def _psd_cases(rng):
    """(kind, symmetric matrix) pairs, 64 of each kind, of size <= 8."""
    small = lambda: rng.randint(-4, 4)  # noqa: E731
    for _ in range(64):
        n = rng.randint(1, 8)
        # PSD of deficient rank
        yield "deficient", _gram_of([[small() for _ in range(n)]
                                     for _ in range(rng.randint(0, n - 1))], n)
        # indefinite more often than not: a B^T B minus a multiple of I, or no structure
        if rng.random() < 0.5:
            c = rng.randint(1, 6)
            m = _gram_of([[small() for _ in range(n)] for _ in range(n)], n)
            yield "indefinite", [[x - c * (i == j) for j, x in enumerate(row)]
                                 for i, row in enumerate(m)]
        else:
            yield "indefinite", _symmetric(rng, n, lambda: rng.randint(-5, 5))
        # a PSD block beside a zero-diagonal block with an entry off its diagonal
        z = rng.randint(2, max(2, n))
        p = rng.randint(0, 8 - z)
        block = _gram_of([[small() for _ in range(p)] for _ in range(rng.randint(0, p))], p)
        zero = _symmetric(rng, z, lambda: rng.choice((0, 0, rng.randint(-3, 3))))
        for i in range(z):
            zero[i][i] = 0
        i, j = rng.sample(range(z), 2)
        zero[i][j] = zero[j][i] = rng.choice((-2, -1, 1, 2))
        yield "zero_diagonal", _permuted(rng, [row + [0] * z for row in block]
                                         + [[0] * p + row for row in zero])
        # every diagonal entry the same, so the first pivot is a tie
        d = rng.randint(0, 4)
        m = _symmetric(rng, n, lambda: rng.randint(-1, 1))
        yield "tied", [[d if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(m)]
        # Fraction entries, some whole, of PSD or random matrices
        q = rng.randint(2, 6)
        if rng.random() < 0.5:
            m = _gram_of([[small() for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        else:
            m = _symmetric(rng, n, lambda: rng.randint(-9, 9))
        whole = _symmetric(rng, n, lambda: rng.random() < 0.3)
        yield "fractions", [[x if w else Fraction(x, q) for x, w in zip(row, wrow)]
                            for row, wrow in zip(m, whole)]


class TestPsdAgainstReference:
    def test_matches_fraction_ldlt(self):
        seen = {}
        for kind, m in _psd_cases(random.Random(29)):
            g = GramMatrix(tuple(map(str, range(len(m)))), "euler",
                           tuple(tuple(row) for row in m))
            got = is_positive_semidefinite(g)
            want = _ref_psd(g)
            assert (got.psd, got.kernel_basis, got.negative_pivot) == (
                want.psd, want.kernel_basis, want.negative_pivot), (kind, m)
            outcome = ("psd" if want.psd and want.kernel_basis else
                       "definite" if want.psd else
                       "negative" if want.negative_pivot is not None else "zero_block")
            seen.setdefault(kind, set()).add(outcome)
        assert sum(1 for _ in _psd_cases(random.Random(29))) == 320
        # each kind reaches the verdicts it was built for
        assert seen["deficient"] == {"psd"}
        assert {"negative", "zero_block"} <= seen["indefinite"]
        assert "zero_block" in seen["zero_diagonal"]
        assert {"psd", "definite", "negative", "zero_block"} <= seen["tied"]
        assert {"psd", "negative"} <= seen["fractions"]


class TestCombinations:
    def test_pairing_of_combination(self):
        g = GramMatrix(("a", "b"), "euler", ((2, -2), (-2, 2)))
        assert combination_pairing(g, (1, 1), (1, 1)) == 0
        assert combination_pairing(g, (1, -1), (1, -1)) == 8
        assert combination_pairing(g, (1, 0), (0, 1)) == -2

    def test_class_of_combination(self):
        classes = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))]
        assert combination_class(classes, (3, -1)) == (Fraction(3), Fraction(-2))

    def test_length_mismatch(self):
        g = GramMatrix(("a",), "euler", ((1,),))
        with pytest.raises(ValueError):
            combination_pairing(g, (1, 2), (1,))


class TestLemmaOnRandomAdjugatePairs:
    def test_two_variable_samples(self):
        from mfres import euler_lemma_check
        rng = random.Random(20260817)
        built = 0
        while built < 10:
            entries = [[_random_poly(rng, XY) for _ in range(2)] for _ in range(2)]
            a = PolyMatrix.from_rows(entries)
            det = a.determinant()
            if det.is_zero():
                continue
            mf = MatrixFactorization(det, a, adjugate(a))
            assert euler_lemma_check(mf, 1)
            built += 1


def _random_poly(rng: random.Random, ring) -> Polynomial:
    terms = {}
    nvars = len(ring)
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        coeff = Fraction(rng.randint(-3, 3))
        if coeff:
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Polynomial(ring, terms)
