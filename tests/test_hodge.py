from __future__ import annotations

import random

import pytest

from mfres import (
    BudgetError,
    MfresError,
    NilpotentOperator,
    WeightFiltration,
    graded_dimensions,
    primitive_subspace,
    verify_weight_axioms,
    weight_filtration,
)
from mfres import hodge, ratmat
from conftest import (
    identity,
    intertwiner_basis,
    invert_matrix,
    jordan_graded_oracle,
    jordan_matrix,
    matrix_powers,
    random_invertible,
    random_partition,
)


class TestNilpotentOperator:
    def test_rejects_non_nilpotent(self):
        with pytest.raises(MfresError):
            NilpotentOperator.from_rows([[1, 0], [0, 1]], center=0)

    def test_rejects_non_square(self):
        with pytest.raises(MfresError):
            NilpotentOperator.from_rows([[0, 1]], center=0)

    def test_rejects_empty(self):
        with pytest.raises(MfresError):
            NilpotentOperator.from_rows([], center=0)

    def test_dimension_budget(self, monkeypatch):
        def refuse(a, b):
            raise AssertionError("a product was made")
        monkeypatch.setattr(ratmat, "map", refuse)
        n = hodge.MAX_OPERATOR_DIMENSION + 1
        with pytest.raises(BudgetError, match="MAX_OPERATOR_DIMENSION = 32"):
            NilpotentOperator.from_rows(jordan_matrix((n,)), center=0)

    def test_largest_operator_accepted(self):
        n = hodge.MAX_OPERATOR_DIMENSION
        op = NilpotentOperator.from_rows(jordan_matrix((2,) * (n // 2)), center=0)
        assert op.dimension == n and op.nilpotency_index == 2

    def test_nilpotency_index(self):
        assert NilpotentOperator.from_rows(
            jordan_matrix((3,)), center=0).nilpotency_index == 3
        assert NilpotentOperator.from_rows(
            [[0, 0], [0, 0]], center=0).nilpotency_index == 1


class TestJordanOracle:
    def test_partition_3_1(self):
        op = NilpotentOperator.from_rows(jordan_matrix((3, 1)), center=0)
        wf = weight_filtration(op)
        assert graded_dimensions(wf) == {-3: 0, -2: 1, -1: 0, 0: 2,
                                         1: 0, 2: 1, 3: 0}
        assert len(primitive_subspace(wf, 0)) == 1
        assert len(primitive_subspace(wf, 1)) == 0
        assert len(primitive_subspace(wf, 2)) == 1

    def test_random_partitions_match_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            partition = random_partition(rng, 8)
            center = rng.randint(-3, 3)
            op = NilpotentOperator.from_rows(jordan_matrix(partition), center)
            wf = weight_filtration(op)
            oracle = jordan_graded_oracle(partition, center)
            got = graded_dimensions(wf)
            for k, expected in oracle.items():
                assert got.get(k, 0) == expected

    def test_primitive_counts_blocks_of_exact_size(self):
        rng = random.Random(11)
        for _ in range(15):
            partition = random_partition(rng, 7)
            op = NilpotentOperator.from_rows(jordan_matrix(partition), 0)
            wf = weight_filtration(op)
            for l in range(max(partition)):
                expected = sum(1 for s in partition if s == l + 1)
                assert len(primitive_subspace(wf, l)) == expected

    def test_conjugation_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            partition = random_partition(rng, 6)
            n_mat = jordan_matrix(partition)
            g = random_invertible(rng, len(n_mat))
            conjugated = ratmat.mat_mul(ratmat.mat_mul(g, n_mat),
                                        invert_matrix(g))
            op = NilpotentOperator.from_rows(conjugated, center=0)
            assert graded_dimensions(weight_filtration(op)) == \
                jordan_graded_oracle(partition, 0)


class TestAxioms:
    def test_report_passes_on_construction(self):
        op = NilpotentOperator.from_rows(jordan_matrix((4, 2, 1)), center=2)
        report = verify_weight_axioms(weight_filtration(op))
        assert report.shift_ok and report.iso_ok

    def test_full_everywhere_candidate_fails_both(self):
        op = NilpotentOperator.from_rows(jordan_matrix((2,)), center=0)
        full = identity(2)
        candidate = WeightFiltration(operator=op, lowest=-1, highest=1,
                                     pieces=(full, full, full))
        report = verify_weight_axioms(candidate)
        assert not report.shift_ok
        assert not report.iso_ok

    def test_non_canonical_piece_refused(self):
        # Q^2 written as ((1,1),(0,1)) is not an RREF, and containment read off
        # its rows would misreport the valid filtration
        op = NilpotentOperator.from_rows([[0, 1], [0, 0]], center=0)
        wf = weight_filtration(op)
        full = identity(2)
        twisted = tuple(((1, 1), (0, 1)) if p == full else p for p in wf.pieces)
        assert twisted[2:] == (((1, 0),), ((1, 1), (0, 1)), ((1, 1), (0, 1)))
        with pytest.raises(ValueError, match=r"piece 3 \(W_1\)"):
            WeightFiltration(operator=op, lowest=wf.lowest, highest=wf.highest,
                             pieces=twisted)
        twin = WeightFiltration(operator=op, lowest=wf.lowest, highest=wf.highest,
                                pieces=wf.pieces)
        assert verify_weight_axioms(twin) == hodge.WeightAxiomReport(True, True)

    # too few pieces once raised IndexError in verify_weight_axioms, and a
    # surplus piece was ignored
    @pytest.mark.parametrize("count", [2, 4])
    def test_piece_count_refused(self, count):
        op = NilpotentOperator.from_rows([[0, 1], [0, 0]], center=0)
        full = identity(2)
        with pytest.raises(ValueError, match=f"W_-1 .. W_1 needs 3 pieces, found {count}"):
            WeightFiltration(operator=op, lowest=-1, highest=1, pieces=(full,) * count)

    @pytest.mark.parametrize("piece", [
        ((0, 1), (1, 0)),                # pivots out of order
        ((2, 0),),                       # no leading 1
        ((1, 0), (0, 0)),                # a zero row
        ((1, 1), (0, 1)),                # nonzero at the other row's pivot
        ((1, 0, 0),),                    # wrong length
    ])
    def test_piece_shapes_checked(self, piece):
        op = NilpotentOperator.from_rows([[0, 1], [0, 0]], center=0)
        with pytest.raises(ValueError, match="piece 0"):
            WeightFiltration(operator=op, lowest=0, highest=0, pieces=(piece,))

    def test_off_center_candidate_fails(self):
        # the correct filtration for center 0, presented as if centered at 2
        op = NilpotentOperator.from_rows(jordan_matrix((2,)), center=2)
        reference = weight_filtration(
            NilpotentOperator.from_rows(jordan_matrix((2,)), center=0))
        candidate = WeightFiltration(operator=op,
                                     lowest=reference.lowest,
                                     highest=reference.highest,
                                     pieces=reference.pieces)
        report = verify_weight_axioms(candidate)
        assert not (report.shift_ok and report.iso_ok)

    def test_kernel_sits_below_center(self):
        rng = random.Random(17)
        for _ in range(10):
            partition = random_partition(rng, 6)
            op = NilpotentOperator.from_rows(jordan_matrix(partition), 0)
            wf = weight_filtration(op)
            kernel = ratmat.nullspace(op.matrix, op.dimension)
            assert ratmat.leq(ratmat.integral(kernel)[0], wf.int_piece(0))

    def test_image_sits_strictly_below(self):
        op = NilpotentOperator.from_rows(jordan_matrix((3, 2)), center=0)
        wf = weight_filtration(op)
        columns = ratmat.integral(tuple(zip(*op.matrix)))[0]
        assert ratmat.leq(columns, wf.int_piece(1))


class TestFiltrationShape:
    def test_zero_operator_concentrates_at_center(self):
        op = NilpotentOperator.from_rows([[0, 0], [0, 0]], center=5)
        wf = weight_filtration(op)
        assert graded_dimensions(wf) == {4: 0, 5: 2, 6: 0}
        assert wf.piece(3) == ()
        assert len(wf.piece(9)) == 2

    def test_piece_clamping(self):
        op = NilpotentOperator.from_rows(jordan_matrix((2,)), center=0)
        wf = weight_filtration(op)
        assert wf.piece(-100) == ()
        assert wf.piece(100) == wf.piece(wf.highest)

    def test_primitive_negative_offset_rejected(self):
        op = NilpotentOperator.from_rows(jordan_matrix((2,)), center=0)
        with pytest.raises(ValueError):
            primitive_subspace(weight_filtration(op), -1)

    def test_primitive_vectors_live_in_their_piece(self):
        op = NilpotentOperator.from_rows(jordan_matrix((3, 1)), center=0)
        wf = weight_filtration(op)
        for l in (0, 2):
            power = ratmat.integral(matrix_powers(op.matrix, l + 1)[-1])[0]
            for rep in primitive_subspace(wf, l):
                v = ratmat.integral((rep,))[0]
                assert ratmat.leq(v, wf.int_piece(l))
                assert ratmat.leq(ratmat.map(power, v), wf.int_piece(-l - 3))


class TestNaturality:
    def test_intertwiners_respect_filtrations(self):
        # g N = N' g forces g . W_k(N) inside W_k(N')
        rng = random.Random(19)
        checked = 0
        while checked < 10:
            left = random_partition(rng, 5)
            right = random_partition(rng, 5)
            n_mat = jordan_matrix(left)
            n_prime_mat = jordan_matrix(right)
            basis = intertwiner_basis(n_mat, n_prime_mat)
            if not basis:
                continue
            g = basis[rng.randrange(len(basis))]
            wf = weight_filtration(NilpotentOperator.from_rows(n_mat, 0))
            wf_prime = weight_filtration(
                NilpotentOperator.from_rows(n_prime_mat, 0))
            g_rows = ratmat.integral(g)[0]
            for k in range(wf.lowest, wf.highest + 1):
                moved = ratmat.map(g_rows, wf.int_piece(k).rows)
                assert ratmat.leq(moved, wf_prime.int_piece(k))
            checked += 1

    def test_sylvester_solver_really_intertwines(self):
        n_mat = jordan_matrix((3, 1))
        n_prime_mat = jordan_matrix((2, 2))
        basis = intertwiner_basis(n_mat, n_prime_mat)
        assert basis
        for g in basis:
            assert ratmat.mat_mul(g, n_mat) == ratmat.mat_mul(n_prime_mat, g)


class TestWorkCounts:
    """Work done for one operator: matrix products, conversions and
    eliminations. The powers of N are computed once, when the operator is
    built, as e products of int rows; the counts do not depend on the
    machine."""

    @staticmethod
    def _pipeline_calls(partition, conjugate, monkeypatch, names):
        """Calls of each named ratmat function when the operator is built,
        and over build, filtration, verification and every primitive
        subspace."""
        mat = jordan_matrix(partition)
        if conjugate:
            g = random_invertible(random.Random(23), len(mat))
            mat = ratmat.mat_mul(ratmat.mat_mul(g, mat), invert_matrix(g))
        calls = dict.fromkeys(names, 0)

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in names:
            monkeypatch.setattr(ratmat, name, counting(name, getattr(ratmat, name)))
        op = NilpotentOperator.from_rows(mat, center=1)
        built = dict(calls)
        wf = weight_filtration(op)
        verify_weight_axioms(wf)
        for l in range(0, wf.highest - op.center + 1):
            primitive_subspace(wf, l)
        assert op.nilpotency_index == max(partition)
        return built, calls

    # each power is one ratmat.map product of int rows, made when the
    # operator is built; after that only verify_weight_axioms maps, N . W_k
    # once per piece, and it runs twice: inside weight_filtration and here
    @pytest.mark.parametrize("partition, conjugate", [
        ((3, 1), False), ((8,), False), ((4, 2, 1, 1), True)])
    def test_one_product_per_power(self, partition, conjugate, monkeypatch):
        built, calls = self._pipeline_calls(partition, conjugate, monkeypatch, ["map"])
        e = max(partition)
        assert built["map"] == e
        assert calls["map"] == e + 2 * (2 * e + 1)

    # Only the needed terms of the closed formula are formed, each kernel and
    # each intersection eliminates once, and the pipeline runs on the integer
    # forms: integral converts the matrix once, when the operator is built,
    # and each piece once, when the filtration is built. echelon counts every
    # elimination.
    @pytest.mark.parametrize("partition, conjugate, conversions, eliminations", [
        ((3, 1), False, 8, 40),
        ((8,), False, 18, 140),
        ((4, 2, 1, 1), True, 10, 56)])
    def test_eliminations(self, partition, conjugate, conversions, eliminations,
                          monkeypatch):
        built, calls = self._pipeline_calls(partition, conjugate, monkeypatch,
                                            ["integral", "echelon"])
        assert built == {"integral": 1, "echelon": 0}
        assert calls == {"integral": conversions, "echelon": eliminations}
