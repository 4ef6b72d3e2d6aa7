"""Tests for the benchmark's own generators, oracles and span bookkeeping.

    python3 -m pytest perfbench

Expected values are worked by hand; nothing here imports mfres.
"""

import random
import threading
import time

import inputs
import oracles
import tracing


def poly(terms):
    """{exponents: coefficient} from [(coefficient, exponents), ...]."""
    return {tuple(e): c for c, e in terms}


X, Y = (1, 0), (0, 1)


class FixedChoice:
    """Stands in for random.Random: always picks the given coefficient."""

    def __init__(self, value):
        self.value = value

    def choice(self, options):
        return self.value


def test_tensor_of_two_rank_one_factorizations_by_hand():
    # (x, x) for x^2 and (y, y^2) for y^3:
    # A = [[x, y], [-y^2, x]], B = [[x, -y], [y^2, x]]
    a, b = inputs.koszul([2, 3], [1, 1])
    assert a == [[poly([(1, X)]), poly([(1, Y)])],
                 [poly([(-1, (0, 2))]), poly([(1, X)])]]
    assert b == [[poly([(1, X)]), poly([(-1, Y)])],
                 [poly([(1, (0, 2))]), poly([(1, X)])]]
    f = poly([(1, (2, 0)), (1, (0, 3))])
    assert inputs.potential([2, 3]) == f
    assert inputs.mat_mul(a, b) == inputs.scalar_matrix(f, 2)
    assert inputs.mat_mul(b, a) == inputs.scalar_matrix(f, 2)


def test_koszul_factorizations_multiply_to_the_potential():
    for degrees, splits in (([3, 4, 5], [1, 2, 4]), ([5, 3], [2, 2])):
        a, b = inputs.koszul(degrees, splits)
        r = 2 ** (len(degrees) - 1)
        assert len(a) == r
        f = inputs.potential(degrees)
        assert inputs.mat_mul(a, b) == inputs.scalar_matrix(f, r)
        assert inputs.mat_mul(b, a) == inputs.scalar_matrix(f, r)


def test_unimodular_by_hand():
    # one step: row 0 += 2 * row 1
    g, inv = inputs.unimodular(FixedChoice(2), 2, [(0, 1)])
    assert g == [[1, 2], [0, 1]]
    assert inv == [[1, -2], [0, 1]]


def test_unimodular_inverse_is_exact():
    rng = random.Random(7)
    for n in (2, 4, 8):
        positions = [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)]
        g, inv = inputs.unimodular(rng, n, positions)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert inputs._int_mat_mul(g, inv) == ident
        assert inputs._int_mat_mul(inv, g) == ident


def test_change_of_basis_keeps_the_factorization():
    spec = inputs.mixed_pair(random.Random(3), (3, 4), [[1, 1], [2, 3]], [[1, 2], [2, 2]])
    f = inputs.potential([3, 4])
    for side in ("left", "right"):
        a, b = inputs.factorization(spec, side)
        assert len(a) == 4
        assert inputs.mat_mul(a, b) == inputs.scalar_matrix(f, 4)
        assert inputs.mat_mul(b, a) == inputs.scalar_matrix(f, 4)
        assert any(len(p) > 1 for row in a for p in row)  # entries are no longer monomials


def test_jordan_types_and_nilpotents():
    types = inputs.jordan_types()
    # p(4) + ... + p(8) = 5 + 7 + 11 + 15 + 22, less the five all-ones types
    assert len(types) == 55
    assert [2, 1, 1] in types and [1, 1, 1, 1] not in types
    for blocks in ([3, 1], [4, 2, 2], [8]):
        n = inputs.nilpotent(random.Random(1), blocks)
        power = n
        for _ in range(max(blocks) - 2):
            power = inputs._int_mat_mul(power, n)
        assert any(any(row) for row in power)  # N^(e-1) != 0
        assert not any(any(row) for row in inputs._int_mat_mul(power, n))  # N^e = 0


def test_one_variable_and_kuenneth_oracles_by_hand():
    assert oracles.one_variable_ext(3, 1, 2) == 1
    assert oracles.one_variable_ext(6, 3, 3) == 3
    assert oracles.one_variable_ext(6, 2, 5) == 1
    # m = (1, 2), two variables: 2 * 1 * 2 in each parity
    assert oracles.koszul_homology([3, 4], [1, 2], [2, 2]) == (4, 4)
    # three variables: 4 * 1 * 1 * 2
    assert oracles.koszul_homology([3, 3, 4], [1, 2, 2], [1, 2, 2]) == (8, 8)
    # two summands on each side, every pair of summands contributes 2
    assert oracles.direct_sum_homology([3, 3], [[1, 1], [2, 2]], [[1, 2], [2, 1]]) == (8, 8)


def test_hrr_sign():
    assert [oracles.hrr_sign(n) for n in (1, 2, 3, 4)] == [1, -1, -1, 1]


def test_weight_oracles_by_hand():
    # blocks 3 and 1 at center 0: weights -2, 0, 2 and 0
    assert oracles.weight_graded([3, 1], 0) == {-2: 1, 0: 2, 2: 1}
    assert oracles.weight_graded([2], -1) == {-2: 1, 0: 1}
    assert oracles.primitive_dims([3, 1], [0, 1, 2, 3]) == {0: 1, 1: 0, 2: 1, 3: 0}
    good = dict(blocks=[3, 1], center=0, nilpotency_index=3,
                graded={-3: 0, -2: 1, 0: 2, 2: 1, 3: 0},
                primitive={0: 1, 1: 0, 2: 1, 3: 0}, shift_ok=True, iso_ok=True)
    assert oracles.check_filtration(**good) == []
    assert oracles.check_filtration(**{**good, "nilpotency_index": 2})
    assert oracles.check_filtration(**{**good, "graded": {-2: 1, 0: 3}})
    assert oracles.check_filtration(**{**good, "primitive": {0: 2, 1: 0, 2: 1, 3: 0}})
    assert oracles.check_filtration(**{**good, "iso_ok": False})


def test_covered_length_of_overlapping_intervals():
    assert tracing._covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing._covered([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert tracing._covered([], 0, 1) == 0


def test_self_time_subtracts_children_on_the_same_thread():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()
        time.sleep(0.01)

    outer = tracer.span("outer", outer_body)
    outer()
    totals = tracer.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert totals["inner"][1] >= 0.04
    assert 0.01 <= totals["outer"][1] < 0.03


def test_spans_on_worker_threads_are_children_of_the_home_span():
    tracer = tracing.Tracer()
    work = tracer.span("work", lambda: time.sleep(0.03))
    count = tracer.count("tick", lambda: None)

    def fan_out():
        threads = [threading.Thread(target=lambda: (work(), count())) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    tracer.span("pool", fan_out)()
    totals = tracer.totals()
    assert totals["work"][0] == 3 and totals["tick"][0] == 3
    assert totals["pool"][1] < 0.02  # the overlapping worker spans cover the wait
