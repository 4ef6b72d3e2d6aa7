"""Shipping criteria, one test per criterion.

Every check here re-derives its expected values from an oracle that does not
share code with the engine under test: staircase counts by direct lattice
walks, one variable stable Ext dimensions by a pencil and paper formula,
Jordan block bookkeeping for filtrations. Time budgets are asserted where a
criterion pins one. The terminal summary prints one PASS/FAIL line per
criterion (see conftest).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from mfres import (
    DEGREVLEX,
    LEX,
    MatrixFactorization,
    NilpotentOperator,
    PolyMatrix,
    Polynomial,
    WeightFiltration,
    chern_milnor_class,
    cokernel_presentation,
    combination_class,
    combination_pairing,
    dual,
    euler_lemma_check,
    euler_pairing,
    graded_dimensions,
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
    quotient_dimension,
    shift,
    verify_weight_axioms,
    weight_filtration,
)
from mfres import ratmat
from mfres.cli import builtin_corpus_dir

from conftest import (
    identity,
    intertwiner_basis,
    invert_matrix,
    jordan_graded_oracle,
    jordan_matrix,
    matrix_powers,
    poly,
    random_invertible,
    random_partition,
)

TWO_VARIABLE_FILES = ("node.json", "cusp.json", "cubic.json", "plane.json")


def load(name):
    return load_corpus(builtin_corpus_dir() / name)


# ---------------------------------------------------------------------------
# criterion 1: the index identity on every ordered pair

def test_criterion_1_hrr_every_ordered_pair():
    for name in TWO_VARIABLE_FILES:
        started = time.monotonic()
        cf = load(name)
        items = list(cf.factorizations)
        assert items, name
        for left, right in product(items, repeat=2):
            report = hrr_check(left, right)
            assert report.equal, (name, left.label, right.label,
                                  report.chi, report.residue_side)
        assert time.monotonic() - started < 10.0, name


# ---------------------------------------------------------------------------
# criterion 2: anchor values, with independent oracles run first

def one_variable_ext_oracle(n: int, k: int) -> int:
    """Self Ext dimensions of Q[x]/(x^k) over Q[x]/(x^n), by hand.

    In the length two complex for (x^k, x^(n-k)) against itself both
    differentials collapse to multiplication by x^k and x^(n-k) on a
    diagonal; each homology space is Q[x]/(x^min(k, n-k)).
    """
    return min(k, n - k)


ANCHOR_JACOBIAN_EXPONENTS = {
    # potential text -> exponent vectors of its (monomial) Jacobian generators
    "x*y": ((0, 1), (1, 0)),
    "x^3 + y^2": ((2, 0), (0, 1)),
    "x^3 + y^3": ((2, 0), (0, 2)),
    "x^3 + y^5": ((2, 0), (0, 4)),
}

ANCHOR_MU = {"x*y": 1, "x^3 + y^2": 2, "x^3 + y^3": 4, "x^3 + y^5": 8}


def staircase_count(generator_exponents) -> int:
    """Monomials under the stairs of a monomial ideal in two variables."""
    bound = 1 + max(max(a, b) for a, b in generator_exponents)
    count = 0
    for i in range(bound):
        for j in range(bound):
            if not any(i >= a and j >= b for a, b in generator_exponents):
                count += 1
    return count


def test_criterion_2_anchor_values_with_independent_oracles():
    # calibrate the homology engine on one variable cases first
    ring = ("x",)
    for n in range(2, 7):
        f = parse_polynomial(f"x^{n}", ring)
        for k in range(1, n):
            a = PolyMatrix.from_rows([[parse_polynomial(f"x^{k}", ring)]])
            b = PolyMatrix.from_rows([[parse_polynomial(f"x^{n - k}", ring)]])
            x_mf = MatrixFactorization(f, a, b)
            expected = one_variable_ext_oracle(n, k)
            assert homology_dimensions(hom_complex(x_mf, x_mf)) == (
                expected, expected), (n, k)

    # Milnor numbers against engine-free staircase counts
    for text, exponents in ANCHOR_JACOBIAN_EXPONENTS.items():
        assert staircase_count(exponents) == ANCHOR_MU[text], text
        assert milnor_algebra(poly(text)).mu == ANCHOR_MU[text], text

    # pairing anchors
    node = load("node.json")
    n1 = node.factorization("N1")
    report = hrr_check(n1, n1)
    assert (report.chi, report.residue_side) == (1, Fraction(-1))

    cubic = load("cubic.json")
    c1 = cubic.factorization("C1")
    report = hrr_check(c1, c1)
    assert (report.chi, report.residue_side) == (2, Fraction(-2))

    for name, label in (("plane.json", "S"), ("cusp.json", "K")):
        cf = load(name)
        item = cf.factorization(label)
        assert euler_pairing(item, item) == 0
        alg = milnor_algebra(cf.potential)
        assert all(c == 0 for c in chern_milnor_class(item, alg))


# ---------------------------------------------------------------------------
# criterion 3: positivity of the euler pairing

def test_criterion_3_euler_positivity():
    started = time.monotonic()
    rng = random.Random(916)
    for name in TWO_VARIABLE_FILES:
        cf = load(name)
        items = list(cf.factorizations)
        gram = gram_matrix(items, "euler")
        report = is_positive_semidefinite(gram)
        assert report.psd, (name, gram.entries)

        alg = milnor_algebra(cf.potential)
        classes = [chern_milnor_class(item, alg) for item in items]
        for _ in range(100):
            alpha = tuple(rng.randint(-5, 5) for _ in items)
            chi = combination_pairing(gram, alpha, alpha)
            assert chi >= 0, (name, alpha)
            cls = combination_class(classes, alpha)
            assert (chi == 0) == all(c == 0 for c in cls), (name, alpha)
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# criterion 4: the theta suite

def test_criterion_4_theta_suite():
    started = time.monotonic()

    node = load("node.json")
    rx, ry = node.module("Rx"), node.module("Ry")
    gram = gram_matrix([rx, ry], "signed_theta")
    assert gram.entries == ((1, -1), (-1, 1))
    report = is_positive_semidefinite(gram)
    assert report.psd
    assert report.kernel_basis == ((Fraction(1), Fraction(1)),)

    # even dimension: theta vanishes identically
    clifford = load("clifford.json")
    cl = clifford.factorization("CL")
    m = cokernel_presentation(cl)
    for left in (cl, dual(cl), shift(cl)):
        assert hochster_theta(left, m) == 0

    # duality and bridge corollaries on all node and cubic pairs; both
    # potentials have two variables, so (-1)^(d/2) = -1
    cubic = load("cubic.json")
    matched = {
        "node.json": [(node.factorization("N1"), node.module("Rx")),
                      (node.factorization("N1s"), node.module("Ry"))],
        "cubic.json": [(cubic.factorization("C1"), cubic.module("m1")),
                       (cubic.factorization("C1s"), cubic.module("m2"))],
    }
    for pairs in matched.values():
        for (x_mf, x_mod), (y_mf, y_mod) in product(pairs, repeat=2):
            theta = hochster_theta(x_mod, y_mod)
            assert euler_pairing(x_mf, y_mf) == -theta
            assert theta == -herbrand_difference(dual(x_mf), y_mf)
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# criterion 5: the trace form lemma

def random_entry(rng: random.Random, ring, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * len(ring)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(ring))] += 1
        coeff = rng.randint(-3, 3)
        if coeff:
            exps_key = tuple(exps)
            terms[exps_key] = terms.get(exps_key, 0) + coeff
    return Polynomial(ring, {e: Fraction(c) for e, c in terms.items()})


def random_adjugate_factorization(rng: random.Random, ring,
                                  max_degree: int) -> MatrixFactorization | None:
    entries = [[random_entry(rng, ring, max_degree) for _ in range(2)]
               for _ in range(2)]
    a = PolyMatrix.from_rows(entries)
    det = a.determinant()
    if det.is_zero():
        return None
    return MatrixFactorization(det, a, a.adjugate())


def test_criterion_5_trace_form_lemma():
    started = time.monotonic()

    corpus_files = TWO_VARIABLE_FILES + ("clifford.json", "e8.json")
    for name in corpus_files:
        cf = load(name)
        for item in cf.factorizations:
            for j in range(1, len(cf.variables) // 2 + 1):
                assert euler_lemma_check(item, j), (name, item.label, j)

    rng = random.Random(913)
    for ring, top_j, max_degree, wanted in ((("x", "y"), 1, 2, 25),
                                            (("w", "x", "y", "z"), 2, 1, 25)):
        built = 0
        while built < wanted:
            mf = random_adjugate_factorization(rng, ring, max_degree)
            if mf is None:
                continue
            for j in range(1, top_j + 1):
                assert euler_lemma_check(mf, j), (ring, j, mf.A.entries)
            built += 1
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# criterion 6: weight filtrations

def filtration_lattice(op: NilpotentOperator) -> list:
    """All sums of (ker N^a intersect im N^b), the candidate pieces."""
    n = op.dimension
    e = op.nilpotency_index
    powers = [ratmat.integral(p)[0] for p in matrix_powers(op.matrix, e)]

    atoms = set()
    for a in range(e + 1):
        kernel = ratmat.kernel(powers[a], n).rows if a > 0 else []
        for b in range(e + 1):
            image = ratmat.image(powers[b]).rows if b > 0 else powers[0]
            atoms.add(ratmat.fractions(ratmat.intersect(kernel, image, n)))
    atoms.add(identity(n))

    closed = set(atoms)
    frontier = list(atoms)
    while frontier:
        s = frontier.pop()
        for t in list(closed):
            u = ratmat.rref(s + t)[0]
            if u not in closed:
                closed.add(u)
                frontier.append(u)
    return sorted(closed, key=lambda s: (len(s), s))


def assert_unique_filtration(partition, center: int):
    op = NilpotentOperator.from_rows(jordan_matrix(partition), center)
    reference = weight_filtration(op)
    lattice = filtration_lattice(op)
    forms = {s: ratmat.canonical(s, op.dimension) for s in lattice}
    e = op.nilpotency_index
    slots = 2 * e + 1
    full = identity(op.dimension)

    valid = []

    def extend(chain):
        if len(chain) == slots:
            if chain[-1] != full:
                return
            candidate = WeightFiltration(operator=op, lowest=center - e,
                                         highest=center + e,
                                         pieces=tuple(chain))
            report = verify_weight_axioms(candidate)
            if report.shift_ok and report.iso_ok:
                valid.append(tuple(chain))
            return
        for s in lattice:
            if not chain or ratmat.leq(forms[chain[-1]].rows, forms[s]):
                extend(chain + [s])

    extend([])
    assert valid == [reference.pieces], partition


def test_criterion_6_weight_filtration():
    started = time.monotonic()
    rng = random.Random(65)

    # 200 random Jordan type nilpotents, dimension <= 8
    for _ in range(200):
        partition = random_partition(rng, 8)
        center = rng.randint(-2, 2)
        mat = jordan_matrix(partition)
        if rng.random() < 0.25:
            g = random_invertible(rng, len(mat))
            mat = ratmat.mat_mul(ratmat.mat_mul(g, mat), invert_matrix(g))
        op = NilpotentOperator.from_rows(mat, center)
        wf = weight_filtration(op)
        report = verify_weight_axioms(wf)
        assert report.shift_ok and report.iso_ok, partition
        assert graded_dimensions(wf) == jordan_graded_oracle(partition, center)

    # brute force uniqueness for every partition of d <= 4
    partitions = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1),
                  (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for partition in partitions:
        assert_unique_filtration(partition, center=0)
    assert_unique_filtration((2, 1), center=2)

    # naturality on 100 random intertwiners
    filtrations = {}

    def filtration_for(partition):
        if partition not in filtrations:
            op = NilpotentOperator.from_rows(jordan_matrix(partition), 0)
            filtrations[partition] = weight_filtration(op)
        return filtrations[partition]

    checked = 0
    while checked < 100:
        left = random_partition(rng, 5)
        right = random_partition(rng, 5)
        basis = intertwiner_basis(jordan_matrix(left), jordan_matrix(right))
        if not basis:
            continue
        g = None
        for _ in range(2):
            pick = basis[rng.randrange(len(basis))]
            c = Fraction(rng.randint(-2, 2))
            scaled = tuple(tuple(c * v for v in row) for row in pick)
            g = scaled if g is None else tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(g, scaled))
        if all(v == 0 for row in g for v in row):
            continue
        wf = filtration_for(left)
        wf_prime = filtration_for(right)
        low = min(wf.lowest, wf_prime.lowest)
        high = max(wf.highest, wf_prime.highest)
        g_rows = ratmat.integral(g)[0]
        for k in range(low, high + 1):
            moved = ratmat.map(g_rows, wf.int_piece(k).rows)
            assert ratmat.leq(moved, wf_prime.int_piece(k)), (left, right, k)
        checked += 1

    assert time.monotonic() - started < 20.0


# ---------------------------------------------------------------------------
# criterion 7: engine cross validation

def swap_variables(p: Polynomial) -> Polynomial:
    return Polynomial(p.ring, {(j, i): c for (i, j), c in p.items()})


def swap_matrix(m: PolyMatrix) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[swap_variables(m.entry(i, j)) for j in range(m.cols)]
         for i in range(m.rows)])


def test_criterion_7_engine_cross_validation():
    # the two monomial orders agree on every corpus Jacobian ideal
    for name in TWO_VARIABLE_FILES + ("clifford.json", "e8.json"):
        cf = load(name)
        generators = jacobian_generators(cf.potential)
        by_degrevlex = quotient_dimension(groebner_basis(generators, DEGREVLEX))
        by_lex = quotient_dimension(groebner_basis(generators, LEX))
        assert by_degrevlex is not None and by_lex is not None, name
        assert by_degrevlex.dimension == by_lex.dimension, name
        assert by_degrevlex.dimension == milnor_algebra(cf.potential).mu

    # homology dimensions survive relabeling the variables
    for name in ("node.json", "cubic.json"):
        cf = load(name)
        items = list(cf.factorizations)
        for left, right in product(items, repeat=2):
            plain = homology_dimensions(hom_complex(left, right))
            swapped = homology_dimensions(hom_complex(
                MatrixFactorization(swap_variables(left.potential),
                                    swap_matrix(left.A), swap_matrix(left.B)),
                MatrixFactorization(swap_variables(right.potential),
                                    swap_matrix(right.A), swap_matrix(right.B))))
            assert plain == swapped, (name, left.label, right.label)

    # shifting one argument swaps the two homology dimensions
    for name in ("node.json", "cubic.json", "cusp.json"):
        cf = load(name)
        items = list(cf.factorizations)
        for left, right in product(items, repeat=2):
            h_even, h_odd = homology_dimensions(hom_complex(left, right))
            assert homology_dimensions(hom_complex(left, shift(right))) == (
                h_odd, h_even), (name, left.label, right.label)
