from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from mfres import (
    MatrixFactorization,
    ModulePresentation,
    FreeModuleElement,
    PolyMatrix,
    Polynomial,
    parse_polynomial,
)
from mfres import ratmat

XY = ("x", "y")
XYZ = ("x", "y", "z")


def poly(text: str, variables=XY):
    return parse_polynomial(text, variables)


def matrix(rows, variables=XY) -> PolyMatrix:
    return PolyMatrix.from_rows(
        [[parse_polynomial(e, variables) for e in row] for row in rows])


def sparse_to_matrix(d) -> PolyMatrix:
    """The PolyMatrix a SparseColumns differential stands for."""
    terms = [[{} for _ in range(d.cols)] for _ in range(d.rows)]
    for j, column in enumerate(d.columns):
        for (i, e), c in column.items():
            terms[i][j][e] = Fraction(c, d.den)
    return PolyMatrix(d.rows, d.cols, tuple(Polynomial(d.ring, t) for row in terms for t in row))


def adjugate(m: PolyMatrix) -> PolyMatrix:
    """Classical adjugate by cofactors: m @ adjugate(m) == det(m) * identity."""
    n = m.rows
    if n == 1:
        return PolyMatrix(1, 1, (Polynomial.one(m.ring),))
    out = []
    for i in range(n):
        for j in range(n):
            cof = PolyMatrix.from_rows([[m.entry(r, c) for c in range(n) if c != i]
                                        for r in range(n) if r != j]).determinant()
            out.append(cof if (i + j) % 2 == 0 else -cof)
    return PolyMatrix(n, n, tuple(out))


def entrywise(op, m: PolyMatrix, n: PolyMatrix) -> PolyMatrix:
    """op (operator.add or operator.sub) on the entries of two matrices of one shape."""
    assert (m.rows, m.cols) == (n.rows, n.cols)
    return PolyMatrix(m.rows, m.cols, tuple(map(op, m.entries, n.entries)))


def is_zero_matrix(m: PolyMatrix) -> bool:
    return not any(m.entries)


def scalar_columns(f: Polynomial, n: int) -> list[FreeModuleElement]:
    """The columns f e_i of f I_n."""
    zero = Polynomial.zero(f.ring)
    return [FreeModuleElement(tuple(f if k == i else zero for k in range(n))) for i in range(n)]


def make_mf(potential: str, a_rows, b_rows, variables=XY,
            label: str = "") -> MatrixFactorization:
    return MatrixFactorization(
        potential=parse_polynomial(potential, variables),
        A=matrix(a_rows, variables),
        B=matrix(b_rows, variables),
        label=label)


def make_module(potential: str, relations, ambient_rank: int = 1,
                variables=XY, label: str = "") -> ModulePresentation:
    rels = tuple(
        FreeModuleElement(tuple(parse_polynomial(c, variables) for c in gen))
        for gen in relations)
    return ModulePresentation(ambient_rank=ambient_rank, relations=rels,
                              potential=parse_polynomial(potential, variables),
                              label=label)


def koszul_rank4(a, b):
    """Tensor product of the one-variable factorizations (a_i, b_i), i = 1..3:
    A = [[A1, a3 I], [-b3 I, B1]], B = [[B1, -a3 I], [b3 I, A1]] on top of
    A1 = [[a1, a2], [-b2, b1]], B1 = [[b1, -a2], [b2, a1]]."""
    (a1, a2, a3), (b1, b2, b3) = a, b
    A1 = [[a1, a2], [f"-{b2}", b1]]
    B1 = [[b1, f"-{a2}"], [b2, a1]]
    A = [A1[0] + [a3, "0"], A1[1] + ["0", a3],
         [f"-{b3}", "0"] + B1[0], ["0", f"-{b3}"] + B1[1]]
    B = [B1[0] + [f"-{a3}", "0"], B1[1] + ["0", f"-{a3}"],
         [b3, "0"] + A1[0], ["0", b3] + A1[1]]
    return make_mf("x^3 + y^3 + z^3", A, B, variables=XYZ)


# ---- Jordan form helpers shared by the filtration tests ----


def jordan_matrix(partition) -> ratmat.Matrix:
    """Block diagonal nilpotent with one shift block per part."""
    n = sum(partition)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for size in partition:
        for i in range(size - 1):
            rows[offset + i][offset + i + 1] = Fraction(1)
        offset += size
    return tuple(tuple(row) for row in rows)


def jordan_graded_oracle(partition, center: int) -> dict[int, int]:
    """Graded dimensions a block of size s forces: one in each weight
    center + s - 1, center + s - 3, ..., center - s + 1."""
    counts: dict[int, int] = {}
    nilpotency = max(partition)
    for k in range(center - nilpotency, center + nilpotency + 1):
        counts[k] = 0
    for size in partition:
        for l in range(size - 1, -size, -2):
            counts[center + l] += 1
    return counts


def random_partition(rng: random.Random, max_total: int):
    total = rng.randint(1, max_total)
    parts = []
    while total > 0:
        part = rng.randint(1, total)
        parts.append(part)
        total -= part
    return tuple(sorted(parts, reverse=True))


def identity(n: int) -> ratmat.Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matrix_powers(mat: ratmat.Matrix, e: int) -> list[ratmat.Matrix]:
    """N^0, ..., N^e as Fraction products."""
    powers = [identity(len(mat))]
    for _ in range(e):
        powers.append(ratmat.mat_mul(powers[-1], mat))
    return powers


def invert_matrix(mat: ratmat.Matrix) -> ratmat.Matrix:
    n = len(mat)
    augmented = tuple(tuple(row) + identity(n)[i]
                      for i, row in enumerate(mat))
    reduced, pivots = ratmat.rref(augmented)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is not invertible")
    return tuple(row[n:] for row in reduced)


def random_invertible(rng: random.Random, n: int) -> ratmat.Matrix:
    """Product of a few elementary row additions; always unimodular."""
    rows = [list(row) for row in identity(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return tuple(tuple(row) for row in rows)


def intertwiner_basis(n_mat: ratmat.Matrix,
                      n_prime_mat: ratmat.Matrix) -> list[ratmat.Matrix]:
    """Basis of { g : g . N = N' . g }, as matrices mapping the space of N
    into the space of N'. Solved as the nullspace of the linear map
    g |-> g N - N' g on entries."""
    n = len(n_mat)
    n_prime = len(n_prime_mat)
    rows = []
    for i in range(n_prime):
        for j in range(n):
            row = [Fraction(0)] * (n_prime * n)
            for k in range(n):
                row[i * n + k] += n_mat[k][j]
            for k in range(n_prime):
                row[k * n + j] -= n_prime_mat[i][k]
            rows.append(tuple(row))
    solutions = ratmat.nullspace(tuple(rows), n_prime * n)
    return [tuple(tuple(vec[i * n + j] for j in range(n))
                  for i in range(n_prime))
            for vec in solutions]


# ---- acceptance reporting ----
#
# Each acceptance criterion lives in one test named test_criterion_<k>_* in
# test_acceptance.py; the terminal summary prints one PASS/FAIL line per
# criterion so the verdicts survive output capturing.

ACCEPTANCE_DESCRIPTIONS = {
    1: "index identity on every ordered pair, each two variable potential",
    2: "anchor values re-derived by independent oracles",
    3: "euler gram PSD and chi(a, a) >= 0 iff class test on random combos",
    4: "theta suite: node kernel, even dimension vanishing, duality, bridge",
    5: "trace form lemma on corpus and random adjugate factorizations",
    6: "weight filtration axioms, uniqueness, naturality",
    7: "order independence and homology invariances",
}

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            found = _ACCEPTANCE_PATTERN.search(nodeid)
            if not found:
                continue
            k = int(found.group(1))
            verdict = "PASS" if status == "passed" else "FAIL"
            if outcomes.get(k) != "FAIL":
                outcomes[k] = verdict
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(outcomes):
        description = ACCEPTANCE_DESCRIPTIONS.get(k, "criterion")
        terminalreporter.write_line(f"{outcomes[k]} criterion {k}: {description}")


@pytest.fixture
def node_mf():
    return make_mf("x*y", [["x"]], [["y"]], label="N1")


@pytest.fixture
def cusp_mf():
    rows = [["y", "x"], ["x^2", "-y"]]
    return make_mf("x^3 + y^2", rows, rows, label="K")


@pytest.fixture
def cubic_mf():
    return make_mf("x^3 + y^3", [["x + y"]], [["x^2 - x*y + y^2"]], label="C1")


@pytest.fixture
def plane_mf():
    rows = [["x", "y"], ["y", "-x"]]
    return make_mf("x^2 + y^2", rows, rows, label="S")


@pytest.fixture
def clifford_mf():
    rows = [["x", "y"], ["z", "-x"]]
    return make_mf("x^2 + y*z", rows, rows, variables=XYZ, label="CL")
