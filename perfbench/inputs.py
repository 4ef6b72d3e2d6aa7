"""Seeded inputs for the benchmark, in plain Python data.

Nothing here imports mfres: the same data feed the oracles, which must share
no code with the engine. A polynomial is a dict {exponent tuple: int}, a
matrix is a list of rows. workloads.py converts these to mfres objects.
"""

from __future__ import annotations

import random


# ---------------------------------------------------------------------------
# plain polynomials and matrices with integer coefficients

def p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_scale(a: dict, c: int) -> dict:
    return {e: c * v for e, v in a.items()} if c else {}


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def monomial(nvars: int, var: int, power: int, coeff: int = 1) -> dict:
    return {tuple(power if i == var else 0 for i in range(nvars)): coeff}


def mat_mul(a: list, b: list) -> list:
    return [[_dot(row, [r[j] for r in b]) for j in range(len(b[0]))] for row in a]


def _dot(xs, ys) -> dict:
    acc: dict = {}
    for x, y in zip(xs, ys):
        if x and y:
            acc = p_add(acc, p_mul(x, y))
    return acc


def scalar_matrix(p: dict, n: int) -> list:
    return [[dict(p) if i == j else {} for j in range(n)] for i in range(n)]


def constant_matrix(rows: list, nvars: int) -> list:
    """Integer matrix as a matrix of constant polynomials."""
    zero = (0,) * nvars
    return [[{zero: v} if v else {} for v in row] for row in rows]


def _kron(a: list, b: list) -> list:
    """Kronecker product of polynomial matrices: block (i, j) is a[i][j] * b."""
    return [[p_mul(a[i][j], b[k][l]) for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def _blocks(tl, tr, bl, br) -> list:
    return [x + y for x, y in zip(tl, tr)] + [x + y for x, y in zip(bl, br)]


def _neg(m: list) -> list:
    return [[p_scale(p, -1) for p in row] for row in m]


def direct_sum(a: list, b: list) -> list:
    za = [[{} for _ in b[0]] for _ in a]
    zb = [[{} for _ in a[0]] for _ in b]
    return _blocks(a, za, zb, b)


# ---------------------------------------------------------------------------
# Koszul factorizations of Brieskorn-Pham potentials

def potential(degrees: list[int]) -> dict:
    """sum_i x_i^(d_i)."""
    n = len(degrees)
    f: dict = {}
    for i, d in enumerate(degrees):
        f = p_add(f, monomial(n, i, d))
    return f


def tensor(x: tuple, y: tuple, nvars: int) -> tuple:
    """Tensor product of factorizations (A1, B1) and (A2, B2).

    With even part P0Q0 + P1Q1 and odd part P1Q0 + P0Q1,

        A = [[A1 (x) I, I (x) A2], [-I (x) B2, B1 (x) I]]
        B = [[B1 (x) I, -I (x) A2], [I (x) B2, A1 (x) I]]

    so A B = B A = (f1 + f2) I.
    """
    a1, b1 = x
    a2, b2 = y
    one = {(0,) * nvars: 1}
    i1 = scalar_matrix(one, len(a1))
    i2 = scalar_matrix(one, len(a2))
    a = _blocks(_kron(a1, i2), _kron(i1, a2), _neg(_kron(i1, b2)), _kron(b1, i2))
    b = _blocks(_kron(b1, i2), _neg(_kron(i1, a2)), _kron(i1, b2), _kron(a1, i2))
    return a, b


def koszul(degrees: list[int], splits: list[int]) -> tuple:
    """Tensor product of the one-variable factorizations (x_i^k_i, x_i^(d_i - k_i))."""
    n = len(degrees)
    out = None
    for i, (d, k) in enumerate(zip(degrees, splits)):
        one_var = ([[monomial(n, i, k)]], [[monomial(n, i, d - k)]])
        out = one_var if out is None else tensor(out, one_var, n)
    return out


def unimodular(rng: random.Random, n: int, positions) -> tuple[list, list]:
    """A random integer matrix g with det +-1 and its exact inverse.

    g = E_k ... E_1, where E_t adds c_t times row j_t to row i_t for the
    given positions (i_t, j_t) and c_t is drawn from -2..2 without 0.
    """
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    # the inverse E_1^-1 ... E_k^-1 is built by column operations on I
    for i, j in positions:
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in inv:
            row[j] -= c * row[i]
    return g, inv


def random_positions(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """`count` random (target row, source row) pairs for unimodular()."""
    return [tuple(rng.sample(range(n), 2)) for _ in range(count)]


# ---------------------------------------------------------------------------
# workload input generators

def koszul_pair(rng: random.Random, nvars: int) -> dict:
    """Two Koszul factorizations of one potential sum x_i^(d_i), d_i in 3..5."""
    degrees = [rng.randint(3, 5) for _ in range(nvars)]
    left = [rng.randint(1, d - 1) for d in degrees]
    right = [rng.randint(1, d - 1) for d in degrees]
    return {"degrees": degrees, "left": [left], "right": [right]}


def mixed_pair(rng: random.Random, degrees, left, right) -> dict:
    """Direct sums of Koszul factorizations of sum x_i^(d_i), with splits
    `left` and `right` (one list per summand), and each side's matrices
    replaced by g A h^-1 and h B g^-1 for random unimodular g and h."""
    rank = len(left) * 2 ** (len(degrees) - 1)
    # row i += c * row (i + 1) for every i: g is bidiagonal and g^-1 upper
    # triangular, the same shape every time. Under randomly placed row
    # operations one pair's cost varies by a factor of ten.
    chain = [(i, i + 1) for i in range(rank - 1)]
    spec = {"degrees": list(degrees), "left": left, "right": right}
    for side in ("left", "right"):
        spec[side + "_basis"] = (unimodular(rng, rank, chain), unimodular(rng, rank, chain))
    return spec


def factorization(spec: dict, side: str) -> tuple:
    """(A, B) for one side of a pair spec, with its change of basis if any."""
    summands = [koszul(spec["degrees"], splits) for splits in spec[side]]
    a, b = summands[0]
    for a2, b2 in summands[1:]:
        a, b = direct_sum(a, a2), direct_sum(b, b2)
    basis = spec.get(side + "_basis")
    if basis is not None:
        nv = len(spec["degrees"])
        (g, g_inv), (h, h_inv) = basis
        g, g_inv = constant_matrix(g, nv), constant_matrix(g_inv, nv)
        h, h_inv = constant_matrix(h, nv), constant_matrix(h_inv, nv)
        a = mat_mul(mat_mul(g, a), h_inv)
        b = mat_mul(mat_mul(h, b), g_inv)
    return a, b


def partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing lists."""
    largest = n if largest is None else largest
    if n == 0:
        yield []
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


def jordan_types(low: int = 4, high: int = 8) -> list[list[int]]:
    """Every Jordan type of dimension low..high with a block of size > 1."""
    return [p for n in range(low, high + 1) for p in partitions(n) if p[0] > 1]


def nilpotent(rng: random.Random, blocks: list[int]) -> list:
    """P J P^-1 for the Jordan nilpotent J of the given block sizes and a
    random unimodular P, so the matrix stays integral."""
    n = sum(blocks)
    j = [[0] * n for _ in range(n)]
    start = 0
    for s in blocks:
        for i in range(start, start + s - 1):
            j[i][i + 1] = 1
        start += s
    p, p_inv = unimodular(rng, n, random_positions(rng, n, n))
    return _int_mat_mul(_int_mat_mul(p, j), p_inv)


def _int_mat_mul(a: list, b: list) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def filtration_case(rng: random.Random, blocks: list[int]) -> dict:
    """A nilpotent of the given Jordan type under a seeded change of basis,
    with a center in -2..2."""
    return {"blocks": list(blocks), "matrix": nilpotent(rng, blocks),
            "center": rng.randint(-2, 2)}
