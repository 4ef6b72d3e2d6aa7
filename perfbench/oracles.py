"""Expected values computed without mfres, from the input parameters alone.

Every check the benchmark makes on an engine output comes from here or from
a property the method guarantees; nothing is compared with a stored copy of
an earlier run.
"""

from __future__ import annotations

from math import prod


def one_variable_ext(d: int, k: int, l: int) -> int:
    """dim of each stable Ext between (x^k, x^(d-k)) and (x^l, x^(d-l)) for x^d.

    Both parities are Q[x]/(x^m) with m = min(k, l, d - k, d - l).
    """
    return min(k, l, d - k, d - l)


def koszul_homology(degrees, left, right) -> tuple[int, int]:
    """(h_even, h_odd) of Hom between two Koszul factorizations.

    Kuenneth over Q: each one-variable factor has equal even and odd
    homology m_i, so both parities of the tensor product are
    2^(n-1) * prod(m_i).
    """
    ms = [one_variable_ext(d, k, l) for d, k, l in zip(degrees, left, right)]
    h = 2 ** (len(degrees) - 1) * prod(ms)
    return h, h


def direct_sum_homology(degrees, left_summands, right_summands) -> tuple[int, int]:
    """Hom of direct sums is the direct sum of the Hom of each pair of summands;
    a constant change of basis on either side does not change it."""
    even = odd = 0
    for left in left_summands:
        for right in right_summands:
            e, o = koszul_homology(degrees, left, right)
            even, odd = even + e, odd + o
    return even, odd


def hrr_sign(nvars: int) -> int:
    """(-1)^C(n, 2): chi = sign * res(ch ch') in n variables."""
    return -1 if (nvars * (nvars - 1) // 2) % 2 else 1


def weight_graded(blocks, center: int) -> dict[int, int]:
    """Gr_k dimensions: a Jordan block of size s carries the weights
    center - (s - 1), center - (s - 3), ..., center + (s - 1), one each."""
    out: dict[int, int] = {}
    for s in blocks:
        for w in range(center - (s - 1), center + s, 2):
            out[w] = out.get(w, 0) + 1
    return out


def primitive_dims(blocks, offsets) -> dict[int, int]:
    """Primitive dimension at offset l: the number of blocks of size l + 1."""
    return {l: sum(1 for s in blocks if s == l + 1) for l in offsets}


def check_filtration(blocks, center, nilpotency_index, graded: dict[int, int],
                     primitive: dict[int, int], shift_ok: bool, iso_ok: bool) -> list[str]:
    """Differences between a weight filtration report and the Jordan type;
    empty when they agree."""
    problems = []
    e = max(blocks)
    if nilpotency_index != e:
        problems.append(f"nilpotency index {nilpotency_index}, expected {e}")
    want = weight_graded(blocks, center)
    got = {k: v for k, v in graded.items() if v}
    if got != want:
        problems.append(f"graded {got}, expected {want}")
    want_prim = primitive_dims(blocks, primitive)
    if primitive != want_prim:
        problems.append(f"primitive {primitive}, expected {want_prim}")
    if not (shift_ok and iso_ok):
        problems.append(f"axioms shift_ok={shift_ok} iso_ok={iso_ok}")
    return problems
