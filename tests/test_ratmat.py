from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfres import ratmat

_ENTRY = st.integers(-3, 3).map(Fraction)


@st.composite
def _subspace_and_vectors(draw):
    """A subspace of Q^d, d <= 6, spanned by up to d + 1 vectors (so the zero
    subspace and dependent spanning sets come up), and a few vectors of Q^d,
    among them the zero vector and a combination of the spanning set."""
    d = draw(st.integers(1, 6))
    vector = st.tuples(*[_ENTRY] * d)
    spanning = draw(st.lists(vector, max_size=d + 1))
    s = _ref_rref(spanning)[0]
    member = (Fraction(0),) * d
    for v in spanning:
        c = draw(_ENTRY)
        member = tuple(a + c * b for a, b in zip(member, v))
    return d, s, [(Fraction(0),) * d, member] + draw(st.lists(vector, max_size=4))


def _in_span(s, v) -> bool:
    """Membership by rank: adding v to a basis of s leaves the rank unchanged."""
    return len(_ref_rref(tuple(s) + (v,))[0]) == len(s)


class TestMembership:
    @given(_subspace_and_vectors())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_rank(self, case):
        d, s, vectors = case
        form = ratmat.canonical(s, d)
        for v in vectors:
            inside = _in_span(s, v)
            assert ratmat.leq(_ints((v,)), form) == inside
            assert ratmat.leq(_ints(_ref_rref([v])[0]), form) == inside
            remainder = _reduced(v, form)
            assert (not any(remainder)) == inside
            # the remainder differs from v by an element of s
            assert _in_span(s, tuple(a - b for a, b in zip(v, remainder)))
        assert ratmat.leq(_ints(_ref_rref(vectors)[0]), form) == all(
            _in_span(s, v) for v in vectors)


class TestCanonicalArguments:
    def test_non_canonical_subspace_refused(self):
        # ((1,1),(0,1)) spans Q^2 but is no RREF: read off its rows, (1,0)
        # would look outside it
        twisted = ((1, 1), (0, 1))
        with pytest.raises(ValueError):
            ratmat.canonical(twisted, 2)
        assert ratmat.leq([[1, 0]], ratmat.echelon(_ints(twisted)))

    def test_canonical_form_round_trips(self):
        rows = [(2, 4, Fraction(1, 3)), (0, 0, 5), (1, 2, 0)]
        s = _ref_rref(rows)[0]
        form = ratmat.canonical(s, 3)
        assert form == ([[1, 2, 0], [0, 0, 1]], [0, 2])
        assert ratmat.echelon(_ints(rows)) == form
        assert ratmat.fractions(form) == s


# ---------------------------------------------------------------------------
# the kernels against a plain Fraction Gauss-Jordan reference

def _ref_rref(rows):
    """Textbook Gauss-Jordan on Fractions: scale the pivot row to a leading
    one, clear the pivot column everywhere else, drop the zero rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = [i for i in range(r, len(work)) if work[i][c] != 0]
        if not found:
            continue
        work[r], work[found[0]] = work[found[0]], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r:
                work[i] = [x - work[i][c] * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in work[:len(pivots)]), tuple(pivots)


def _ref_nullspace(a, ncols):
    """One vector per free column: 1 there, minus the column above each pivot."""
    reduced, pivots = _ref_rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(ncols)]
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return tuple(basis)


def _ref_mat_mul(a, b):
    inner = len(b)
    width = len(b[0]) if b else 0
    return tuple(tuple(sum((Fraction(row[k]) * b[k][j] for k in range(inner)), Fraction(0))
                       for j in range(width)) for row in a)


def _ref_intersect(a, b, dim):
    """The meet from the relations c.A + d.B = 0: the vectors c.A, in RREF."""
    if not a or not b:
        return ()
    stacked_t = tuple(zip(*(tuple(a) + tuple(b))))
    meet = [tuple(sum((c * Fraction(x) for c, x in zip(rel, col)), Fraction(0))
                  for col in zip(*a))
            for rel in (r[:len(a)] for r in _ref_nullspace(stacked_t, len(a) + len(b)))]
    return _ref_rref([v for v in meet if any(v)])[0]


def _ref_reduce_mod(v, s):
    """v minus the element of s that agrees with v at every pivot of s."""
    out = [Fraction(x) for x in v]
    for row in s:
        p = next(i for i, x in enumerate(row) if x != 0)
        for i, x in enumerate(row):
            out[i] -= Fraction(v[p]) * x
    return tuple(out)


def _ref_identity(d):
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_LARGE = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                   st.integers(1, 10 ** 12))
_FRACTION = st.one_of(st.just(Fraction(0)), _SMALL, _LARGE)


@st.composite
def _rows(draw, entry, width=None):
    """0..5 rows of one width (0 included), with zero rows and
    duplicate rows mixed in."""
    width = draw(st.integers(0, 4)) if width is None else width
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         max_size=5))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * width)
    return tuple(tuple(row) for row in rows)


@st.composite
def _mixed_entry(draw):
    """A Fraction, or a plain int standing in for a whole one."""
    x = draw(_FRACTION)
    if x.denominator == 1 and draw(st.booleans()):
        return int(x)
    return x


def _with_ints(draw, rows):
    """The same matrix with some whole entries as plain ints."""
    return tuple(tuple(int(x) if x.denominator == 1 and draw(st.booleans()) else x
                       for x in row) for row in rows)


def _ints(rows):
    """Int rows of a matrix, for the core: the matrix over one common scale."""
    return ratmat.integral(rows)[0]


def _out(form):
    """An Echelon as the canonical Fraction subspace."""
    return ratmat.fractions(form)


def _reduced(v, form):
    """v modulo the subspace, as Fractions: its residue over the residue's
    scale and v's own."""
    (w,), den = ratmat.integral((v,))
    (out,), scale = ratmat.residues([w], form)
    return tuple(Fraction(x, den * scale) for x in out)


def _ref_transpose(rows, width):
    return tuple(tuple(row[c] for row in rows) for c in range(width))


_EXAMPLES = 60


class _Kernels:
    """Each kernel against its reference; ENTRY sets what the inputs hold."""

    ENTRY = _FRACTION

    def test_rref(self):
        @given(_rows(self.ENTRY))
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(rows):
            got = ratmat.rref(rows)
            assert got == _ref_rref(rows)
            assert _all_fractions(got[0])
        check()

    def test_nullspace(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            ncols = data.draw(st.integers(0, 4))
            a = data.draw(_rows(self.ENTRY, width=ncols))
            got = ratmat.nullspace(a, ncols)
            want = _ref_nullspace(a, ncols) if a else _ref_identity(ncols)
            assert got == want
            assert _all_fractions(got)
            if a:
                assert not any(any(row) for row in _ref_mat_mul(a, tuple(zip(*got))))
        check()

    def test_kernel_of(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            ncols = data.draw(st.integers(0, 4))
            a = data.draw(_rows(self.ENTRY, width=ncols))
            got = _out(ratmat.kernel(_ints(a), ncols))
            want = _ref_rref(_ref_nullspace(a, ncols))[0]
            assert got == want
            assert repr(got) == repr(want)
            assert _all_fractions(got)
        check()

    def test_image_of(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            width = data.draw(st.integers(0, 4))
            a = data.draw(_rows(self.ENTRY, width=width))
            want = _ref_rref(_ref_transpose(a, width))[0]
            got = _out(ratmat.image(_ints(a)))
            assert got == want
            assert _all_fractions(got)
        check()

    def test_preimage_in(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            d = data.draw(st.integers(1, 4))
            matrix = data.draw(_rows(self.ENTRY, width=d))
            rows = len(matrix)
            target = _ref_rref(data.draw(_rows(_FRACTION, width=rows)))[0]
            if matrix and data.draw(st.booleans()):  # hit the image more often
                cols = data.draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=2))
                target = _ref_rref(target + tuple(tuple(row[c] for row in matrix)
                                                  for c in cols))[0]
            if self.ENTRY is not _FRACTION:
                target = _with_ints(data.draw, target)
            got = _out(ratmat.preimage(_ints(matrix), ratmat.canonical(target, rows), d))
            # v with matrix v = t.target: the first d entries of the
            # nullspace of [matrix | -target^T]
            stacked = tuple(tuple(row) + tuple(-Fraction(t[i]) for t in target)
                            for i, row in enumerate(matrix))
            pulled = [v[:d] for v in _ref_nullspace(stacked, d + len(target))]
            want = _ref_rref([v for v in pulled if any(v)])[0]
            assert got == want
            assert _all_fractions(got)
        check()

    def test_mat_mul(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            inner = data.draw(st.integers(0, 4))
            a = data.draw(_rows(self.ENTRY, width=inner))
            row = st.tuples(*[self.ENTRY] * data.draw(st.integers(0, 4)))
            b = tuple(data.draw(st.lists(row, min_size=inner, max_size=inner)))
            got = ratmat.mat_mul(a, b)
            assert got == _ref_mat_mul(a, b)
            assert _all_fractions(got)
        check()

    def test_map_subspace(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            d = data.draw(st.integers(1, 4))
            s = _ref_rref(data.draw(_rows(_FRACTION, width=d)))[0]
            matrix = data.draw(_rows(self.ENTRY, width=d))
            if self.ENTRY is not _FRACTION:
                s = _with_ints(data.draw, s)
            got = _out(ratmat.echelon(ratmat.map(_ints(matrix), _ints(s))))
            moved = [tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0))
                           for row in matrix) for v in s]
            want = _ref_rref([v for v in moved if any(v)])[0]
            assert got == want
            assert _all_fractions(got)
        check()

    def test_subspace_intersect(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            d = data.draw(st.integers(1, 4))
            a = _ref_rref(data.draw(_rows(_FRACTION, width=d)))[0]
            b = _ref_rref(data.draw(_rows(_FRACTION, width=d)))[0]
            if data.draw(st.booleans()):  # make the meet nonzero more often
                b = _ref_rref(tuple(b) + a[:1])[0]
            if self.ENTRY is not _FRACTION:
                a, b = _with_ints(data.draw, a), _with_ints(data.draw, b)
            got = _out(ratmat.intersect(_ints(a), _ints(b), d))
            want = _ref_intersect(a, b, d)
            assert got == want
            assert got == _ref_rref(got)[0]  # canonical
            assert _all_fractions(got)
        check()

    def test_subspace_leq(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            d = data.draw(st.integers(1, 4))
            s = _ref_rref(data.draw(_rows(_FRACTION, width=d)))[0]
            vectors = data.draw(_rows(self.ENTRY, width=d))
            if s and data.draw(st.booleans()):  # inside more often
                vectors = tuple(tuple(Fraction(x) * c for x in s[-1])
                                for c in (1, Fraction(-3, 7))) + vectors[:1]
            if self.ENTRY is not _FRACTION:
                s = _with_ints(data.draw, s)
            want = len(_ref_rref(tuple(s) + vectors)[0]) == len(_ref_rref(s)[0])
            assert ratmat.leq(_ints(vectors), ratmat.canonical(s, d)) == want
        check()

    def test_reduce_mod(self):
        @given(st.data())
        @settings(max_examples=_EXAMPLES, deadline=None)
        def check(data):
            d = data.draw(st.integers(0, 4))
            s = _ref_rref(data.draw(_rows(_FRACTION, width=d)))[0]
            v = data.draw(st.tuples(*[self.ENTRY] * d))
            if self.ENTRY is not _FRACTION:
                s = _with_ints(data.draw, s)
            form = ratmat.canonical(s, d)
            got = _reduced(v, form)
            assert got == _ref_reduce_mod(v, s)
            assert all(type(x) is Fraction for x in got)
            # several vectors at once share one scale
            vectors = (v,) + data.draw(_rows(self.ENTRY, width=d))
            ints, den = ratmat.integral(vectors)
            residues, scale = ratmat.residues(ints, form)
            assert [tuple(Fraction(x, den * scale) for x in w) for w in residues] == [
                _ref_reduce_mod(u, s) for u in vectors]
        check()


class TestKernelsOnFractions(_Kernels):
    ENTRY = _FRACTION


class TestKernelsWithIntEntries(_Kernels):
    ENTRY = _mixed_entry()
