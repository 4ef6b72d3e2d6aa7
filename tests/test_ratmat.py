from __future__ import annotations

from fractions import Fraction

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
    s = ratmat.span(spanning, d)
    member = ratmat.zero_vector(d)
    for v in spanning:
        c = draw(_ENTRY)
        member = tuple(a + c * b for a, b in zip(member, v))
    return d, s, [ratmat.zero_vector(d), member] + draw(st.lists(vector, max_size=4))


def _in_span(s, v) -> bool:
    """Membership by rank: adding v to a basis of s leaves the rank unchanged."""
    return len(ratmat.rref(tuple(s) + (v,))[0]) == len(s)


class TestMembership:
    @given(_subspace_and_vectors())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_rank(self, case):
        d, s, vectors = case
        for v in vectors:
            inside = _in_span(s, v)
            assert ratmat.contains_vector(s, v) == inside
            assert ratmat.subspace_leq(ratmat.span([v], d), s) == inside
            remainder = ratmat.reduce_mod(v, s)
            assert (not any(remainder)) == inside
            # the remainder differs from v by an element of s
            assert _in_span(s, tuple(a - b for a, b in zip(v, remainder)))
        assert ratmat.subspace_leq(ratmat.span(vectors, d), s) == all(
            _in_span(s, v) for v in vectors)
