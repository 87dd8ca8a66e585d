"""The array simplex against the list-of-lists oracle of tests/helpers.py,
on hypothesis systems whose entries are small, or near or past the int64
bound. hypothesis serves only as a test-only generator."""

from fractions import Fraction

import pytest

from addcomb.simplex import feasible_point
from helpers import list_feasible_point, satisfied

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def systems(draw):
    """A system over 1..6 variables: half the time planted on a rational
    point (every row oriented to hold there), otherwise free rows that may
    well be infeasible. Entries are small, or near or past the int64 bound."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.sampled_from([2**31 - 1, 2**31, -(2**31), 2**40, -(2**62), 2**70]),
        st.integers(-(2**24), 2**24),
    )
    rows = st.lists(st.tuples(*[entry] * n), max_size=8)
    if draw(st.booleans()):
        return draw(st.lists(st.tuples(*[entry] * n), max_size=2)), draw(rows), n
    target = [Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4))) for _ in range(n)]
    eqs, ineqs = [], []
    for row in draw(rows):
        v = sum(c * x for c, x in zip(row, target))
        if v == 0:
            eqs.append(row)
        else:
            ineqs.append(row if v > 0 else tuple(-c for c in row))
    return eqs, ineqs, n


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(systems())
def test_array_simplex_matches_the_list_oracle(system):
    eqs, ineqs, n = system
    t, stats = feasible_point(eqs, ineqs, n)
    assert (t, stats) == list_feasible_point(eqs, ineqs, n)
    if t is not None:
        assert satisfied(eqs, ineqs, t)
