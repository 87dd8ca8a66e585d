"""The array simplex against the list-of-lists oracle of tests/helpers.py,
on hypothesis systems whose entries are small, or near or past the int64
bound, and the int64 path checked where it is taken and where it is left.
hypothesis serves only as a test-only generator."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from addcomb import model, simplex
from addcomb.realization import realize_lp
from addcomb.simplex import feasible_point
from helpers import list_feasible_point, satisfied

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def systems(draw):
    """A system over 1..6 variables: half the time planted on a rational
    point (every row oriented to hold there), otherwise free rows that may
    well be infeasible. Entries are small, or near or past the int64 bound,
    or just below it, where a tableau leaves int64 in the middle of a run."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.integers(-4, 4),
        st.integers(-4, 4),
        st.sampled_from([2**31 - 1, 2**31, -(2**31), 2**40, -(2**62), 2**70]),
        st.integers(-(2**24), 2**24),
        # below the bound, so the tableau starts int64, and leaves it at a pivot
        st.integers(2**29, 2**31 - 1),
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


def _spy_pivots(monkeypatch) -> list:
    """Patch simplex._pivot to record the dtype of every tableau it returns."""
    dtypes = []
    pivot = simplex._pivot

    def spy(*args):
        T, top = pivot(*args)
        dtypes.append(T.dtype)
        return T, top

    monkeypatch.setattr(simplex, "_pivot", spy)
    return dtypes


def test_the_object_path_is_taken_mid_run(monkeypatch):
    # every input entry is below 2^31, so the tableaux start as int64; the
    # first elimination pivot makes entries near 2^60
    dtypes = _spy_pivots(monkeypatch)
    eqs = [(2**30 + 1, 3, -5)]
    ineqs = [(7, 2**30 - 1, 1), (1, -1, 2**30 + 3), (-2, 1, 1)]
    result = feasible_point(eqs, ineqs, 3)
    assert result == list_feasible_point(eqs, ineqs, 3)
    assert dtypes[0] == object and result[0] is not None


def test_the_realize_suite_stays_in_int64(monkeypatch):
    # README: the lp calls of realize-suite seed 1 never leave int64. The
    # first of its suites is checked here: 25 sets under 4 forms
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    dtypes = _spy_pivots(monkeypatch)
    sets = workloads.suite_sets(random.Random(1), model)
    for A in sets:
        for coeffs in workloads.SUITE_FORMS:
            realize_lp(A, model.LinearForm(coeffs))
    assert dtypes and set(dtypes) == {np.dtype(np.int64)}
