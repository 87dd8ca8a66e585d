"""The dtype of the key tables and the verdicts on both dtypes.

``model.value_table`` builds an int64 column while sum|c_j| * max|x| is
below 2^63 and a dtype=object one from there on. On both, the certificate,
its witness and the induced pairs must be those of the coincidence walks in
``tests/helpers.py``, which never read a key array.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from addcomb import images, realize
from addcomb.isomorphism import SetBijection, induced_bijection, is_phi_isomorphism
from addcomb.model import DIFFERENCE_FORM, SUM_FORM, FiniteSet, LinearForm, value_table
from helpers import (
    BASIS_SQRT2,
    key_list,
    naive_values,
    value_induced_bijection,
    value_walk,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOP = 2**63


@pytest.mark.parametrize(
    "form, top",
    [
        (LinearForm((1,)), TOP - 1),
        (SUM_FORM, TOP // 2 - 1),
        (LinearForm((2, -3, 1)), (TOP - 1) // 6),
    ],
)
def test_columns_below_the_bound_stay_int64_and_at_it_become_object(form, top):
    bound = sum(map(abs, form.coeffs))
    assert bound * top < TOP <= bound * (top + 1)
    for column, dtype in (([0, -top, 5], np.int64), ([0, 7, -(top + 1)], object)):
        table = value_table(form, column)
        assert table.dtype == dtype, column
        assert table.tolist() == naive_values(form.coeffs, column)
        assert all(type(v) is int for v in table.tolist())


def _cases(elements):
    """The group route's pairing (an isomorphism), a pairing by order onto a
    progression (a homomorphism at most) and a shuffled one."""
    A = FiniteSet(elements)
    k = len(A)
    yield realize(A, SUM_FORM, "group").mapping
    yield SetBijection.by_order(A, FiniteSet(range(k)))
    yield SetBijection(A, FiniteSet(range(0, 3 * k, 3)), tuple(reversed(range(k))))


def _sqrt2(a, b):
    return BASIS_SQRT2.element((a, b))


#: (elements, the dtype of their sum table): the sum form's bound is
#: 2 * max|x| over the cleared columns (the halves double them), just
#: below 2^63 or at it, over one integer column or two
BOUNDARY_SETS = [
    ([0, 1, 3, 2**62 - 1], np.int64),
    ([0, 1, 3, 2**62], object),
    ([-(2**61) + 1, 5, Fraction(1, 2)], np.int64),
    ([2**61, 5, Fraction(1, 2)], object),
    ([_sqrt2(0, 0), _sqrt2(1, 0), _sqrt2(0, 1), _sqrt2(2**62 - 1, 1)], np.int64),
    ([_sqrt2(0, 0), _sqrt2(1, 0), _sqrt2(0, 1), _sqrt2(2**62, 1)], object),
]


@pytest.mark.parametrize("elements, dtype", BOUNDARY_SETS)
def test_verdicts_witnesses_and_induced_pairs_on_both_dtypes(elements, dtype):
    A = FiniteSet(elements)
    assert images.form_keys(SUM_FORM, A.elements)[0].dtype == dtype
    isos = 0
    for f in _cases(elements):
        for form in (SUM_FORM, DIFFERENCE_FORM):
            verdict = is_phi_isomorphism(form, f)
            assert verdict == value_walk(form, f)[0]
            fresh = SetBijection(f.domain, f.codomain, f.perm)
            assert is_phi_isomorphism(form, fresh) == verdict
            if verdict.is_isomorphism:
                isos += 1
                want = value_induced_bijection(form, f).pairs
                assert induced_bijection(form, f).pairs == want
                assert repr(induced_bijection(form, fresh).pairs) == repr(want)
            else:
                with pytest.raises(ValueError, match="not an isomorphism"):
                    induced_bijection(form, f)
    assert isos >= 2


@pytest.mark.parametrize(
    "elements",
    [
        [0, Fraction(1, 2**63)],
        [0, Fraction(5, 3**40), Fraction(-2, 3**40), Fraction(9, 3**40)],
        [_sqrt2(0, 0), _sqrt2(Fraction(1, 2**63), 0), _sqrt2(0, Fraction(3, 2**63))],
    ],
)
def test_scales_past_int64_decode_exactly(elements):
    """Denominators that clear to a scale of 2^63 or more, with int64
    keys: the image, its multiplicities and the induced pairs are the exact
    values of the walks."""
    A = FiniteSet(elements)
    keys, scale = images.form_keys(SUM_FORM, A.elements)
    assert keys.dtype == np.int64 and scale >= TOP
    report = images.form_image(SUM_FORM, A)
    values = naive_values(SUM_FORM.coeffs, list(A.elements))
    assert list(report.image.elements) == sorted(set(values))
    assert dict(report.multiplicities) == {x: values.count(x) for x in set(values)}
    for f in _cases(elements):
        if value_walk(SUM_FORM, f)[0].is_isomorphism:
            want = value_induced_bijection(SUM_FORM, f).pairs
            assert repr(induced_bijection(SUM_FORM, f).pairs) == repr(want)


def _dict_runs(keys: list) -> tuple[list, list, list]:
    """key_runs' three lists by a plain dict walk over the keys."""
    index: dict = {}
    for pos, key in enumerate(keys):
        index.setdefault(key, []).append(pos)
    label = {key: j for j, key in enumerate(index)}
    return [p[0] for p in index.values()], [len(p) for p in index.values()], [label[k] for k in keys]


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 9, images.SMALL_TABLE, images.SMALL_TABLE + 1, 700])
@pytest.mark.parametrize("spread", [3, 2**40, 2**62, 2**70])
def test_key_runs_matches_a_dict_walk(rows, n, spread):
    """Every path of key_runs (the dict of a small table; above it, one row
    sorted as it is, or several rows packed into one int64 row, or into
    one of Python ints where the product of their spans reaches 2^63 or
    the table is dtype=object) gives the dict walk's first-seen runs."""
    rng = np.random.default_rng(rows * n + spread % 97)
    picks = rng.integers(0, 12, size=(rows, n)).tolist()
    # few distinct entries per row, spread far apart: keys repeat, and
    # with a large spread the radices of several rows pass 2^63
    values = [[(p - 6) * spread // 6 for p in row] for row in picks]
    table = np.array(values, dtype=object if spread > 2**62 else np.int64)
    first, counts, run = images.key_runs(table)
    want = _dict_runs(key_list(table))
    assert (first.tolist(), counts.tolist(), run.tolist()) == want


def _spanned_table(ranges, n, seed):
    """An int64 table of n columns whose rows hold few distinct entries,
    each row's least and greatest among them: ranges gives the (low, high)
    of every row."""
    rng = np.random.default_rng(seed)
    rows = []
    for low, high in ranges:
        pool = sorted({low, high, low + (high - low) // 3, high - (high - low) // 5})
        row = [pool[i] for i in rng.integers(0, len(pool), size=n).tolist()]
        row[:2] = [low, high]
        rows.append(row)
    return np.array(rows, dtype=np.int64)


#: (row ranges, dtype of the packed row): span products just below 2^63
#: and at it, over two and three rows, negative ranges, constant rows and
#: the int64 extremes
PACKED_CASES = {
    "product-2^63-1": ([(-3, 3), (-(2**62), -(2**62) + (2**63 - 1) // 7 - 1)], np.int64),
    "product-2^63": ([(5, 6), (-(2**61), 2**61 - 1)], object),
    "three-below-2^63": (
        [(-(2**20), 2**20 - 1), (0, 2**21 - 1), (-(2**62), -(2**62) + 2**21 - 2)], np.int64
    ),
    "three-at-2^63": (
        [(-(2**20), 2**20 - 1), (0, 2**21 - 1), (-(2**62), -(2**62) + 2**21 - 1)], object
    ),
    "negative": ([(-(2**62), -(2**62) + 10), (-100, -90), (-7, -1)], np.int64),
    "constant-row": ([(7, 7), (-5, 5)], np.int64),
    "constant-table": ([(7, 7), (-1, -1), (2**62, 2**62)], np.int64),
    "int64-extremes": ([(-(2**63), 2**63 - 1), (0, 1)], object),
}


@pytest.mark.parametrize("case", PACKED_CASES)
@pytest.mark.parametrize("n", [images.SMALL_TABLE + 1, 700])
def test_key_runs_packs_rows_exactly_below_and_at_2_63(case, n):
    """Several int64 rows pack into one int64 row while the product of the
    row spans is below 2^63 and into one of Python ints from 2^63 on, and
    key_runs on that row gives the dict walk's runs."""
    ranges, dtype = PACKED_CASES[case]
    assert (math.prod(high - low + 1 for low, high in ranges) < TOP) == (dtype is np.int64)
    table = _spanned_table(ranges, n, seed=n)
    row = images._packed_row(table)
    assert row.dtype == dtype
    if dtype is object:
        assert all(type(v) is int for v in row.tolist())
    first, counts, run = images.key_runs(table)
    assert first.dtype == counts.dtype == run.dtype == np.intp
    assert (first.tolist(), counts.tolist(), run.tolist()) == _dict_runs(key_list(table))


#: an entry of a few-valued table: small, anywhere in int64, or past it
_entries = st.sampled_from(
    [st.integers(-50, 50), st.integers(-(2**63), 2**63 - 1), st.integers(-(2**70), 2**70)]
)


@st.composite
def few_valued_tables(draw):
    """1 to 4 rows, each drawing its columns from 1 to 3 values, so equal
    keys abound; dtype=object when an entry needs it, or by choice."""
    entry = draw(_entries)
    height = draw(st.integers(1, 4))
    pools = [draw(st.lists(entry, min_size=1, max_size=3, unique=True)) for _ in range(height)]
    n = draw(st.integers(1, 4 * images.SMALL_TABLE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[pool[i] for i in rng.integers(0, len(pool), size=n).tolist()] for pool in pools]
    fits = all(-(2**63) <= v < 2**63 for pool in pools for v in pool)
    return np.array(rows, dtype=np.int64 if fits and draw(st.booleans()) else object)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(few_valued_tables())
def test_key_runs_is_the_dict_walk_on_few_valued_tables(table):
    """An unstable sort permutes equal keys, and here most keys are equal:
    key_runs must still give the dict walk's first-seen runs."""
    first, counts, run = images.key_runs(table)
    assert (first.tolist(), counts.tolist(), run.tolist()) == _dict_runs(key_list(table))


def test_the_first_certify_ops_build_no_object_table(monkeypatch):
    """A spy on images.value_table over the first 240 certify ops of seed 1,
    as the benchmark runs them: every table is int64."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import Certify

    dtypes = []
    real = images.value_table

    def spy(form, elements):
        table = real(form, elements)
        dtypes.append(table.dtype)
        return table

    workload = Certify(1)
    monkeypatch.setattr(images, "value_table", spy)
    for op in workload.ops[:240]:
        workload.run(op)
    assert len(dtypes) >= 480
    assert set(dtypes) == {np.dtype(np.int64)}


def test_the_first_certify_ops_pack_rows_only_into_int64(monkeypatch):
    """A spy on images._packed_row over the first 240 certify ops of seed
    1, as the benchmark runs them: every table of several rows that
    key_runs sorts is packed into an int64 row, never into Python ints."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import Certify

    dtypes = []
    real = images._packed_row

    def spy(table):
        row = real(table)
        if len(table) > 1:
            dtypes.append(row.dtype)
        return row

    workload = Certify(1)
    monkeypatch.setattr(images, "_packed_row", spy)
    for op in workload.ops[:240]:
        workload.run(op)
    assert len(dtypes) >= 80
    assert set(dtypes) == {np.dtype(np.int64)}
