"""model.key_order against sympy at 60 digits, over integer coordinate
vectors on (1, sqrt2, sqrt3), and its float order against its exact
intervals. Near-ties come from the convergents p/q of sqrt2: q * sqrt2 - p
is about 1 / (2 * sqrt2 * q), which the half-ulp intervals separate only
while q is small. Both oracles are test-only."""

import sys
import warnings

import pytest

from addcomb.model import (
    FLOAT_EXACT,
    FLOAT_ORDER_MIN,
    UNIT_ROUNDOFF,
    BasisDecl,
    _float_order,
    _interval_order,
    key_order,
)
from helpers import BASIS_SQRT23, SQRT2, SQRT3, key_table

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

TIE = "basis approximations cannot order them"


def convergents(count: int) -> list[tuple[int, int]]:
    """The first continued-fraction convergents p/q of sqrt2."""
    out = [(1, 1)]
    while len(out) < count:
        p, q = out[-1]
        out.append((p + 2 * q, p + q))
    return out


CONVERGENTS = convergents(40)  # q reaches about 10**15


def sympy_order(keys) -> list[int]:
    """Positions in increasing order of sum(key_i * (1, sqrt2, sqrt3)_i),
    compared at 60 significant digits."""
    reals = (sympy.Integer(1), sympy.sqrt(2), sympy.sqrt(3))
    values = [sympy.N(sum(k * r for k, r in zip(key, reals)), 60) for key in keys]
    return sorted(range(len(keys)), key=values.__getitem__)


def ordered_or_tie(keys, scale: int) -> bool:
    """key_order raises the tie error or agrees with sympy; True if it ordered."""
    try:
        got = key_order(key_table(keys, 3), scale, BASIS_SQRT23).tolist()
    except ValueError as exc:
        assert str(exc).startswith("float tie between distinct symbolic reals (")
        assert str(exc).endswith(TIE)
        return False
    assert got == sympy_order(keys)
    return True


def test_convergent_near_ties_order_or_tie():
    """(-p, q, 0) against 0 is ordered for the first convergents and a tie
    for the last ones, and never ordered wrongly."""
    outcomes = [ordered_or_tie([(-p, q, 0), (0, 0, 0)], 1) for p, q in CONVERGENTS]
    assert outcomes[:20] == [True] * 20
    assert outcomes[-10:] == [False] * 10


def test_split_convergent_near_ties_need_both_radii():
    """(-p, q/2, 0) against (0, -q/2, 0) for even q, where p/q > sqrt2: from
    q of about 10**8 the centres are in the wrong order by more than either
    radius alone, so only the sum of both radii finds the tie."""
    outcomes = [
        ordered_or_tie([(-p, q // 2, 0), (0, -(q // 2), 0)], 1)
        for p, q in CONVERGENTS
        if q % 2 == 0
    ]
    assert outcomes[:8] == [True] * 8
    assert outcomes[-5:] == [False] * 5


coordinate = st.integers(-(10**6), 10**6)
vector = st.tuples(coordinate, coordinate, coordinate)


@st.composite
def key_lists(draw):
    """Distinct keys: random vectors, some shifted from another one by
    +-(-p, q, 0) for a convergent p/q."""
    keys = draw(st.lists(vector, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(keys))
        p, q = draw(st.sampled_from(CONVERGENTS))
        sign = draw(st.sampled_from((1, -1)))
        keys.append((base[0] - sign * p, base[1] + sign * q, base[2]))
    return list(dict.fromkeys(keys))


def test_key_order_agrees_with_sympy_or_ties():
    """The property runs inside a plain test, so that a counterexample fails
    this test instead of the pytest plugin's report, whose imports warn."""

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(key_lists(), st.integers(1, 12))
    def agrees(keys, scale):
        ordered_or_tie(keys, scale)

    agrees()


# --- the float order against the exact intervals ------------------------------

#: approximations the float order must refuse (subnormal, zero) or meet
#: near the float range (1e300), beside the usual irrationals
APPROXIMATIONS = (SQRT2, SQRT3, -SQRT2, 0.5, 3.0, 1e300, -1e300, 5e-324, 1e-310, 0.0)
#: coordinates at and around 2^53, and past 2^63 where the key array is
#: dtype=object
BIG = (2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1, 2**63, 2**70)

big_coordinate = st.sampled_from(BIG + tuple(-n for n in BIG))
any_coordinate = st.one_of(coordinate, coordinate, big_coordinate, st.just(0))


@st.composite
def order_cases(draw):
    """A basis (1, a, b) and distinct keys over it: random vectors (in half
    the cases with coordinates at and past 2^53), the zero key and
    sqrt2-convergent near-ties."""
    basis = BasisDecl(
        ("1", "a", "b"), (1.0, draw(st.sampled_from(APPROXIMATIONS)),
                          draw(st.sampled_from(APPROXIMATIONS)))
    )
    entry = any_coordinate if draw(st.booleans()) else coordinate
    keys = draw(st.lists(st.tuples(entry, entry, entry), min_size=1, max_size=2 * FLOAT_ORDER_MIN))
    if draw(st.booleans()):
        keys.append((0, 0, 0))
    for _ in range(draw(st.integers(0, 3))):
        base = draw(st.sampled_from(keys))
        p, q = draw(st.sampled_from(CONVERGENTS))
        sign = draw(st.sampled_from((1, -1)))
        keys.append((base[0] - sign * p, base[1] + sign * q, base[2]))
    return list(dict.fromkeys(keys)), draw(st.integers(1, 12)), basis


def _outcome(fn):
    try:
        return fn().tolist()
    except ValueError as exc:
        return str(exc)


def test_float_order_is_the_exact_order_or_defers():
    """The float order, where it settles, is the exact intervals' order and
    they find no tie; key_order (which tries floats from FLOAT_ORDER_MIN
    keys on) equals the exact intervals' order, or both raise the same tie
    message. The float order settles some cases and defers others, and
    nothing warns, overflowing dot products included."""
    settled = []

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(order_cases())
    def agrees(case):
        keys, scale, basis = case
        table = key_table(keys, 3)
        exact = _outcome(lambda: _interval_order(table, scale, basis))
        assert _outcome(lambda: key_order(table, scale, basis)) == exact
        order = _float_order(table, basis.approx)
        if order is not None:
            assert order.tolist() == exact
        settled.append(order is not None)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        agrees()
    assert any(settled) and not all(settled)


def _neighbours(ratio: float):
    """Keys (c, 0, 0) and (c - 17, 12, 0) on (1, sqrt2, sqrt3): their floats
    differ by about 12 * sqrt2 - 17 = -0.029 whatever c is, and c makes the
    stated margin 10 * u * (S_0 + S_1) that gap over ratio."""
    gap = abs(12 * SQRT2 - 17)
    c = round(gap / (ratio * 10 * UNIT_ROUNDOFF * 2))
    return key_table([(c, 0, 0), (c - 17, 12, 0)], 3)


def test_float_order_settles_exactly_past_the_stated_margin():
    """A neighbour gap of 1.5 margins is settled by floats, one of 0.75
    margins goes to the exact intervals, which order it alike."""
    wide, narrow = _neighbours(1.5), _neighbours(0.75)
    assert _float_order(wide, BASIS_SQRT23.approx).tolist() == [1, 0]
    assert _float_order(narrow, BASIS_SQRT23.approx) is None
    for table in (wide, narrow):
        assert key_order(table, 1, BASIS_SQRT23).tolist() == [1, 0]
        assert _interval_order(table, 1, BASIS_SQRT23).tolist() == [1, 0]


@pytest.mark.parametrize("sign", [1, -1])
def test_float_order_takes_only_keys_below_2_53(sign):
    below = key_table([(sign * (FLOAT_EXACT - 1), 0, 0), (0, 0, 0)], 3)
    at = key_table([(sign * FLOAT_EXACT, 0, 0), (0, 0, 0)], 3)
    want = [1, 0] if sign > 0 else [0, 1]
    assert _float_order(below, BASIS_SQRT23.approx).tolist() == want
    assert _float_order(at, BASIS_SQRT23.approx) is None
    assert key_order(at, 1, BASIS_SQRT23).tolist() == want


@pytest.mark.parametrize("a", [5e-324, sys.float_info.min / 2, 0.0])
def test_float_order_takes_only_normal_approximations(a):
    basis = BasisDecl(("1", "a", "b"), (1.0, a, SQRT3))
    table = key_table([(1, 0, 0), (0, 0, 0)], 3)
    assert _float_order(table, basis.approx) is None
    assert key_order(table, 1, basis).tolist() == [1, 0]
    normal = BasisDecl(("1", "a", "b"), (1.0, sys.float_info.min, SQRT3))
    assert _float_order(table, normal.approx).tolist() == [1, 0]
