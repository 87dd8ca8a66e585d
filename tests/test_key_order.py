"""model.key_order against sympy at 60 digits, over integer coordinate
vectors on (1, sqrt2, sqrt3). Near-ties come from the convergents p/q of
sqrt2: q * sqrt2 - p is about 1 / (2 * sqrt2 * q), which the half-ulp
intervals separate only while q is small. Both oracles are test-only."""

import pytest

from addcomb.model import key_order
from helpers import BASIS_SQRT23

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
        got = key_order(keys, scale, BASIS_SQRT23)
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
