"""model.decode against the plain per-coordinate decoding: every key built
with BasisDecl.element from Fraction(n, scale), or as_rational of it for
rationals. The keys reach decode as a key array, int64 or, with a
coordinate past 2^63, dtype=object. hypothesis serves only as a test-only
generator."""

from fractions import Fraction

import pytest

from addcomb.model import RealElement, as_rational, decode
from helpers import BASIS_SQRT2, BASIS_SQRT23, BASIS_UNIT, key_table

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = (None, BASIS_UNIT, BASIS_SQRT2, BASIS_SQRT23)
#: scales at and past 2^63, which an int64 key array cannot be divided by
HUGE_SCALES = (2**63, 3**40)


def oracle(keys, scale: int, basis) -> list:
    if basis is None:
        return [as_rational(Fraction(n, scale)) for n in keys]
    if basis.dimension == 1:
        keys = [(n,) for n in keys]
    return [basis.element(tuple(Fraction(n, scale) for n in key)) for key in keys]


@st.composite
def decode_cases(draw):
    """Distinct keys over a basis (None, dimension 1, 2 or 3), with scale 1,
    a small scale or one of HUGE_SCALES. Coordinates come from a small
    pool, so they repeat across keys and within a key, and include
    negatives and multiples of scale."""
    basis = draw(st.sampled_from(BASES))
    scale = draw(st.one_of(st.just(1), st.integers(1, 36), st.sampled_from(HUGE_SCALES)))
    pool = draw(
        st.lists(st.integers(-40, 40) | st.integers(-(10**20), 10**20), min_size=1, max_size=6)
    )
    coordinate = st.sampled_from(pool)
    if basis is None or basis.dimension == 1:
        key = coordinate
    else:
        key = st.tuples(*[coordinate] * basis.dimension)
    keys = draw(st.lists(key, max_size=20, unique=True))
    return keys, scale, basis


def test_decode_on_fixed_cases():
    # every basis, scale 1, 6 and past int64, negative coordinates, and a
    # coordinate that repeats across keys
    for basis in BASES:
        for scale in (1, 6, *HUGE_SCALES):
            if basis is None or basis.dimension == 1:
                keys = [-7, 12, 0]
            else:
                keys = [tuple(range(-1, basis.dimension - 1)), tuple(range(basis.dimension))]
            check(keys, scale, basis)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(decode_cases())
def test_decode_matches_the_per_coordinate_oracle(case):
    check(*case)


def check(keys, scale: int, basis) -> None:
    rows = 1 if basis is None else basis.dimension
    got, want = decode(key_table(keys, rows), scale, basis), oracle(keys, scale, basis)
    assert got == want
    assert list(map(hash, got)) == list(map(hash, want))
    for x, y in zip(got, want):
        assert type(x) is type(y)
        coords = x.coords if isinstance(x, RealElement) else (x,)
        wanted = y.coords if isinstance(y, RealElement) else (y,)
        # ints where the value is integral, as basis.element gives them
        assert [type(c) for c in coords] == [type(c) for c in wanted]
        if isinstance(x, RealElement):
            assert x.basis is basis and type(x.coords) is tuple
