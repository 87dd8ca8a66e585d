import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from addcomb import simplex
from addcomb.simplex import feasible_point
from helpers import fourier_motzkin_feasible, list_feasible_point, satisfied

WIDE_BATCH_SHA256 = "d23dcd37d7f2e1cc56b007083f930dfb241b0bc468f431b668b80280522e3fc6"
SEEDED_BATCH_SHA256 = "677d61734b84e194e0a2227681a05570f134070c10407a665251898ec6439208"


def test_simple_order_chain():
    # t1 < t2 < t3 as two chain constraints
    ineqs = [(-1, 1, 0), (0, -1, 1)]
    t, stats = feasible_point([], ineqs, 3)
    assert t is not None
    assert satisfied([], ineqs, t)
    assert stats.pivots >= 1


def test_equations_with_inequalities():
    # t1 + t3 = 2*t2 (progression), t2 - t1 >= 1
    eqs = [(1, -2, 1)]
    ineqs = [(-1, 1, 0)]
    t, _ = feasible_point(eqs, ineqs, 3)
    assert t is not None
    assert satisfied(eqs, ineqs, t)


def test_cyclic_order_is_infeasible():
    # t1 < t2 < t3 < t1
    ineqs = [(-1, 1, 0), (0, -1, 1), (1, 0, -1)]
    t, _ = feasible_point([], ineqs, 3)
    assert t is None


def test_equation_contradicts_inequality():
    t, _ = feasible_point([(1, -1)], [(1, -1)], 2)
    assert t is None


def test_empty_system():
    t, _ = feasible_point([], [], 2)
    assert t == [Fraction(0), Fraction(0)]


def test_planted_solutions_are_recovered():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(2, 6)
        target = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        eqs, ineqs = [], []
        for _ in range(rng.randint(1, 12)):
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            v = sum(ci * ti for ci, ti in zip(c, target))
            if v == 0:
                eqs.append(c)
            elif v > 0:
                ineqs.append(c)
            else:
                ineqs.append(tuple(-ci for ci in c))
        t, _ = feasible_point(eqs, ineqs, n)
        assert t is not None, (eqs, ineqs)
        assert satisfied(eqs, ineqs, t)


def _random_system(rng: random.Random):
    """A seeded system: planted (feasible) half the time, otherwise random
    rows that may well be infeasible."""
    n = rng.randint(2, 7)
    eqs, ineqs = [], []
    if rng.random() < 0.5:
        target = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(rng.randint(1, 14)):
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            v = sum(ci * ti for ci, ti in zip(c, target))
            if v == 0:
                eqs.append(c)
            else:
                ineqs.append(c if v > 0 else tuple(-ci for ci in c))
    else:
        for _ in range(rng.randint(0, 2)):
            eqs.append(tuple(rng.randint(-2, 2) for _ in range(n)))
        for _ in range(rng.randint(1, 10)):
            ineqs.append(tuple(rng.randint(-4, 4) for _ in range(n)))
    return eqs, ineqs, n


def test_seeded_batch_is_pinned():
    # (t, stats) over 300 seeded systems, digest taken with the Fraction
    # tableau: the integer tableau must make the very same pivots
    rng = random.Random(20261018)
    h = hashlib.sha256()
    feasible = 0
    for _ in range(300):
        eqs, ineqs, n = _random_system(rng)
        t, stats = feasible_point(eqs, ineqs, n)
        if t is not None:
            feasible += 1
            assert satisfied(eqs, ineqs, t)
        key = (
            None if t is None else tuple((x.numerator, x.denominator) for x in t),
            stats.pivots,
            stats.equations,
            stats.inequalities,
        )
        h.update(repr(key).encode() + b"\n")
    assert 0 < feasible < 300
    assert h.hexdigest() == SEEDED_BATCH_SHA256


def _wide_system(rng: random.Random):
    """A seeded system whose entries reach past the int64 bound, or cross
    it during the pivots: a third are _random_system's rows, half of them
    scaled by 2^40; a third have 70-bit and a third 20-bit coefficients,
    planted on an integer point so that most are feasible."""
    kind = rng.randrange(3)
    if kind == 0:
        eqs, ineqs, n = _random_system(rng)
        widen = lambda rows: [  # noqa: E731
            tuple(c << 40 for c in row) if rng.random() < 0.5 else row for row in rows
        ]
        return widen(eqs), widen(ineqs), n
    bits = 70 if kind == 1 else 20
    n = rng.randint(2, 6)
    target = [rng.randint(-9, 9) for _ in range(n - 1)] + [1]
    eqs, ineqs = [], []
    for _ in range(rng.randint(1, 10)):
        c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
        v = sum(ci * ti for ci, ti in zip(c, target))
        if rng.random() < 0.2:
            c[-1] -= v  # on the target: an equation
            eqs.append(tuple(c))
        elif v:
            ineqs.append(tuple(c) if v > 0 else tuple(-x for x in c))
    return eqs, ineqs, n


def test_wide_batch_is_pinned():
    # (t, stats) over 200 systems with wide entries, digest taken with the
    # list-of-lists tableau on Python ints
    rng = random.Random(20261019)
    h = hashlib.sha256()
    feasible = 0
    for _ in range(200):
        eqs, ineqs, n = _wide_system(rng)
        t, stats = feasible_point(eqs, ineqs, n)
        if t is not None:
            feasible += 1
            assert satisfied(eqs, ineqs, t)
        key = (
            None if t is None else tuple((x.numerator, x.denominator) for x in t),
            stats.pivots,
            stats.equations,
            stats.inequalities,
        )
        h.update(repr(key).encode() + b"\n")
    assert 0 < feasible < 200
    assert h.hexdigest() == WIDE_BATCH_SHA256


def test_verdicts_match_fourier_motzkin():
    # hand-made shapes with their known verdicts, then seeded random systems
    shapes = [
        ([(1, -1, 0), (2, -2, 0)], [(0, 1, -1)], 3, True),  # redundant equations
        ([(1, -1, 0), (0, 1, -1), (1, 0, -1)], [(1, 1, 1)], 3, True),  # rank 2 of 3
        ([(1, 0), (0, 1)], [], 2, True),  # t = 0 forced, nothing to break
        ([(1, 0), (0, 1)], [(1, 1), (1, -2)], 2, False),  # t = 0 forced
        ([(1, -1, 0)], [(1, 0, 1), (0, 1, 1)], 3, True),  # equal once t1 = t2
        ([(1, -1, 0)], [(1, 0, 1), (0, -1, -1)], 3, False),  # opposite once t1 = t2
    ]
    systems = []
    for eqs, ineqs, n, verdict in shapes:
        assert fourier_motzkin_feasible(eqs, ineqs, n) is verdict
        systems.append((eqs, ineqs, n))
    rng = random.Random(20261019)
    for _ in range(1000):
        n = rng.randint(1, 5)
        eqs, ineqs = (
            [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, most))]
            for most in (2, 7)
        )
        systems.append((eqs, ineqs, n))
    feasible = 0
    for eqs, ineqs, n in systems:
        t, _ = feasible_point(eqs, ineqs, n)
        assert (t is not None) == fourier_motzkin_feasible(eqs, ineqs, n), (eqs, ineqs)
        if t is not None:
            feasible += 1
            assert satisfied(eqs, ineqs, t)
    assert 200 < feasible < len(systems) - 200


def _pivot_dtypes(monkeypatch) -> list:
    """Record the dtype of every tableau that simplex._pivot is given."""
    dtypes = []
    pivot = simplex._pivot

    def spy(T, *args):
        dtypes.append(T.dtype)
        return pivot(T, *args)

    monkeypatch.setattr(simplex, "_pivot", spy)
    return dtypes


@pytest.mark.parametrize(
    "entry, dtype",
    [
        (2**31 - 1, np.int64),
        (-(2**31) + 1, np.int64),
        (2**31, object),
        (-(2**31), object),
        (2**62, object),
        (2**70, object),
    ],
)
def test_input_rows_past_the_bound_are_python_ints(entry, dtype, monkeypatch):
    dtypes = _pivot_dtypes(monkeypatch)
    for eqs, ineqs in [([], [(entry, -1), (0, 2)]), ([(entry, -1, 0)], [(1, 0, 1), (0, 1, -1)])]:
        dtypes.clear()
        n = len(ineqs[0])
        assert feasible_point(eqs, ineqs, n) == list_feasible_point(eqs, ineqs, n)
        assert dtypes and dtypes[0] == dtype


def test_cost_row_past_the_bound_as_a_sum(monkeypatch):
    # each entry is below 2^31; their sum in the objective row is 2^32 - 2
    dtypes = _pivot_dtypes(monkeypatch)
    ineqs = [(2**31 - 1, 1), (2**31 - 1, -1)]
    assert feasible_point([], ineqs, 2) == list_feasible_point([], ineqs, 2)
    assert dtypes[0] == object
    dtypes.clear()
    ineqs = [(2**30 - 1, 1), (2**30 - 1, -1)]  # the sum stays below
    assert feasible_point([], ineqs, 2) == list_feasible_point([], ineqs, 2)
    assert set(dtypes) == {np.dtype(np.int64)}


@pytest.mark.parametrize(
    "ineqs",
    [
        # 20-bit entries: the first pivot's p*a - f*b passes 2^31
        [(2**20 + 1, -3, 1), (5, 2**20 + 3, -7), (-(2**19), 11, 2**20 - 5)],
        # entries of 40000: p*a and f*b stay below 2^31, their difference
        # does not, and a third pivot on it would wrap
        [(-39999, -39999, 39999), (39999, -40000, -40000), (1, 1, -40000), (40000, 40000, 39999)],
    ],
)
def test_pivot_past_the_bound_promotes(ineqs, monkeypatch):
    dtypes = _pivot_dtypes(monkeypatch)
    assert feasible_point([], ineqs, 3) == list_feasible_point([], ineqs, 3)
    assert dtypes[0] == np.int64 and dtypes[-1] == object
