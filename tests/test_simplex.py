import hashlib
import random
from fractions import Fraction

from addcomb.simplex import feasible_point
from helpers import fourier_motzkin_feasible

SEEDED_BATCH_SHA256 = "677d61734b84e194e0a2227681a05570f134070c10407a665251898ec6439208"


def satisfied(equations, inequalities, t) -> bool:
    for e in equations:
        if sum(c * x for c, x in zip(e, t)) != 0:
            return False
    for g in inequalities:
        if sum(c * x for c, x in zip(g, t)) < 1:
            return False
    return True


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
