"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's evaluation paths: they
loop over ordered tuples directly with itertools.product, so agreement with
the package is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from addcomb import BasisDecl, FiniteSet, LinearForm, realize

SQRT2 = 1.4142135623730951
SQRT3 = 1.7320508075688772

BASIS_UNIT = BasisDecl(("1",), (1.0,))
BASIS_SQRT2 = BasisDecl(("1", "sqrt2"), (1.0, SQRT2))
BASIS_SQRT23 = BasisDecl(("1", "sqrt2", "sqrt3"), (1.0, SQRT2, SQRT3))

REALIZATION_FORMS = (
    LinearForm((1, 1)),
    LinearForm((1, -1)),
    LinearForm((2, 3)),
    LinearForm((1, 1, -1)),
)


def naive_multiplicities(coeffs, elements) -> dict:
    """value -> ordered-tuple count, by direct per-tuple evaluation."""
    out: dict = {}
    for tup in itertools.product(elements, repeat=len(coeffs)):
        v = sum((c * t for c, t in zip(coeffs, tup) if c != 0), 0 * elements[0])
        out[v] = out.get(v, 0) + 1
    return out


def naive_image(coeffs, elements) -> set:
    return set(naive_multiplicities(coeffs, elements))


def random_form(rng: random.Random, max_arity: int = 3, bound: int = 3) -> LinearForm:
    h = rng.randint(1, max_arity)
    while True:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(h))
        if any(coeffs):
            return LinearForm(coeffs)


def random_int_set(rng: random.Random, lo: int = -20, hi: int = 20, kmax: int = 8) -> FiniteSet:
    k = rng.randint(1, kmax)
    return FiniteSet(rng.sample(range(lo, hi + 1), k))


def random_rational(rng: random.Random, num: int = 12, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def realization_suite() -> list[FiniteSet]:
    """25 deterministic sets over the three bases, sizes cycling 2..8.

    Coordinates stay small so the denominator search finishes quickly; the
    certificates do not depend on that choice.
    """
    rng = random.Random(20260811)
    sizes = [2, 3, 4, 5, 6, 7, 8]
    sets = []
    for i in range(25):
        k = sizes[i % len(sizes)]
        if i % 3 == 0:
            dens = [1, 2, 3, 4, 6]
            els: set = set()
            while len(els) < k:
                els.add(Fraction(rng.randint(-12, 12), rng.choice(dens)))
            if i % 6 == 0:
                sets.append(FiniteSet(els))
            else:
                # same mathematics, explicit 1-dimensional basis representation
                sets.append(FiniteSet(BASIS_UNIT.element((e,)) for e in els))
        elif i % 3 == 1:
            coords: set = set()
            while len(coords) < k:
                coords.add((rng.randint(-3, 3), rng.randint(0, 2)))
            sets.append(FiniteSet(BASIS_SQRT2.element(c) for c in coords))
        else:
            coords = set()
            while len(coords) < k:
                coords.add((rng.randint(0, 3), rng.randint(0, 1), rng.randint(0, 1)))
            sets.append(FiniteSet(BASIS_SQRT23.element(c) for c in coords))
    return sets


def _normalise(row) -> tuple:
    g = math.gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def fourier_motzkin_feasible(equations, inequalities, nvars: int) -> bool:
    """Whether E t = 0, G t > 0 has a solution, without the simplex.

    Each equation is substituted into the remaining rows, scaled so no
    inequality changes sign. Then Fourier-Motzkin elimination drops one
    variable at a time from the strict homogeneous system: every row with a
    positive coefficient there combines with every row with a negative one,
    both multipliers positive. Rows are gcd-normalised and deduplicated.
    The system is feasible iff no row survives, since a survivor reads 0 > 0.
    """
    eqs = [list(e) for e in equations]
    ineqs = {_normalise(g) for g in inequalities}
    while eqs:
        e = eqs.pop()
        j = next((j for j, x in enumerate(e) if x), None)
        if j is None:
            continue  # a redundant equation reduced to 0 = 0
        a, s = abs(e[j]), (1 if e[j] > 0 else -1)
        eqs = [[a * x - s * r[j] * y for x, y in zip(r, e)] for r in eqs]
        ineqs = {_normalise([a * x - s * g[j] * y for x, y in zip(g, e)]) for g in ineqs}
    for j in range(nvars):
        pos = [g for g in ineqs if g[j] > 0]
        neg = [g for g in ineqs if g[j] < 0]
        ineqs = {g for g in ineqs if g[j] == 0}
        for p in pos:
            for n in neg:
                ineqs.add(_normalise([-n[j] * x + p[j] * y for x, y in zip(p, n)]))
    return not ineqs


def first_close_denominator(elements, eps, after: int = 0) -> int:
    """The least q > after with every |q*a - round(q*a)| < eps, trying
    q = after + 1, after + 2, ... in exact Fraction arithmetic."""
    elements = [Fraction(a) for a in elements]
    q = after + 1
    while not all(abs(q * a - round(q * a)) < eps for a in elements):
        q += 1
    return q


_SUITE_CACHE = None


def suite_results():
    """All (set, form, method, result) realizations, computed once.

    Returns (records, elapsed_seconds). Shared between the realization
    acceptance criterion and the representation-transfer criterion.
    """
    global _SUITE_CACHE
    if _SUITE_CACHE is None:
        t0 = time.perf_counter()
        records = []
        for A in realization_suite():
            for form in REALIZATION_FORMS:
                for method in ("group", "dirichlet", "lp"):
                    records.append((A, form, method, realize(A, form, method)))
        _SUITE_CACHE = (records, time.perf_counter() - t0)
    return _SUITE_CACHE
