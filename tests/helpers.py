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
from collections import Counter
from fractions import Fraction

from addcomb import (
    BasisDecl,
    CertificateError,
    FiniteSet,
    InducedMap,
    IsoVerdict,
    LinearForm,
    realize,
)

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


def naive_values(coeffs, elements) -> list:
    """Form value of every ordered tuple, in lexicographic index order."""
    zero = 0 * elements[0]
    return [
        sum((c * t for c, t in zip(coeffs, tup) if c != 0), zero)
        for tup in itertools.product(elements, repeat=len(coeffs))
    ]


def value_walk(form: LinearForm, f):
    """The coincidence walk keyed by the exact values themselves.

    Returns the verdict, the map value -> (image value, first position) and
    both value tables: the reference for the integer-keyed walk in
    ``addcomb.isomorphism``, which must give the same verdict and witness.
    """
    k, h = len(f.domain), form.arity
    avals = naive_values(form.coeffs, f.domain.elements)
    bvals = naive_values(form.coeffs, f.mapped_elements())
    forward: dict = {}
    backward: dict = {}
    homo_fail = inv_fail = None
    for pos, (va, vb) in enumerate(zip(avals, bvals)):
        seen = forward.get(va)
        if seen is None:
            forward[va] = (vb, pos)
        elif homo_fail is None and seen[0] != vb:
            homo_fail = (seen[1], pos)
        seen = backward.get(vb)
        if seen is None:
            backward[vb] = (va, pos)
        elif inv_fail is None and seen[0] != va:
            inv_fail = (seen[1], pos)
        if homo_fail is not None and inv_fail is not None:
            break
    fails = [t for t in (homo_fail, inv_fail) if t is not None]
    witness = None
    if fails:
        u, v = min(fails, key=lambda t: t[1])
        tuples = list(itertools.product(range(k), repeat=h))
        witness = (tuples[u], tuples[v])
    return IsoVerdict(homo_fail is None, not fails, witness), forward, avals, bvals


def value_induced_bijection(form: LinearForm, f) -> InducedMap:
    """induced_bijection over the value walk, values ordered by FiniteSet."""
    verdict, forward, avals, bvals = value_walk(form, f)
    if not verdict.is_isomorphism:
        raise ValueError(f"bijection is not an isomorphism (witness {verdict.witness})")
    ma, mb = Counter(avals), Counter(bvals)
    pairs = []
    for x in FiniteSet(forward):
        y = forward[x][0]
        mx, my = ma[x], mb[y]
        if mx != my:
            raise CertificateError(f"multiplicity mismatch at {x} -> {y}: {mx} != {my}")
        pairs.append((x, y, mx))
    if len({y for _, y, _ in pairs}) != len(pairs):
        raise CertificateError("induced map is not injective")
    return InducedMap(tuple(pairs))


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


#: a basis whose second element floats to 1.0: (1, 0) and (0, 1) tie
BASIS_GHOST = BasisDecl(("1", "ghost"), (1.0, 1.0))


def float_order(values) -> list:
    """The distinct symbolic reals in increasing order, as the package ordered
    them before ``model.real_order``: sorted by ``float``, then each adjacent
    pair compared by fresh floats. A tie raises ValueError naming the pair's
    coordinate tuples by ``repr``."""
    distinct = list({x.coords: x for x in values}.values())
    distinct.sort(key=float)
    for a, b in zip(distinct, distinct[1:]):
        if float(a) == float(b):
            raise ValueError(
                f"float tie between distinct symbolic reals {a.coords} and "
                f"{b.coords}; basis approximations cannot order them"
            )
    return distinct


#: the oracle cases' forms beyond random ones: rational and zero coefficients
ORACLE_FORMS = (LinearForm.parse("1/2,-3/4"), LinearForm.parse("0,1"))
SET_KINDS = ("integer", "rational", "symbolic-1", "symbolic-2", "symbolic-3")


def random_set(rng: random.Random, kind: str, kmax: int) -> FiniteSet:
    """A set of up to kmax elements: integers, rationals, or symbolic reals
    over a basis of dimension 1, 2 or 3 with rational coordinates."""
    k = rng.randint(1, kmax)
    if kind == "integer":
        return FiniteSet(rng.sample(range(-20, 21), k))
    if kind == "rational":
        return FiniteSet(random_rational(rng) for _ in range(k))
    basis = {"symbolic-1": BASIS_UNIT, "symbolic-2": BASIS_SQRT2, "symbolic-3": BASIS_SQRT23}[kind]
    coords = [
        (random_rational(rng),) + tuple(rng.randint(-2, 2) for _ in range(basis.dimension - 1))
        for _ in range(k)
    ]
    return FiniteSet(basis.element(c) for c in coords)


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
