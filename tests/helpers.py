"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's evaluation paths: they
loop over ordered tuples directly with itertools.product, so agreement with
the package is meaningful evidence. ``key_walk`` alone reads the package's
integer keys, because it checks how they are compared, not how they are made.
``key_table`` turns plain Python keys into a key array, the inverse of
``addcomb.images.key_list``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np

from addcomb import (
    BasisDecl,
    CertificateError,
    FiniteSet,
    InducedMap,
    IsoVerdict,
    LinearForm,
    realize,
)
from addcomb.images import form_keys, key_list
from addcomb.simplex import SimplexStats

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


def _walk(avals, bvals, k: int, h: int):
    """One pass over both sides' values in tuple order. Each side maps a
    value to (the other side's value, its first position); a later position
    that disagrees is the first failure in that direction. Returns the
    verdict and the domain side's map."""
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
    return IsoVerdict(homo_fail is None, not fails, witness), forward


def value_walk(form: LinearForm, f):
    """The coincidence walk keyed by the exact values themselves.

    Returns the verdict, the map value -> (image value, first position) and
    both value tables: the reference for the integer-keyed comparison in
    ``addcomb.isomorphism``, which must give the same verdict and witness.
    """
    avals = naive_values(form.coeffs, f.domain.elements)
    bvals = naive_values(form.coeffs, f.mapped_elements())
    return *_walk(avals, bvals, len(f.domain), form.arity), avals, bvals


def key_table(keys, rows: int):
    """Plain keys (ints for one row, int tuples of that many entries for
    several) as a key array with a row per coordinate: int64 when every
    entry fits, dtype=object past it."""
    columns = [list(keys)] if rows == 1 else [[key[i] for key in keys] for i in range(rows)]
    fits = all(-(2**63) <= n < 2**63 for col in columns for n in col)
    return np.array(columns, dtype=np.int64 if fits else object).reshape(rows, len(keys))


def key_walk(form: LinearForm, f):
    """The coincidence walk over the integer keys of ``images.form_keys``.

    Returns the verdict, the map key -> (image key, first position) and both
    scales: the reference for the set-of-pairs comparison in
    ``addcomb.isomorphism``, which must give the same verdict, witness and
    map.
    """
    akeys, sa = form_keys(form, f.domain.elements)
    bkeys, sb = form_keys(form, f.mapped_elements())
    return *_walk(key_list(akeys), key_list(bkeys), len(f.domain), form.arity), (sa, sb)


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
    """The distinct symbolic reals in increasing order of their floats:
    sorted by ``float``, then each adjacent pair compared by fresh floats. A
    tie raises ValueError naming the pair's coordinate tuples by ``repr``.
    It agrees with the exact order wherever floats separate values widely."""
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


def sum_coincidence_rows(elements) -> list:
    """One row e_i + e_j - e_l - e_m per hyperplane x_i + x_j = x_l + x_m
    (i <= j, l <= m, {i, j} != {l, m}) that the elements lie on, each
    hyperplane once."""
    by_sum: dict = {}
    for i, j in itertools.combinations_with_replacement(range(len(elements)), 2):
        by_sum.setdefault(elements[i] + elements[j], []).append((i, j))
    rows = []
    for pairs in by_sum.values():
        for (i, j), (l, m) in itertools.combinations(pairs, 2):
            row = [0] * len(elements)
            row[i] += 1
            row[j] += 1
            row[l] -= 1
            row[m] -= 1
            rows.append(row)
    return rows


def rational_rank(rows) -> int:
    """The rank over Q, by Gaussian elimination in exact Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / top[col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
        rank += 1
    return rank


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


def satisfied(equations, inequalities, t) -> bool:
    """Whether E t = 0 and G t >= 1 hold exactly."""
    for e in equations:
        if sum(c * x for c, x in zip(e, t)) != 0:
            return False
    for g in inequalities:
        if sum(c * x for c, x in zip(g, t)) < 1:
            return False
    return True


def _list_pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Clear column c from every row but rows[r], whose entry p there is > 0,
    each other row becoming (p*row - f*prow) / gcd."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            new = [p * a - f * b for a, b in zip(row, prow)]
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def _list_phase1(ineqs, nfree: int, stats):
    """Phase 1 of {G z >= 1, z free} over z = u - v, one surplus per row and
    implicit artificial labels past the real columns; the cost row is last."""
    m = len(ineqs)
    if m == 0:
        return [Fraction(0)] * nfree
    ncols = 2 * nfree + m
    rows = []
    for i, g in enumerate(ineqs):
        row = list(g) + [-x for x in g] + [0] * m + [1]  # last entry: rhs
        row[2 * nfree + i] = -1
        rows.append(row)
    rows.append([-sum(col) for col in zip(*rows)])  # cost row
    basis = [ncols + i for i in range(m)]
    while True:
        enter = next((j for j in range(ncols) if rows[-1][j] < 0), None)
        if enter is None:
            break
        cands = [i for i in range(m) if rows[i][enter] > 0]
        if not cands:
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        leave = cands[0]
        for i in cands[1:]:
            d = rows[i][-1] * rows[leave][enter] - rows[leave][-1] * rows[i][enter]
            if d < 0 or (d == 0 and basis[i] < basis[leave]):
                leave = i
        stats.pivots += 1
        _list_pivot(rows, leave, enter)
        basis[leave] = enter
    if rows[-1][-1]:
        return None
    z = [Fraction(0)] * nfree
    for i, b in enumerate(basis):
        if b < 2 * nfree:
            x = Fraction(rows[i][-1], rows[i][b])
            z[b % nfree] += x if b < nfree else -x
    return z


def list_feasible_point(equations, inequalities, nvars: int):
    """The simplex on a list of Python-int lists: the reference for the
    array tableau of ``addcomb.simplex.feasible_point``, which must return
    the same t and the same pivot, equation and inequality counts.

    Same algorithm: Gauss-Jordan on the equation rows (which also clears
    their pivot columns from the inequality rows), the inequality rows
    brought to one common rhs and deduplicated, then phase 1 with Bland's
    rule and a cross-multiplied ratio test.
    """
    stats = SimplexStats(equations=len(equations), inequalities=len(inequalities))
    neq = len(equations)
    rows = [list(e) + [0] for e in equations] + [list(g) + [1] for g in inequalities]
    piv_cols = []
    for c in range(nvars):
        r = len(piv_cols)
        pivot = next((i for i in range(r, neq) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        _list_pivot(rows, r, c)
        piv_cols.append(c)
    free = [c for c in range(nvars) if c not in piv_cols]
    scale = math.lcm(*(row[-1] for row in rows[neq:]))
    reduced = []
    seen = set()
    for row in rows[neq:]:
        f = scale // row[-1]
        g = tuple(f * row[c] for c in free)
        if not any(g):
            return None, stats
        if g not in seen:
            seen.add(g)
            reduced.append(g)
    z = _list_phase1(reduced, len(free), stats)
    if z is None:
        return None, stats
    t = [Fraction(0)] * nvars
    for c, zc in zip(free, z):
        t[c] = scale * zc
    for row, pc in zip(rows, piv_cols):
        t[pc] = -sum((row[c] * t[c] for c in free if row[c]), Fraction(0)) / row[pc]
    return t, stats


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
