"""Exact rational feasibility for homogeneous systems of the shape

    E t  = 0        (equations)
    G t >= 1        (homogenized strict inequalities)

over free variables t. Gauss-Jordan elimination on the equation rows also
clears their pivot columns from the inequality rows, which leaves a system
in the free columns alone; a phase-1 simplex with Bland's rule decides its
feasibility, and each pivot column is read back from its equation row.

Each step holds its tableau in one 2-D numpy integer array, and both run
on one fraction-free pivot (Edmonds 1967, Bareiss 1968): each row but the
pivot row becomes (p*row - f*prow) / d, d the previous pivot, a division
that is exact. Every row is then d times its row in the rational tableau,
so the pivots are those of the rational tableau, and floats never appear.
The array is int64 while every entry is below 2^31 in magnitude, so that
p*a - f*b cannot reach 2^63, where int64 would wrap without a word. The
bound is checked on the input rows, on the phase-1 objective row (a sum of
rows, which can pass it while no row does) and after every pivot, where a
bound on the old entries proves it or the new ones are read. An array that
reaches it becomes dtype=object and does the same operations on Python
ints from then on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: int64 tableau entries stay below this magnitude, so p*a - f*b < 2^63
INT64_BOUND = 1 << 31


@dataclass
class SimplexStats:
    pivots: int = 0
    equations: int = 0
    inequalities: int = 0


def _top(T: np.ndarray) -> int | None:
    """The largest magnitude of an int64 array's entries, or None if the
    array holds Python ints or an entry reaches INT64_BOUND."""
    if T.dtype == object:
        return None
    top = max(int(T.max()), -int(T.min()))
    return top if top < INT64_BOUND else None


def _array(rows):
    """Integer rows as an int64 array and its _top, or as Python ints and
    None if they are wide. The dtype is never numpy's guess, which may be
    uint64 or float64."""
    try:
        T = np.array(rows, dtype=np.int64)
        top = _top(T)
        if top is not None:
            return T, top
    except OverflowError:
        pass
    return np.array(rows, dtype=object), None


def _pivot(T: np.ndarray, r: int, c: int, d: int, top):
    """Clear column c from every row but T[r], whose entry p there is > 0.

    Each other row becomes (p*row - f*prow) / d, with f its entry in column
    c and d > 0 the previous pivot (1 before the first). The division is
    exact, and every row stays d times its row in the rational tableau, p
    times once this pivot is made. top bounds the magnitude of T's entries,
    None over Python ints. Returns the new tableau and its bound; the
    tableau is over Python ints once an entry reaches INT64_BOUND.
    """
    new = T * T[r, c]
    new -= T[:, c, None] * T[r]
    if d != 1:
        new //= d
    new[r] = T[r]
    if top is None:
        return new, None
    # |p*a - f*b| <= 2 top^2, which the division only shrinks: while that
    # is below the bound no entry needs reading
    top = 2 * top * top
    if top < INT64_BOUND:
        return new, top
    top = _top(new)
    return (new, top) if top is not None else (new.astype(object), None)


def _tableau(G: list, nfree: int, dtype) -> np.ndarray:
    """The phase-1 tableau [G | -G | -I | 1], rhs last, over its objective
    row: the sum of the rows, which is the cost row negated."""
    m = len(G)
    ncols = 2 * nfree + m
    T = np.zeros((m + 1, ncols + 1), dtype=dtype)
    T[:m, :nfree] = G
    np.negative(T[:m, :nfree], out=T[:m, nfree : 2 * nfree])
    T.flat[2 * nfree : m * (ncols + 1) : ncols + 2] = -1  # surplus columns
    T[:m, -1] = 1
    np.add.reduce(T[:m], out=T[m])
    return T


def _phase1(G: list, nfree: int, stats: SimplexStats):
    """Solve {G z >= 1, z free} by minimizing artificial infeasibility.

    z splits into u - v with u, v >= 0, plus one surplus per row. Artificial
    variables form the initial basis implicitly: they carry labels past the
    real columns and are never eligible to re-enter. The last tableau row
    holds the reduced costs negated, so a column with a positive entry
    there may enter. Returns z as (numerator, denominator) pairs, or None.
    """
    m = len(G)
    ncols = 2 * nfree + m
    top = None
    try:
        T = _tableau(G, nfree, np.int64)
        # the int64 objective row is exact while the rows are within the
        # bound, and the bound is checked on both at once
        top = _top(T)
    except OverflowError:
        pass
    if top is None:
        T = _tableau(G, nfree, object)
    basis = list(range(ncols, ncols + m))  # artificial labels
    d = 1  # the implicit artificial basis is the identity
    while True:
        objective = T[m, :ncols].tolist()
        enter = next((j for j, x in enumerate(objective) if x > 0), None)
        if enter is None:
            break
        col, rhs = T[:m, enter].tolist(), T[:m, -1].tolist()
        cands = [i for i, a in enumerate(col) if a > 0]
        if not cands:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        leave = cands[0]
        for i in cands[1:]:
            # rhs_i / a_i against rhs_leave / a_leave, cross-multiplied
            cross = rhs[i] * col[leave] - rhs[leave] * col[i]
            if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                leave = i
        stats.pivots += 1
        T, top = _pivot(T, leave, enter, d, top)
        d = col[leave]
        basis[leave] = enter
    rows = T.tolist()
    if rows[m][-1]:
        return None  # residual infeasibility
    z = [(0, 1)] * nfree
    # columns u_j and v_j are opposite, so at most one of them is basic
    for row, b in zip(rows, basis):
        if b < nfree:
            z[b] = (row[-1], row[b])
        elif b < 2 * nfree:  # v_(b - nfree) enters z negated
            z[b - nfree] = (-row[-1], row[b])
    return z


def feasible_point(equations, inequalities, nvars: int):
    """A rational t with E t = 0 and G t >= 1, or None if none exists.

    Returns (t, stats). Coefficient rows must be integer sequences.
    """
    stats = SimplexStats(equations=len(equations), inequalities=len(inequalities))
    if not inequalities:
        return [Fraction(0)] * nvars, stats
    neq = len(equations)
    piv_cols, rows, d = [], [], 1
    if neq:
        # equation rows [e | 0] above inequality rows [g | 1], rhs last
        T, top = _array([[*e, 0] for e in equations] + [[*g, 1] for g in inequalities])
        for c in range(nvars):
            r = len(piv_cols)
            if r == neq:
                break
            nz = T[r:neq, c].nonzero()[0]
            if not nz.size:
                continue
            if nz[0]:
                T[[r, r + nz[0]]] = T[[r + nz[0], r]]
            if T[r, c] < 0:
                T[r] *= -1
            T, top = _pivot(T, r, c, d, top)
            d = int(T[r, c])
            piv_cols.append(c)
    free = [c for c in range(nvars) if c not in piv_cols]
    if piv_cols:
        # each inequality row is now d * (g'_i | 1), zero in the pivot
        # columns: one common rhs d, so all rows share one positive factor,
        # which Bland's rule and the ratio test ignore (a factor per row
        # would change the phase-1 objective row, the sum of the rows, and
        # the pivots). Each equation row is d in its pivot column.
        rows = T[:neq].tolist()
        reduced = T[neq:, free].tolist()
    else:
        reduced = inequalities
    if not all(map(any, reduced)):
        return None, stats  # 0 >= 1: equations force this constraint empty
    z = _phase1(list(dict.fromkeys(map(tuple, reduced))), len(free), stats)
    if z is None:
        return None, stats
    t = [Fraction(0)] * nvars
    for c, (num, den) in zip(free, z):
        t[c] = Fraction(d * num, den)
    for row, pc in zip(rows, piv_cols):
        t[pc] = -sum((row[c] * t[c] for c in free if row[c]), Fraction(0)) / d
    return t, stats
