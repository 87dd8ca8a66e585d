"""Exact rational feasibility for homogeneous systems of the shape

    E t  = 0        (equations)
    G t >= 1        (homogenized strict inequalities)

over free variables t. Gauss-Jordan elimination on the equation rows also
clears their pivot columns from the inequality rows, which leaves a system
in the free columns alone; a phase-1 simplex with Bland's rule decides its
feasibility, and each pivot column is read back from its equation row.
Both steps run on one fraction-free integer pivot (Bareiss 1968, rows
divided by their gcd) that makes the pivots of the rational tableau;
floats never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class SimplexStats:
    pivots: int = 0
    equations: int = 0
    inequalities: int = 0


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Clear column c from every row but rows[r], whose entry p there is > 0.

    Each other row becomes (p*row - f*prow) / gcd, a positive multiple of
    the row that rational elimination would produce.
    """
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            new = [p * a - f * b for a, b in zip(row, prow)]
            g = math.gcd(*new)
            rows[i] = [x // g for x in new] if g > 1 else new


def _phase1(ineqs: list[list[int]], nfree: int, stats: SimplexStats):
    """Solve {G z >= 1, z free} by minimizing artificial infeasibility.

    z splits into u - v with u, v >= 0, plus one surplus per row. Artificial
    variables form the initial basis implicitly: they carry labels past the
    real columns and are never eligible to re-enter. The phase-1 cost row
    is the last tableau row. Returns z or None.
    """
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
    basis = [ncols + i for i in range(m)]  # artificial labels
    while True:
        enter = next((j for j in range(ncols) if rows[-1][j] < 0), None)
        if enter is None:
            break
        cands = [i for i in range(m) if rows[i][enter] > 0]
        if not cands:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        leave = cands[0]
        for i in cands[1:]:
            # rhs_i / a_i against rhs_leave / a_leave, cross-multiplied
            d = rows[i][-1] * rows[leave][enter] - rows[leave][-1] * rows[i][enter]
            if d < 0 or (d == 0 and basis[i] < basis[leave]):
                leave = i
        stats.pivots += 1
        _pivot(rows, leave, enter)
        basis[leave] = enter
    if rows[-1][-1]:
        return None  # residual infeasibility
    z = [Fraction(0)] * nfree
    for i, b in enumerate(basis):
        if b < 2 * nfree:  # u_b, or v_(b - nfree) entering z negated
            x = Fraction(rows[i][-1], rows[i][b])
            z[b % nfree] += x if b < nfree else -x
    return z


def feasible_point(equations, inequalities, nvars: int):
    """A rational t with E t = 0 and G t >= 1, or None if none exists.

    Returns (t, stats). Coefficient rows must be integer sequences.
    """
    stats = SimplexStats(equations=len(equations), inequalities=len(inequalities))
    neq = len(equations)
    # equation rows [e | 0] above inequality rows [g | 1], rhs last
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
        _pivot(rows, r, c)
        piv_cols.append(c)
    free = [c for c in range(nvars) if c not in piv_cols]
    # each inequality row is now lam_i * (g'_i | 1), lam_i > 0, zero in the
    # pivot columns. Brought to one common rhs, all rows share one positive
    # factor, which Bland's rule and the ratio test ignore; a factor per row
    # would change the cost row (minus the sum of the rows) and the pivots
    scale = math.lcm(*(row[-1] for row in rows[neq:]))
    reduced = []
    seen = set()
    for row in rows[neq:]:
        f = scale // row[-1]
        g = tuple(f * row[c] for c in free)
        if not any(g):
            return None, stats  # 0 >= 1: equations force this constraint empty
        if g not in seen:
            seen.add(g)
            reduced.append(g)
    z = _phase1(reduced, len(free), stats)
    if z is None:
        return None, stats
    t = [Fraction(0)] * nvars
    for c, zc in zip(free, z):
        t[c] = scale * zc
    for row, pc in zip(rows, piv_cols):
        t[pc] = -sum((row[c] * t[c] for c in free if row[c]), Fraction(0)) / row[pc]
    return t, stats
