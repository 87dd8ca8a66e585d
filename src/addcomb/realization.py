"""Constructing a set of positive integers that preserves all form
coincidences of a given finite set of (symbolic) reals.

Three independent routes produce the integer set:

* ``group``     scale coordinates integral, then base-lambda encode Z^d -> Z;
* ``dirichlet`` simultaneous rational approximation q*a_i ~ b_i with a
                residual bound small enough to separate distinct form values;
* ``lp``        exact rational feasibility of the full coincidence-order
                constraint system, solved by phase-1 simplex.

Every route ends the same way: an exhaustive exact verification that the
element pairing preserves coincidences (the certificate). Each route has
already computed the exact integer keys of the form's values over A, once,
and the certificate compares those with B's. The float work in the
dirichlet route can only cause retries, never a wrong accepted answer.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ApproximationError, BudgetExceededError, CertificateError
# form_image and is_phi_isomorphism stay module attributes: perfbench/spans.py wraps them here
from .images import form_image, form_keys, image_order  # noqa: F401
from .isomorphism import IsoVerdict, SetBijection, _verdict, is_phi_isomorphism  # noqa: F401
from .model import FiniteSet, LinearForm, clear_denominators, integer_columns
from .simplex import feasible_point

#: hard ceiling on k^2h, the ordered tuple pairs realize_lp orders
PAIR_BUDGET = 10**6

#: values of q in the dirichlet scan's first block; each next block holds
#: twice as many, up to Q_BLOCK_MAX
Q_BLOCK_MIN = 1 << 10
Q_BLOCK_MAX = 1 << 18


def _exact_int(x) -> int:
    if isinstance(x, int):
        return x
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"lattice coordinate {x} is not an integer")
    return int(f)


@dataclass(frozen=True)
class LatticeSet:
    """A finite set of distinct integer vectors in Z^d."""

    dimension: int
    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(_exact_int(x) for x in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("lattice set must be nonempty")
        if any(len(p) != self.dimension for p in pts):
            raise ValueError("point dimension mismatch")
        if len(set(pts)) != len(pts):
            raise ValueError("lattice points must be distinct")


@dataclass(frozen=True)
class EmbeddingParams:
    a_star: int
    phi_star: int
    arity: int
    lam: int


@dataclass(frozen=True)
class DirichletParams:
    delta_star: float
    epsilon: Fraction
    q: int
    thetas: tuple


@dataclass(frozen=True)
class LpParams:
    coefvecs: int
    equations: int
    inequalities: int
    pivots: int


@dataclass(frozen=True)
class RealizationResult:
    B: FiniteSet
    method: str
    certificate: IsoVerdict
    mapping: SetBijection
    params: object


def translate_positive(B: FiniteSet) -> FiniteSet:
    """Shift an integer set up so its minimum is at least 1."""
    if not B.is_integer():
        raise ValueError("translate_positive applies to integer sets")
    lo = B.min()
    if lo >= 1:
        return B
    # a translation keeps the order, so the shifted values need no sort
    return FiniteSet._ordered([b + (1 - lo) for b in B], None)


def lattice_embed(A: LatticeSet, form: LinearForm) -> tuple[FiniteSet, EmbeddingParams]:
    """Encode lattice points injectively into Z by digits in base lambda.

    lambda is the smallest integer strictly above 2 * a* * phi* * h + 1,
    which makes the per-coordinate carry terms too small to create or
    destroy any coincidence of the form.
    """
    values, params = _base_encode(A, form)
    return FiniteSet(values), params


def _base_encode(A: LatticeSet, form: LinearForm) -> tuple[list, EmbeddingParams]:
    """lattice_embed's integers, one per point in point order."""
    if not form.is_integral():
        raise ValueError("clear the form's denominators before lattice embedding")
    a_star = max(abs(x) for p in A.points for x in p)
    phi_star = int(form.max_abs_coeff())
    h = form.arity
    lam = 2 * a_star * phi_star * h + 2
    powers = [lam**i for i in range(A.dimension)]
    values = [sum(x * w for x, w in zip(p, powers)) for p in A.points]
    if len(set(values)) != len(values):
        raise CertificateError("base encoding collided; lambda bound violated")
    return values, EmbeddingParams(a_star, phi_star, h, lam)


def _finish(
    A: FiniteSet, form: LinearForm, akeys: list, raw_values: list, method: str, params
) -> RealizationResult:
    """Translate positive, build the pairing, and verify it exhaustively:
    the route's keys of A (images.form_keys) against B's, by the comparison
    is_phi_isomorphism makes."""
    raw = FiniteSet(raw_values)
    if len(raw) != len(raw_values):
        raise CertificateError(f"{method} produced colliding images")
    # a translation keeps the order, so each value keeps its rank in B
    rank = {v: i for i, v in enumerate(raw)}
    B = translate_positive(raw)
    mapping = SetBijection(A, B, tuple(rank[v] for v in raw_values))
    bkeys, _ = form_keys(form, mapping.mapped_elements())
    certificate, _ = _verdict(akeys, bkeys, len(A), form.arity)
    if not certificate.is_isomorphism:
        raise CertificateError(
            f"{method} certificate failed at witness {certificate.witness}"
        )
    return RealizationResult(B, method, certificate, mapping, params)


def realize_group(A: FiniteSet, form: LinearForm) -> RealizationResult:
    """Clear coordinate denominators, then lattice-embed.

    Scaling by a positive integer and the coordinate map itself both
    preserve coincidences exactly, so only the embedding needs a certificate.
    """
    columns, _ = integer_columns(A.elements)
    lattice = LatticeSet(len(columns), list(zip(*columns)))
    iform, _ = clear_denominators(form)
    raw, params = _base_encode(lattice, iform)
    keys, _ = form_keys(iform, A.elements)
    return _finish(A, form, keys, raw, "group", params)


def _fill_consecutive(out: np.ndarray, start: int) -> None:
    """out[j] = start + j, exact while start + len(out) < 2^53. Past the
    first Q_BLOCK_MIN entries the filled prefix is doubled in place, so a
    large block needs no temporary."""
    done = min(len(out), Q_BLOCK_MIN)
    out[:done] = np.arange(start, start + done, dtype=np.float64)
    while done < len(out):
        m = min(done, len(out) - done)
        np.add(out[:m], done, out=out[done : done + m])
        done += m


@functools.cache
def _scan_buffer() -> np.ndarray:
    """The q-scan's four rows (the q still in the scan, their max residual,
    and two of scratch, the roles moving between rows as the scan drops q):
    one buffer per process, so two threads must not scan at once. Its pages
    are touched only as far as the largest block reaches."""
    return np.empty((4, Q_BLOCK_MAX), dtype=np.float64)


def _scan_block(lo: int, hi: int, approx: list, threshold: float):
    """The q in lo..hi, in increasing order, whose max residual
    |q*v - rint(q*v)| over the floats v of approx is below threshold, and
    those maxima: two row prefixes of the scan buffer.

    The first float runs over the whole block; each later one only over the
    q still below threshold, which are compressed into the buffer's rows
    first. An infinite threshold keeps every q, nan residuals included.
    """
    qs, worst, x, spare = _scan_buffer()
    m = hi - lo + 1
    _fill_consecutive(qs[:m], lo)
    if not approx:
        worst[:m] = 0.0
        return qs[:m], worst[:m]
    first, *rest = approx
    np.multiply(qs[:m], first, out=worst[:m])
    worst[:m] -= np.rint(worst[:m], out=x[:m])
    np.abs(worst[:m], out=worst[:m])
    for v in rest:
        if threshold < math.inf:
            keep = np.flatnonzero(worst[:m] < threshold)
            if len(keep) < m:
                m = len(keep)
                # mode="clip" (keep is in range) writes into out unbuffered
                np.take(qs, keep, out=x[:m], mode="clip")
                np.take(worst, keep, out=spare[:m], mode="clip")
                qs, worst, x, spare = x, spare, qs, worst
            if m == 0:
                break
        np.multiply(qs[:m], v, out=x[:m])
        x[:m] -= np.rint(x[:m], out=spare[:m])
        np.abs(x[:m], out=x[:m])
        np.maximum(worst[:m], x[:m], out=worst[:m])
    return qs[:m], worst[:m]


def _key_floats(keys, scale: int, basis) -> list:
    """The float of the value behind each integer key, bit for bit the
    float of its decoded value: n / scale, correctly rounded as
    float(Fraction) is, for rationals and dimension-1 keys, and otherwise
    the fsum of n / scale times each basis approximation, as
    float(RealElement) takes it."""
    if basis is None or basis.dimension == 1:
        return [n / scale for n in keys]
    return [math.fsum(n / scale * a for n, a in zip(key, basis.approx)) for key in keys]


def realize_dirichlet(A: FiniteSet, form: LinearForm, q_bound: int = 10**9) -> RealizationResult:
    """Find q with every q*a_i within epsilon of an integer b_i, epsilon
    chosen so integer-side coincidences match exact-side ones.

    The scan is the plain increasing one over q, block-vectorized on the
    float approximations: the first block holds Q_BLOCK_MIN values of q and
    each next one twice as many, up to Q_BLOCK_MAX, so a small q is found
    after a small block. Within a block each element runs only on the q
    that no earlier element has ruled out, that is whose residual so far is
    below max(epsilon, the best max-residual of the earlier blocks); a q
    dropped there is no candidate and cannot lower that best, so the q found
    and the best reported are those of the full scan. Integral floats have
    residual 0 at every q and are skipped, except in a block where some
    q*a_i overflows, which runs every element on every q. The blocks are
    rows of one buffer kept for the process. The float gap is read from A's
    form keys, ordered once, and the certificate reuses those keys. A
    certificate failure (possible only if the float gap estimate lied)
    halves epsilon and resumes the scan after the rejected q.
    """
    k = len(A)
    iform, _ = clear_denominators(form)
    keys, scale = form_keys(iform, A.elements)
    if k == 1:
        return _finish(A, form, keys, [1], "dirichlet", None)

    h = iform.arity
    phi_star = int(iform.max_abs_coeff())
    try:
        order = image_order(dict.fromkeys(keys), scale, A.basis)
    except ValueError as exc:
        raise ApproximationError(f"cannot order the form image: {exc}") from None
    elems = A.elements
    try:
        floats = _key_floats(order, scale, A.basis)
        approx = [float(a) for a in elems]
        finite = all(map(math.isfinite, floats + approx))
    except (OverflowError, ValueError):  # ValueError: fsum met inf - inf
        finite = False
    if not finite:
        raise ApproximationError(
            "an element or form value is too large for a float; "
            "the denominator search needs float approximations"
        ) from None
    gap = min(b - a for a, b in zip(floats, floats[1:])) if len(floats) > 1 else 1.0
    if gap < 1e-12:
        raise ApproximationError(
            f"minimum image gap {gap:.3e} is indistinguishable from 0 in floats; "
            "elements are too close for the denominator search"
        )
    delta_star = gap * (1.0 - 1e-6)
    eps = Fraction(min(delta_star, 1.0)) / (2 * h * phi_star) / 2

    if A.basis is None:
        rational_elems = list(elems)
    elif all(x.is_rational() for x in elems):
        rational_elems = [x.rational_value() for x in elems]
    else:
        rational_elems = None  # genuinely irrational: float residuals only
    fractional = [v for v in approx if not v.is_integer()]
    top = max(map(abs, approx))
    best_residual = math.inf
    block = Q_BLOCK_MIN
    q = 0
    while q < q_bound:
        eps_f = float(eps)
        lo = q + 1
        hi = min(q + block, q_bound)
        # a q*a_i past the float range makes inf, then its residual nan:
        # such a block keeps every q and reports nan, as the full scan does
        overflow = math.isinf(hi * top)
        with np.errstate(over="ignore", invalid="ignore"):
            if overflow:
                qs, worst = _scan_block(lo, hi, approx, math.inf)
            else:
                qs, worst = _scan_block(lo, hi, fractional, max(eps_f, best_residual))
        if len(worst):
            best_residual = min(best_residual, float(worst.min()))  # min(b, nan) is b
        q = hi
        block = min(2 * block, Q_BLOCK_MAX)
        for qc in map(int, qs[worst < eps_f].tolist()):
            if rational_elems is not None:
                bs = [round(qc * Fraction(a)) for a in rational_elems]
                thetas = [qc * Fraction(a) - b for a, b in zip(rational_elems, bs)]
                if any(abs(t) >= eps for t in thetas):
                    continue
            else:
                bs = [round(qc * float(a)) for a in elems]
                thetas = [qc * float(a) - b for a, b in zip(elems, bs)]
            if len(set(bs)) != k:
                continue
            params = DirichletParams(
                delta_star, eps, qc, tuple(float(t) for t in thetas)
            )
            try:
                return _finish(A, form, keys, bs, "dirichlet", params)
            except CertificateError:
                # float delta* overestimated the safe gap; tighten and resume
                eps = eps / 2
                q = qc
                break
        else:
            if overflow:  # no finite q of this block answered
                raise ApproximationError(
                    f"q * a overflows a float for some q <= {hi}; "
                    "the denominator search needs finite residuals"
                )
    raise ApproximationError(
        f"no q <= {q_bound} reached residuals below {float(eps):.3e} "
        f"(best max-residual seen {best_residual:.3e})"
    )


def realize_lp(A: FiniteSet, form: LinearForm) -> RealizationResult:
    """Solve the coincidence-order constraint system exactly.

    Every ordered pair of index tuples contributes an equation (values equal
    on A) or a strict inequality (homogenized to >= 1). A pair's constraint
    depends only on the two slot-coefficient vectors, so constraints are
    built per distinct vector pair; within a value class only differences to
    the class representative are kept, and between classes only the
    consecutive chain, which implies the rest by transitivity. The solution
    is checked against the class structure and then certificate-verified.
    """
    k = len(A)
    h = form.arity
    if k ** (2 * h) > PAIR_BUDGET:
        raise BudgetExceededError(
            f"k^2h = {k}^{2 * h} exceeds the constraint budget {PAIR_BUDGET}"
        )
    iform, _ = clear_denominators(form)
    coeffs = iform.coeffs

    # group the tuples' coefficient vectors by the key of their value
    keys, scale = form_keys(iform, A.elements)
    groups = defaultdict(set)
    for tup, key in zip(itertools.product(range(k), repeat=h), keys):
        v = [0] * k
        for c, i in zip(coeffs, tup):
            v[i] += c
        groups[key].add(tuple(v))
    try:
        order = image_order(groups, scale, A.basis)
    except ValueError as exc:
        raise ApproximationError(f"cannot order the form values: {exc}") from None
    classes = [sorted(groups[key]) for key in order]

    equations = []
    for cls in classes:
        rep = cls[0]
        for other in cls[1:]:
            equations.append(tuple(a - b for a, b in zip(other, rep)))
    inequalities = [
        tuple(a - b for a, b in zip(nxt[0], cur[0]))
        for cur, nxt in zip(classes, classes[1:])
    ]

    t, stats = feasible_point(equations, inequalities, k)
    if t is None:
        # A itself satisfies the system over the reals, and rational points
        # are dense in its solution set, so infeasibility means a bug.
        raise CertificateError("constraint system infeasible; internal error")
    m = math.lcm(*(x.denominator for x in t))
    raw = [x.numerator * (m // x.denominator) for x in t]
    _check_class_structure(classes, raw)
    params = LpParams(sum(map(len, classes)), stats.equations, stats.inequalities, stats.pivots)
    return _finish(A, form, keys, raw, "lp", params)


def _check_class_structure(classes, raw) -> None:
    """The integer solution (a positive multiple of the rational one) must
    reproduce every pairwise relation: equal dot products inside each class,
    strictly increasing across classes."""
    prev = None
    for cls in classes:
        vals = {sum(c * x for c, x in zip(vec, raw) if c) for vec in cls}
        if len(vals) != 1:
            raise CertificateError("solution breaks an equality constraint")
        (val,) = vals
        if prev is not None and not val > prev:
            raise CertificateError("solution breaks an order constraint")
        prev = val


#: ``auto`` is the group route. Its certificate compares exact coordinate
#: keys with their base-lambda encoding, which the lambda bound makes
#: injective on form values, so it does not fail and needs no fallback
METHODS = {
    "group": realize_group,
    "dirichlet": realize_dirichlet,
    "lp": realize_lp,
    "auto": realize_group,
}


def realize(A: FiniteSet, form: LinearForm, method: str = "auto") -> RealizationResult:
    try:
        fn = METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}") from None
    return fn(A, form)
