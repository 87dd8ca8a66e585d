"""Core value types: exact scalars, symbolic reals, finite sets, linear forms.

Every quantity in this package is exact. Plain ints and ``fractions.Fraction``
carry the rational arithmetic; a real number that is not rational is a
:class:`RealElement`, a vector of rational coordinates over a declared basis
of reals that the caller asserts to be linearly independent over Q.
:func:`key_order`, the one order of symbolic reals, trusts each basis
approximation to half an ulp and orders exact integer intervals, raising
when two meet. Only the Dirichlet denominator search turns values into
floats, and no float decides an equality or an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import BudgetExceededError

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "RealElement"]

#: hard ceiling on |A|^h wherever ordered tuples are enumerated
TUPLE_BUDGET = 1_000_000


def as_rational(x) -> Rational:
    """Normalize a rational-valued input: ints stay ints, integral fractions
    collapse to int, anything else must already be a Fraction."""
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class BasisDecl:
    """A declared basis of real numbers, assumed Q-linearly independent.

    The first entry is always the literal constant 1, so rational numbers
    embed as first-coordinate vectors. Independence of the remaining entries
    is *trusted*, not verified; see the README warning.
    """

    labels: tuple[str, ...]
    approx: tuple[float, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.approx):
            raise ValueError("labels and approx lengths differ")
        if not self.labels:
            raise ValueError("basis must have dimension >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be distinct")
        if not all(math.isfinite(x) for x in self.approx):
            raise ValueError("basis approximations must be finite")
        if self.labels[0] != "1" or self.approx[0] != 1.0:
            raise ValueError("first basis element must be the constant 1 with approx 1.0")

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def element(self, coords: Sequence) -> "RealElement":
        return RealElement(self, tuple(as_rational(c) for c in coords))

    def unit(self, label: str) -> "RealElement":
        """The basis element named `label` as a RealElement."""
        i = self.labels.index(label)
        return self.element(tuple(1 if j == i else 0 for j in range(self.dimension)))


@dataclass(frozen=True)
class RealElement:
    """A real number given by exact rational coordinates over a BasisDecl.

    Equality is coordinate equality. Order comes from :func:`key_order`, on
    exact intervals around sum(coord_i * approx_i); two that meet are a hard
    error, not a silent misordering.
    """

    basis: BasisDecl
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.basis.dimension:
            raise ValueError("coordinate count does not match basis dimension")

    def __float__(self) -> float:
        return math.fsum(float(c) * a for c, a in zip(self.coords, self.basis.approx))

    def _check_basis(self, other: "RealElement"):
        if self.basis != other.basis:
            raise ValueError("RealElements over different bases cannot be combined")

    def __add__(self, other):
        if isinstance(other, RealElement):
            self._check_basis(other)
            return RealElement(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))
        q = as_rational(other)
        first = as_rational(self.coords[0] + q)
        return RealElement(self.basis, (first,) + self.coords[1:])

    __radd__ = __add__

    def __neg__(self):
        return RealElement(self.basis, tuple(-c for c in self.coords))

    def __sub__(self, other):
        return self + (-other if isinstance(other, RealElement) else -as_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, q):
        q = as_rational(q)
        return RealElement(self.basis, tuple(as_rational(q * c) for c in self.coords))

    __rmul__ = __mul__

    def _order_key(self, other) -> int:
        """-1, 0 or 1 as self <, =, > other, by key_order, which raises on a
        tie between unequal values. A rational other is embedded as (q, 0, ...)."""
        if not isinstance(other, RealElement):
            zeros = (0,) * (self.basis.dimension - 1)
            other = RealElement(self.basis, (as_rational(other),) + zeros)
        self._check_basis(other)
        if self.coords == other.coords:
            return 0
        columns, m = integer_columns([self, other])
        return -1 if key_order(list(zip(*columns)), m, self.basis)[0] == 0 else 1

    def __lt__(self, other):
        return self._order_key(other) < 0

    def __le__(self, other):
        return self._order_key(other) <= 0

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self) -> Rational:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return as_rational(self.coords[0])

    def ratio_to(self, other: "RealElement") -> Rational:
        """The rational c with self = c * other, if one exists."""
        self._check_basis(other)
        c = None
        for u, v in zip(self.coords, other.coords):
            if v == 0:
                if u != 0:
                    raise ValueError("not a rational multiple")
                continue
            r = as_rational(Fraction(u) / Fraction(v))
            if c is None:
                c = r
            elif c != r:
                raise ValueError("not a rational multiple")
        if c is None:
            raise ValueError("cannot divide by zero element")
        return c

    def __repr__(self):
        terms = [f"{c}*{l}" for c, l in zip(self.coords, self.basis.labels) if c != 0]
        return "<" + (" + ".join(terms) or "0") + ">"


def _exact(n: int, scale: int):
    q, r = divmod(n, scale)
    return q if r == 0 else Fraction(n, scale)


def decode(keys, scale: int, basis) -> list:
    """The exact values behind integer keys: each coordinate over scale, as
    rationals (basis None) or RealElements over the basis."""
    if basis is None:
        return keys if scale == 1 else [_exact(n, scale) for n in keys]
    if basis.dimension == 1:
        keys = [(n,) for n in keys]
    return [RealElement(basis, tuple(_exact(n, scale) for n in key)) for key in keys]


def key_order(keys, scale: int, basis: BasisDecl) -> list[int]:
    """Positions of distinct integer coordinate vectors (values times a
    positive scale) in increasing order of their values.

    Each value is an exact integer interval: the constant 1 is exact and
    every other basis approximation is trusted to within half an ulp, all
    over one power of two. Positions sort by centre; two neighbours whose
    intervals meet raise the tie ValueError.
    """
    ratios = [a.as_integer_ratio() for a in basis.approx]
    ratios += [(n, 2 * q) for n, q in (math.ulp(a).as_integer_ratio() for a in basis.approx[1:])]
    d = max(q for _, q in ratios)  # the denominators are powers of two
    ints = [n * d // q for n, q in ratios]
    weights, radii = ints[: basis.dimension], [0] + ints[basis.dimension :]
    centres = [sum(map(mul, key, weights)) for key in keys]
    widths = [sum(map(mul, map(abs, key), radii)) for key in keys]
    order = sorted(range(len(keys)), key=centres.__getitem__)
    for i, j in zip(order, order[1:]):
        if centres[j] - centres[i] <= widths[i] + widths[j]:
            a, b = ("(" + ", ".join(str(_exact(n, scale)) for n in keys[t]) + ")" for t in (i, j))
            raise ValueError(
                f"float tie between distinct symbolic reals {a} and {b}; "
                "basis approximations cannot order them"
            )
    return order


class FiniteSet:
    """A nonempty, strictly increasing, duplicate-free collection of scalars.

    All elements are of one kind: exact rationals, or RealElements over one
    shared basis. Construction sorts and deduplicates.
    """

    __slots__ = ("elements", "basis")

    def __init__(self, elements: Iterable):
        items = list(elements)
        if not items:
            raise ValueError("FiniteSet must be nonempty")
        if isinstance(items[0], RealElement):
            basis = items[0].basis
            for x in items:
                if not isinstance(x, RealElement):
                    raise TypeError("cannot mix symbolic reals with plain rationals")
                if x.basis != basis:
                    raise ValueError("elements lie over different bases")
            distinct = list({x.coords: x for x in items}.values())
            columns, m = integer_columns(distinct)
            order = key_order(list(zip(*columns)), m, basis)
            self.elements: tuple = tuple(distinct[i] for i in order)
            self.basis: BasisDecl | None = basis
        else:
            rats = sorted({as_rational(x) for x in items})
            self.elements = tuple(rats)
            self.basis = None

    @classmethod
    def _ordered(cls, values: Sequence, basis: BasisDecl | None) -> "FiniteSet":
        """The set of distinct normalized values already in increasing
        order, over basis (None for rationals); nothing is re-encoded or
        re-sorted, so the caller vouches for the order."""
        self = object.__new__(cls)
        self.elements = tuple(values)
        self.basis = basis
        return self

    @property
    def kind(self) -> str:
        return "rational" if self.basis is None else "real"

    def is_integer(self) -> bool:
        return self.basis is None and all(isinstance(x, int) for x in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self.elements

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSet)
            and self.basis == other.basis
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.basis, self.elements))

    def min(self):
        return self.elements[0]

    def max(self):
        return self.elements[-1]

    def __repr__(self):
        inner = ", ".join(str(x) for x in self.elements)
        return "{" + inner + "}"


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form sum(coeffs[j] * t_j) with rational coefficients."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(as_rational(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise ValueError("a linear form needs at least one variable")
        if all(c == 0 for c in coeffs):
            raise ValueError("the zero form is not allowed")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def __call__(self, args: Sequence[Scalar]) -> Scalar:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        acc = self.coeffs[0] * args[0]
        for c, t in zip(self.coeffs[1:], args[1:]):
            acc = acc + c * t
        return acc

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def max_abs_coeff(self) -> Rational:
        return max(abs(c) for c in self.coeffs)

    @classmethod
    def parse(cls, text: str) -> "LinearForm":
        """Parse comma-separated rational coefficients, e.g. "1,1,-1"."""
        coeffs = []
        for part in text.split(","):
            try:
                coeffs.append(Fraction(part.strip()))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad form coefficient {part.strip()!r}") from None
        return cls(tuple(coeffs))

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs, start=1):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else str(mag) + '*'}t{j}")
        return "".join(parts)


SUM_FORM = LinearForm((1, 1))
DIFFERENCE_FORM = LinearForm((1, -1))


def signed_form(form: LinearForm, flip: Iterable[int]) -> LinearForm:
    """The form with coefficients at the given 1-based positions negated."""
    flip = frozenset(flip)
    bad = [j for j in flip if not (1 <= j <= form.arity)]
    if bad:
        raise ValueError(f"flip indices out of range 1..{form.arity}: {sorted(bad)}")
    return LinearForm(tuple(-c if j in flip else c for j, c in enumerate(form.coeffs, 1)))


def all_sign_flips(form: LinearForm):
    """Yield (flip-set, realized form) over every subset of {1..h}."""
    h = form.arity
    for mask in range(1 << h):
        flip = frozenset(j + 1 for j in range(h) if (mask >> j) & 1)
        yield flip, signed_form(form, flip)


def clear_denominators(form: LinearForm) -> tuple[LinearForm, int]:
    """Scale a form by the least positive common denominator multiple.

    Returns (integral form, multiplier m), the form itself when it is
    integral. Scaling by a positive rational never changes which tuple
    pairs share a value.
    """
    if form.is_integral():
        return form, 1
    # coefficients are ints and Fractions, as_rational's normal forms
    m = math.lcm(*(c.denominator for c in form.coeffs))
    return LinearForm(tuple(as_rational(m * c) for c in form.coeffs)), m


def integer_columns(elements: Sequence[Scalar]) -> tuple[list, int]:
    """The elements' exact coordinates times one positive integer m, the lcm
    of their denominators, as integer columns in element order: one column
    for rationals, one per basis coordinate for RealElements.

    Returns (columns, m). The map x -> m*x is linear and injective, so an
    integral form's values over the columns coincide exactly where its
    values over the elements do; for rationals they also keep their order.
    """
    if isinstance(elements[0], RealElement):
        columns = list(zip(*(x.coords for x in elements)))
    else:
        columns = [elements]
    m = math.lcm(*(c.denominator for col in columns for c in col))
    return [[c.numerator * (m // c.denominator) for c in col] for col in columns], m


def affine_image(A: FiniteSet, lam, mu) -> FiniteSet:
    """The set {lam*a + mu : a in A}; lam must be nonzero so the map is
    injective. mu may be rational even when A is symbolic (the constant-1
    basis coordinate absorbs it)."""
    lam = as_rational(lam)
    mu = as_rational(mu)
    if lam == 0:
        raise ValueError("lam = 0 does not give an affine bijection")
    return FiniteSet(lam * a + mu for a in A)


def check_tuple_budget(k: int, h: int):
    if k**h > TUPLE_BUDGET:
        raise BudgetExceededError(
            f"|A|^h = {k}^{h} exceeds the enumeration budget of {TUPLE_BUDGET}"
        )


def value_table(form: LinearForm, elements: Sequence[Scalar]) -> list:
    """Values of the form over all ordered tuples, in lexicographic index
    order (first slot most significant), by partial sums in O(k + k^2 + ...
    + k^h) additions. images.form_keys calls it on integer columns."""
    check_tuple_budget(len(elements), form.arity)
    scaled = [[c * e for e in elements] for c in form.coeffs]
    vals = scaled[0]
    for layer in scaled[1:]:
        vals = [v + w for v in vals for w in layer]
    return vals
