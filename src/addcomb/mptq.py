"""Products versus quotients: the multiplicative mirror of sums versus
differences. Exponentiation base c carries an additive set to a
multiplicative one and back, turning each question into the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import FiniteSet, as_rational


class PositiveSet:
    """Strictly increasing positive rationals, duplicate-free."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        try:
            items = sorted({as_rational(x) for x in elements})
        except TypeError:
            raise ValueError("products and quotients need rational elements") from None
        if not items:
            raise ValueError("PositiveSet must be nonempty")
        if items[0] <= 0:
            raise ValueError("all elements must be positive")
        self.elements: tuple = tuple(items)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return isinstance(other, PositiveSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return "{" + ", ".join(str(x) for x in self.elements) + "}"


@dataclass(frozen=True)
class MptqVerdict:
    product_count: int
    quotient_count: int
    is_mptq: bool


def product_quotient_counts(B: PositiveSet) -> MptqVerdict:
    """Exact product and quotient set sizes over all ordered pairs."""
    prods = set()
    quots = set()
    for a in B:
        for b in B:
            prods.add(a * b)
            quots.add(Fraction(a) / Fraction(b))
    return MptqVerdict(len(prods), len(quots), len(prods) > len(quots))


def exp_transport(A: FiniteSet, c: int) -> PositiveSet:
    """{c^a : a in A} with exact arithmetic; negative exponents give exact
    unit fractions, so the round trip through log_transport is lossless."""
    if c < 2:
        raise ValueError("base must be an integer >= 2")
    if not A.is_integer():
        raise ValueError("exponent set must consist of integers")
    return PositiveSet(
        c**a if a >= 0 else Fraction(1, c ** (-a)) for a in A
    )


def _int_log(x: int, c: int) -> int:
    e = 0
    while x % c == 0:
        x //= c
        e += 1
    if x != 1:
        raise ValueError(f"{x} remains after dividing out powers of {c}")
    return e


def log_transport(B: PositiveSet, c: int) -> FiniteSet:
    """Exact exponents of a set of pure powers of c."""
    if c < 2:
        raise ValueError("base must be an integer >= 2")
    exponents = []
    for b in B:
        f = Fraction(b)
        if f.denominator == 1:
            exponents.append(_int_log(f.numerator, c))
        elif f.numerator == 1:
            exponents.append(-_int_log(f.denominator, c))
        else:
            raise ValueError(f"{b} is not an integer power of {c}")
    return FiniteSet(exponents)
