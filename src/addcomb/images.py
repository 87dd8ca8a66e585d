"""Images of linear forms over finite sets, and the MSTD predicate.

The image of a form over A is the value set over all |A|^h ordered tuples;
the multiplicity of an image value x counts the ordered tuples realizing it.
Sumsets and difference sets are the h = 2 special cases.

Form values are computed here, for the whole package, as exact integer keys
that coincide where the values do; only a shown or ordered key is decoded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DIFFERENCE_FORM,
    SUM_FORM,
    FiniteSet,
    LinearForm,
    RealElement,
    Scalar,
    clear_denominators,
    integer_columns,
    real_order,
    signed_form,
    value_table,
)


def form_keys(form: LinearForm, elements) -> tuple[list, int]:
    """Exact integer keys of the form's values over all ordered tuples of the
    elements, in tuple order, and their scale m * the form's multiplier (both
    positive): int keys for one integer column, int tuples for several."""
    iform, mult = clear_denominators(form)
    columns, m = integer_columns(elements)
    tables = [value_table(iform, col) for col in columns]
    keys = tables[0] if len(tables) == 1 else list(zip(*tables))
    return keys, m * mult


def _exact(n: int, scale: int):
    q, r = divmod(n, scale)
    return q if r == 0 else Fraction(n, scale)


def decode(keys, scale: int, basis) -> list:
    """The exact values behind keys: each coordinate over scale, as
    rationals (basis None) or RealElements over the basis."""
    if basis is None:
        return keys if scale == 1 else [_exact(n, scale) for n in keys]
    if basis.dimension == 1:
        keys = [(n,) for n in keys]
    return [RealElement(basis, tuple(_exact(n, scale) for n in key)) for key in keys]


def image_order(keys, scale: int, basis) -> tuple[list, list]:
    """The distinct keys in increasing order of their values, and the values;
    a symbolic order comes from model.real_order (ValueError on a float tie)."""
    if basis is None:
        ordered = sorted(keys)
        return ordered, decode(ordered, scale, None)
    keys = list(keys)
    values = decode(keys, scale, basis)
    order = real_order(values)
    return [keys[i] for i in order], [values[i] for i in order]


@dataclass(frozen=True)
class ImageReport:
    """The image set of a form over A plus the tuple count behind each value."""

    image: FiniteSet
    multiplicities: dict

    @property
    def size(self) -> int:
        return len(self.image)

    def multiplicity(self, x) -> int:
        return self.multiplicities.get(x, 0)


def form_image(form: LinearForm, A: FiniteSet) -> ImageReport:
    """Evaluate the form over all ordered tuples of A and group by value; each
    distinct key is decoded once, and FiniteSet orders the values."""
    keys, scale = form_keys(form, A.elements)
    counts = Counter(keys)
    values = decode(list(counts), scale, A.basis)
    return ImageReport(FiniteSet(values), Counter(dict(zip(values, counts.values()))))


def rep_function(form: LinearForm, A: FiniteSet, x) -> int:
    """Number of ordered tuples in A^h whose form value is x."""
    return form_image(form, A).multiplicity(x)


@dataclass(frozen=True)
class MstdVerdict:
    sum_count: int
    diff_count: int
    is_mstd: bool


def is_mstd(A: FiniteSet) -> MstdVerdict:
    """Compare |A+A| against |A-A| as counts of distinct keys; MSTD is strict."""
    s = len(set(form_keys(SUM_FORM, A.elements)[0]))
    d = len(set(form_keys(DIFFERENCE_FORM, A.elements)[0]))
    return MstdVerdict(s, d, s > d)


@dataclass(frozen=True)
class SymmetryWitness:
    center_sum: Scalar | None
    present: bool


def symmetry_center(A: FiniteSet) -> SymmetryWitness:
    """Detect whether A = {s - a : a in A}.

    For a sorted set this holds iff every mirror pair a_i, a_{k+1-i} has the
    same sum, which is then s = min + max.
    """
    els = A.elements
    s = els[0] + els[-1]
    k = len(els)
    for i in range(k // 2 + 1):
        if els[i] + els[k - 1 - i] != s:
            return SymmetryWitness(None, False)
    return SymmetryWitness(s, True)


def check_symmetric_equality(A: FiniteSet, form: LinearForm, flip) -> bool:
    """For symmetric A, the image sizes of the form and any sign-flipped
    variant must agree, and the images differ by the fixed shift
    s* = sum over flipped positions of coeff_j * s. Returns True when both
    facts hold; a False return signals an arithmetic bug, not a property of A.
    """
    witness = symmetry_center(A)
    if not witness.present:
        raise ValueError("set is not symmetric; the size equality is not guaranteed")
    flip = frozenset(flip)
    flipped = signed_form(form, flip)
    img = form_image(form, A).image
    img_flipped = form_image(flipped, A).image
    if len(img) != len(img_flipped):
        return False
    s = witness.center_sum
    shift = None
    for j in sorted(flip):
        term = form.coeffs[j - 1] * s
        shift = term if shift is None else shift + term
    if shift is None:
        return img == img_flipped
    shifted = FiniteSet(shift + y for y in img_flipped)
    return img == shifted
