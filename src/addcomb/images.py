"""Images of linear forms over finite sets, and the MSTD predicate.

The image of a form over A is the value set over all |A|^h ordered tuples;
the multiplicity of an image value x counts the ordered tuples realizing it.
Sumsets and difference sets are the h = 2 special cases.

Form values are computed here, for the whole package, as exact integer keys
that coincide where the values do; keys are ordered as they are, and only
a shown key is decoded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .model import (
    DIFFERENCE_FORM,
    SUM_FORM,
    FiniteSet,
    LinearForm,
    Scalar,
    clear_denominators,
    decode,
    integer_columns,
    key_order,
    signed_form,
    value_table,
)


def form_keys(form: LinearForm, elements, cleared=None) -> tuple[list, int]:
    """Exact integer keys of the form's values over all ordered tuples of the
    elements, in tuple order, and their scale m * the form's multiplier (both
    positive): int keys for one integer column, int tuples for several.
    cleared is integer_columns(elements), when the caller already has it."""
    iform, mult = clear_denominators(form)
    columns, m = integer_columns(elements) if cleared is None else cleared
    tables = [value_table(iform, col) for col in columns]
    keys = tables[0] if len(tables) == 1 else list(zip(*tables))
    return keys, m * mult


def image_order(keys, scale: int, basis) -> list:
    """The distinct keys in increasing order of their values: rational and
    dimension-1 keys are ints and sort as such, the others by
    model.key_order (ValueError on a tie)."""
    if basis is None or basis.dimension == 1:
        return sorted(keys)
    keys = list(keys)
    return [keys[i] for i in key_order(keys, scale, basis)]


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
    """Evaluate the form over all ordered tuples of A and group by value; the
    distinct keys are ordered once, by image_order, and each is decoded once
    (ValueError on a float tie)."""
    keys, scale = form_keys(form, A.elements)
    counts = Counter(keys)
    order = image_order(counts, scale, A.basis)
    values = decode(order, scale, A.basis)
    image = FiniteSet._ordered(values, A.basis)
    return ImageReport(image, Counter(dict(zip(values, map(counts.__getitem__, order)))))


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
