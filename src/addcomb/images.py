"""Images of linear forms over finite sets, and the MSTD predicate.

The image of a form over A is the value set over all |A|^h ordered tuples;
the multiplicity of an image value x counts the ordered tuples realizing it.
Sumsets and difference sets are the h = 2 special cases.
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
    signed_form,
    value_table,
)


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
    """Evaluate the form over all ordered tuples of A and group by value."""
    counts = Counter(value_table(form, A.elements))
    return ImageReport(FiniteSet(counts), counts)


def rep_function(form: LinearForm, A: FiniteSet, x) -> int:
    """Number of ordered tuples in A^h whose form value is x."""
    return form_image(form, A).multiplicity(x)


@dataclass(frozen=True)
class MstdVerdict:
    sum_count: int
    diff_count: int
    is_mstd: bool


def is_mstd(A: FiniteSet) -> MstdVerdict:
    """Compare |A+A| against |A-A|; "more sums than differences" is strict."""
    s = form_image(SUM_FORM, A).size
    d = form_image(DIFFERENCE_FORM, A).size
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
