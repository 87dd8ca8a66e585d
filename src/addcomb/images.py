"""Images of linear forms over finite sets, and the MSTD predicate.

The image of a form over A is the value set over all |A|^h ordered tuples;
the multiplicity of an image value x counts the ordered tuples realizing it.
Sumsets and difference sets are the h = 2 special cases.

Form values are computed here, for the whole package, as exact integer keys
that coincide where the values do: one key table per form and set, a row
per integer column and a column per ordered tuple (form_keys). Equal keys
are found by one sort of the table packed into one exact row (key_runs);
the sort need not be stable, since each key's first-seen column is
recovered from its run in linear time. Keys are ordered as they are, and
only a shown key is decoded.

This module alone decides how a table's size picks its representation.
At most SMALL_TABLE tuples, value_table sums a column's values as Python
ints, and ordered_keys and compare_key_tables work on the keys as Python
values, where numpy's per-call cost exceeds the work; every other table,
and key_runs at every size, is handled as numpy arrays.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError
from .model import (
    INT64_BOUND,
    DIFFERENCE_FORM,
    SUM_FORM,
    FiniteSet,
    LinearForm,
    Scalar,
    clear_denominators,
    decode,
    int_array,
    integer_columns,
    key_array,
    key_order,
    signed_form,
)

#: hard ceiling on |A|^h wherever ordered tuples are enumerated
TUPLE_BUDGET = 1_000_000
#: tables of at most this many tuples are built and compared as Python
#: values, which costs less there than numpy's calls (README, "Performance
#: notes")
SMALL_TABLE = 64


def value_table(form: LinearForm, elements: Sequence[int]) -> np.ndarray:
    """Values of an integral form over all ordered tuples of an integer
    column, in lexicographic index order (first slot most significant), as
    one numpy array built by broadcasting one slot at a time, or summed as
    Python ints and converted once at most SMALL_TABLE tuples. It is int64
    when sum|c_j| * max|x|, which bounds every partial sum, is below 2^63,
    checked before the build, and dtype=object past it. form_keys calls it
    once per integer column."""
    k, h = len(elements), form.arity
    if k**h > TUPLE_BUDGET:
        raise BudgetExceededError(
            f"|A|^h = {k}^{h} exceeds the enumeration budget of {TUPLE_BUDGET}"
        )
    # max(.., 1): a coefficient past 2^63 cannot enter an int64 array
    bound = sum(map(abs, form.coeffs)) * max(max(map(abs, elements)), 1)
    if k**h <= SMALL_TABLE:
        first = form.coeffs[0]
        vals = [first * e for e in elements]
        for c in form.coeffs[1:]:
            layer = [c * e for e in elements]
            vals = [v + w for v in vals for w in layer]
        return int_array(vals, bound)
    x = int_array(elements, bound)
    first, *rest = (x if c == 1 else c * x for c in form.coeffs)
    for layer in rest:
        first = np.add.outer(first, layer).ravel()
    return first


def form_keys(form: LinearForm, elements, cleared=None) -> tuple[np.ndarray, int]:
    """Exact integer keys of the form's values over all ordered tuples of the
    elements, and their scale m * the form's multiplier (both positive): a
    key table with a row per integer column of the elements (one for
    rationals, one per basis coordinate) and a column per tuple, in tuple
    order. It is int64 unless some column's value_table needs dtype=object.
    cleared is integer_columns(elements), when the caller already has it."""
    iform, mult = clear_denominators(form)
    columns, m = integer_columns(elements) if cleared is None else cleared
    tables = [value_table(iform, col) for col in columns]
    # one column needs no copy, only a second axis
    return (tables[0][np.newaxis] if len(tables) == 1 else np.array(tables)), m * mult


def _packed_row(table: np.ndarray) -> np.ndarray:
    """A key table as one row whose entries are equal exactly where the
    table's columns are: a table of several rows becomes one mixed-radix
    row, each row less its minimum, by Horner's rule over the row spans.
    The spans and their product are Python ints, found before any int64
    arithmetic: the row is int64 while the product is below 2^63, and the
    table is converted to dtype=object (Python ints) past it, before the
    subtraction, so no entry can wrap."""
    if len(table) == 1:
        return table[0]
    lows = table.min(axis=1).tolist()
    spans = [high - low + 1 for low, high in zip(lows, table.max(axis=1).tolist())]
    if math.prod(spans) >= INT64_BOUND:
        table = table.astype(object)
    row = table[0] - lows[0]
    for line, low, span in zip(table[1:], lows[1:], spans[1:]):
        row *= span
        row += line - low
    return row


def key_runs(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct keys of a key table in first-seen order, by one sort:
    numpy's default argsort of the table as one row (_packed_row). The sort
    need not be stable: each run's first column is the least position in
    it, and the first-seen rank of a run is the number of runs' first
    columns up to its own, one cumsum over a mark of the columns.

    Returns (first, counts, run): the position of each distinct key's
    first column, the number of columns holding it, and for every column
    the index of its key in that order.
    """
    n = table.shape[1]
    row = _packed_row(table)
    order = row.argsort()
    ordered = row[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    heads = starts.nonzero()[0]
    sizes = np.empty_like(heads)
    sizes[:-1] = heads[1:] - heads[:-1]
    sizes[-1] = n - heads[-1]
    firsts = np.minimum.reduceat(order, heads)
    # the first columns in column order are the runs in first-seen order
    mark = np.zeros(n, dtype=bool)
    mark[firsts] = True
    seen = mark.cumsum()[firsts] - 1
    counts = np.empty_like(sizes)
    counts[seen] = sizes
    run = np.empty(n, dtype=np.intp)
    run[order] = seen.repeat(sizes)
    return mark.nonzero()[0], counts, run


def key_list(table: np.ndarray) -> list:
    """A key table's keys as hashable Python values in tuple order: ints
    for one row, int tuples for several."""
    rows = table.tolist()
    return rows[0] if len(rows) == 1 else list(zip(*rows))


def ordered_keys(table: np.ndarray, scale: int, basis) -> list:
    """The distinct keys of a key table as Python values (as key_list gives
    them), in increasing order of their values: image_order of the
    distinct keys in first-seen order (ValueError on a tie). At most
    SMALL_TABLE columns, a dict over its key_list finds them, and they are
    sorted as Python values."""
    if table.shape[1] <= SMALL_TABLE:
        distinct = list(dict.fromkeys(key_list(table)))
        if basis is None or basis.dimension == 1:
            return sorted(distinct)
        order = key_order(key_array(list(zip(*distinct))), scale, basis)
        return [distinct[i] for i in order.tolist()]
    distinct = table[:, key_runs(table)[0]]
    return key_list(distinct[:, image_order(distinct, scale, basis)])


def compare_key_tables(akeys: np.ndarray, bkeys: np.ndarray) -> tuple:
    """Whether the second key table is constant on every class of equal
    keys of the first, column by column (a homomorphism), and whether both
    also have as many classes (an isomorphism), with both tables' key_runs:
    the second's run of every column is that of its first-side run's first
    column. At most SMALL_TABLE columns, the distinct key pairs are counted
    as Python values instead, and the runs are None."""
    if akeys.shape[1] <= SMALL_TABLE:
        alist, blist = key_list(akeys), key_list(bkeys)
        pairs = len(set(zip(alist, blist)))
        homomorphism = len(set(alist)) == pairs
        return homomorphism, homomorphism and len(set(blist)) == pairs, None
    aruns, bruns = key_runs(akeys), key_runs(bkeys)
    brun = bruns[2]
    homomorphism = bool((brun == brun[aruns[0]][aruns[2]]).all())
    return homomorphism, homomorphism and len(bruns[0]) == len(aruns[0]), (aruns, bruns)


def paired_runs(akeys: np.ndarray, bkeys: np.ndarray, runs) -> tuple:
    """The distinct keys of the first table in first-seen order (as in
    form_image, so both name a float tie alike), their multiplicities, the
    second table's key at each and its multiplicity there, from the runs
    compare_key_tables returned (found here for None)."""
    (afirst, acounts, _), (_, bcounts, brun) = runs or (key_runs(akeys), key_runs(bkeys))
    bhead = brun[afirst]
    return akeys[:, afirst], acounts, bkeys[:, afirst], bcounts[bhead]


def image_order(keys: np.ndarray, scale: int, basis) -> np.ndarray:
    """Positions of distinct keys, the columns of a key array, in increasing
    order of their values: rational and dimension-1 keys are integers and
    sort as such, by numpy's default sort (the keys are distinct, so any
    sort gives the one order), the others by model.key_order (ValueError
    on a tie)."""
    if basis is None or basis.dimension == 1:
        return keys[0].argsort()
    return key_order(keys, scale, basis)


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
    first, counts, _ = key_runs(keys)
    distinct = keys[:, first]
    order = image_order(distinct, scale, A.basis)
    values = decode(distinct[:, order], scale, A.basis)
    image = FiniteSet._ordered(values, A.basis)
    return ImageReport(image, Counter(dict(zip(values, counts[order].tolist()))))


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
    s = len(key_runs(form_keys(SUM_FORM, A.elements)[0])[0])
    d = len(key_runs(form_keys(DIFFERENCE_FORM, A.elements)[0])[0])
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
