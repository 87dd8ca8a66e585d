"""Deciding whether a bijection between finite sets preserves form coincidences.

A bijection f preserves a form when two tuples share a form value on the
domain side exactly when their images share a value on the codomain side.
Each side's values partition the k^h index tuples; the partitions are equal
exactly when there are as many distinct (domain value, codomain value)
pairs as distinct values on either side, which takes O(k^h) hashing instead
of comparing all k^{2h} pairs of tuples. Values are the exact integer keys of
``images.form_keys``, which coincide exactly where values do; ``images``
also orders them, and only a shown key is decoded.

The 8-element MSTD sets are classified by normalization, not by a search
over pairings. The canonical set lies on 13 hyperplanes x_i + x_j = x_l + x_m
whose rows have rank 6 over Q, so the solutions in R^8 are spanned by
(1, ..., 1) and the set itself: every Freiman image of it, under any
pairing, is an affine image. Once its two smallest elements sit at 0 and 2,
such an image is the canonical set or its mirror, and the only pairings
left are the identity and the reversal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError
# form_image and value_table stay module attributes: perfbench/spans.py wraps them here
from .images import decode, form_image, form_keys, image_order, is_mstd, value_table  # noqa: F401
from .model import (
    SUM_FORM,
    FiniteSet,
    LinearForm,
    RealElement,
    Scalar,
    as_rational,
    signed_form,
)

#: the unique 8-element integer set, up to affine maps, with more sums than
#: differences at diameter 14; the reference domain for the classification
CANONICAL_MSTD8 = FiniteSet((0, 2, 3, 4, 7, 11, 12, 14))
#: its mirror 14 - x, the other normalized form of an 8-element MSTD set
_MIRROR_MSTD8 = FiniteSet(14 - x for x in CANONICAL_MSTD8)


@dataclass(frozen=True)
class SetBijection:
    """An indexed pairing a_i -> b_{perm[i]} between two equal-size sets."""

    domain: FiniteSet
    codomain: FiniteSet
    perm: tuple

    def __post_init__(self):
        k = len(self.domain)
        if len(self.codomain) != k:
            raise ValueError("domain and codomain sizes differ")
        if sorted(self.perm) != list(range(k)):
            raise ValueError("perm is not a permutation of the codomain indices")

    @classmethod
    def by_order(cls, A: FiniteSet, B: FiniteSet) -> "SetBijection":
        """Pair the i-th smallest element of A with the i-th smallest of B."""
        return cls(A, B, tuple(range(len(A))))

    @classmethod
    def from_function(cls, A: FiniteSet, B: FiniteSet, fn) -> "SetBijection":
        index = {b: i for i, b in enumerate(B.elements)}
        perm = []
        for a in A:
            y = fn(a)
            if y not in index:
                raise ValueError(f"f({a}) = {y} is not an element of the codomain")
            perm.append(index[y])
        return cls(A, B, tuple(perm))

    def __call__(self, a) -> Scalar:
        i = self.domain.elements.index(a)
        return self.codomain.elements[self.perm[i]]

    def mapped_elements(self) -> list:
        """Codomain elements listed in domain order."""
        return [self.codomain.elements[p] for p in self.perm]

    def pairs(self) -> list:
        return list(zip(self.domain.elements, self.mapped_elements()))

    def inverse(self) -> "SetBijection":
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return SetBijection(self.codomain, self.domain, tuple(inv))

    def compose(self, other: "SetBijection") -> "SetBijection":
        """other after self: domain of self -> codomain of other."""
        if self.codomain != other.domain:
            raise ValueError("bijections do not chain")
        return SetBijection(
            self.domain, other.codomain, tuple(other.perm[p] for p in self.perm)
        )


@dataclass(frozen=True)
class IsoVerdict:
    is_homomorphism: bool
    is_isomorphism: bool
    #: two h-tuples of element indices whose coincidence status differs,
    #: present exactly when the check fails
    witness: tuple | None


def _unrank(pos: int, k: int, h: int) -> tuple:
    out = [0] * h
    for j in range(h - 1, -1, -1):
        pos, out[j] = divmod(pos, k)
    return tuple(out)


def _first_disagreement(akeys, bkeys, k: int, h: int) -> tuple:
    """The witness (u, v) of a failed check: v is the earliest tuple whose
    key pair disagrees with u, the first tuple that shares v's domain key
    (checked first) or v's codomain key."""
    first_a: dict = {}
    first_b: dict = {}
    for v, (a, b) in enumerate(zip(akeys, bkeys)):
        u = first_a.setdefault(a, v)
        if bkeys[u] != b:
            return _unrank(u, k, h), _unrank(v, k, h)
        u = first_b.setdefault(b, v)
        if akeys[u] != a:
            return _unrank(u, k, h), _unrank(v, k, h)


def _verdict(akeys, bkeys, k: int, h: int):
    """Compare two key tables in tuple order through the set of key pairs.

    The pairing is a homomorphism exactly when each domain key meets one
    codomain key, that is when the pairs are as many as the distinct domain
    keys, and an isomorphism when they are also as many as the distinct
    codomain keys. Only a failure walks the tuples, to find its witness.
    Returns the verdict and the map from domain key to codomain key.
    """
    pairs = set(zip(akeys, bkeys))
    # keys in first-seen order, as in form_image, so both name a float tie alike
    forward = dict(zip(akeys, bkeys))
    homomorphism = len(forward) == len(pairs)
    isomorphism = homomorphism and len(set(bkeys)) == len(pairs)
    witness = None if isomorphism else _first_disagreement(akeys, bkeys, k, h)
    return IsoVerdict(homomorphism, isomorphism, witness), forward


def _coincidences(form: LinearForm, f: SetBijection):
    """Both sides' key tables and their _verdict. Returns the verdict, the
    map from domain key to codomain key, the two key tables and the two
    scales that decode needs.
    """
    akeys, sa = form_keys(form, f.domain.elements)
    bkeys, sb = form_keys(form, f.mapped_elements())
    verdict, forward = _verdict(akeys, bkeys, len(f.domain), form.arity)
    return verdict, forward, akeys, bkeys, (sa, sb)


def is_phi_isomorphism(form: LinearForm, f: SetBijection) -> IsoVerdict:
    """Compare the coincidence partitions of index-tuple space on both sides.

    The witness, when present, is an offending pair (u, v) of index tuples,
    u before v: same value on one side, different on the other. No offending
    pair has a later tuple that comes before v in lexicographic order; the
    pair itself need not be the lexicographically first one.
    """
    return _coincidences(form, f)[0]


@dataclass(frozen=True)
class InducedMap:
    """The value-level bijection image(A) -> image(B) induced by an
    isomorphism, with the shared multiplicity of each pair."""

    pairs: tuple  # ((x, y, multiplicity), ...) sorted by x

    def __call__(self, x):
        for a, b, _ in self.pairs:
            if a == x:
                return b
        raise KeyError(x)

    def __len__(self):
        return len(self.pairs)


def induced_bijection(form: LinearForm, f: SetBijection) -> InducedMap:
    """Build the induced value map and verify multiplicities transfer.

    Multiplicities are counted over the keys; images.image_order puts the
    domain's distinct keys in value order, and each side's keys are decoded
    once, in that order.
    """
    verdict, forward, akeys, bkeys, (sa, sb) = _coincidences(form, f)
    if not verdict.is_isomorphism:
        raise ValueError(f"bijection is not an isomorphism (witness {verdict.witness})")
    xkeys = image_order(forward, sa, f.domain.basis)
    ykeys = [forward[key] for key in xkeys]
    xs = decode(xkeys, sa, f.domain.basis)
    ys = decode(ykeys, sb, f.codomain.basis)
    ma, mb = Counter(akeys), Counter(bkeys)
    pairs = []
    for xkey, ykey, x, y in zip(xkeys, ykeys, xs, ys):
        mx, my = ma[xkey], mb[ykey]
        if mx != my:
            raise CertificateError(f"multiplicity mismatch at {x} -> {y}: {mx} != {my}")
        pairs.append((x, y, mx))
    if len(set(ykeys)) != len(pairs):
        raise CertificateError("induced map is not injective")
    return InducedMap(tuple(pairs))


def check_signed_transfer(form: LinearForm, flip, f: SetBijection) -> bool:
    """An isomorphism for the base form must remain one for every
    sign-flipped variant, with equal image sizes on both sides. A False
    return signals an implementation bug, never valid input behavior.
    The image sizes are the numbers of distinct keys on each side.
    """
    if not is_phi_isomorphism(form, f).is_isomorphism:
        raise ValueError("bijection is not an isomorphism for the base form")
    verdict, _, akeys, bkeys, _ = _coincidences(signed_form(form, flip), f)
    return verdict.is_isomorphism and len(set(akeys)) == len(set(bkeys))


@dataclass(frozen=True)
class AffineClassification:
    lam: Fraction
    mu: Fraction
    matches: bool


def affine_reconstruct(f: SetBijection) -> AffineClassification:
    """Recover the affine map behind a Freiman isomorphism out of the
    canonical 8-point set: slope (f(2)-f(0))/2, intercept f(0).

    The codomain must consist of rationals (the ambient 2-divisible group
    here is Q). `matches` reports whether the reconstructed map reproduces
    all eight images; False on a verified isomorphism signals a bug.
    """
    if f.domain != CANONICAL_MSTD8:
        raise ValueError("domain must be the canonical 8-element set")
    if f.codomain.kind != "rational":
        raise ValueError("codomain must be rational scalars")
    verdict = is_phi_isomorphism(SUM_FORM, f)
    if not verdict.is_isomorphism:
        raise ValueError(f"not a Freiman isomorphism (witness {verdict.witness})")
    f0 = f(0)
    f2 = f(2)
    lam = as_rational(Fraction(f2 - f0) / 2)
    mu = as_rational(f0)
    matches = all(y == lam * x + mu for x, y in f.pairs())
    return AffineClassification(lam, mu, matches)


def anchor_normalize(A: FiniteSet) -> FiniteSet:
    """Rescale A by x -> 2(x - a_1)/(a_2 - a_1) so the two smallest elements
    land on 0 and 2. For symbolic reals the divisions must come out rational;
    when they do not, A cannot be affinely equivalent to an integer set."""
    a1, a2 = A.elements[0], A.elements[1]
    den = a2 - a1
    out = []
    for x in A:
        num = x - a1
        if isinstance(num, RealElement):
            try:
                ratio = num.ratio_to(den)
            except ValueError:
                raise CertificateError(
                    "elements do not lie on one affine line over Q; "
                    "the basis declaration is inconsistent with an MSTD set"
                ) from None
        else:
            ratio = Fraction(num) / Fraction(den)
        out.append(as_rational(2 * Fraction(ratio)))
    B = FiniteSet(out)
    if len(B) != len(A):
        raise CertificateError("normalization collapsed elements; inconsistent input")
    return B


def classify_mstd8(A: FiniteSet, f: SetBijection | None = None) -> AffineClassification:
    """Normalize an 8-element MSTD set onto {0, 2, ...} scale and classify it.

    The normalized set must be the canonical one or its reflection; the
    returned classification is (1, 0) for the former and (-1, 14) for the
    latter. By the rank-6 rigidity in the module docstring these are the
    only normalized sets a Freiman isomorphism from the canonical set can
    reach, so comparing with the two is the whole search: the pairing is the
    identity or the reversal, and affine_reconstruct certifies it. A supplied
    bijection from the canonical set is certified in its place.
    """
    if len(A) != 8:
        raise ValueError("classification applies to sets of exactly 8 elements")
    verdict = is_mstd(A)
    if not verdict.is_mstd:
        raise ValueError(f"set is not MSTD (sums {verdict.sum_count}, diffs {verdict.diff_count})")
    B = anchor_normalize(A)
    if f is None:
        if B == CANONICAL_MSTD8:
            f = SetBijection.by_order(CANONICAL_MSTD8, B)
        elif B == _MIRROR_MSTD8:
            f = SetBijection(CANONICAL_MSTD8, B, tuple(range(7, -1, -1)))
        else:
            raise CertificateError(
                "no Freiman isomorphism from the canonical set; input arithmetic is inconsistent"
            )
    else:
        if f.domain != CANONICAL_MSTD8 or f.codomain != B:
            raise ValueError("supplied bijection must map the canonical set onto the normalized one")
    result = affine_reconstruct(f)
    if (result.lam, result.mu) not in ((1, 0), (-1, 14)):
        raise CertificateError(
            f"normalized set matched neither orientation (lam={result.lam}, mu={result.mu})"
        )
    return result
