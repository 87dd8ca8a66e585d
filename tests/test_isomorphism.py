import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest

from addcomb import (
    CANONICAL_MSTD8,
    SUM_FORM,
    CertificateError,
    FiniteSet,
    LinearForm,
    SetBijection,
    affine_image,
    affine_reconstruct,
    check_signed_transfer,
    classify_mstd8,
    form_image,
    induced_bijection,
    is_phi_isomorphism,
    anchor_normalize,
    exp_transport,
    is_mstd,
    product_quotient_counts,
    realize,
)
from addcomb import images, isomorphism
from addcomb.model import value_table
import helpers
from helpers import (
    BASIS_SQRT2,
    BASIS_SQRT23,
    BASIS_UNIT,
    ORACLE_FORMS,
    SET_KINDS,
    naive_multiplicities,
    random_form,
    random_int_set,
    random_rational,
    random_set,
    value_induced_bijection,
    value_walk,
)

REFLECTED = affine_image(CANONICAL_MSTD8, -1, 14)


def reflection_bijection() -> SetBijection:
    return SetBijection.from_function(CANONICAL_MSTD8, REFLECTED, lambda x: 14 - x)


def exhaustive_iso_oracle(coeffs, f: SetBijection) -> bool:
    """Quadratic oracle: literally compare every pair of tuple evaluations."""
    a = f.domain.elements
    b = f.mapped_elements()
    h = len(coeffs)
    idx = list(itertools.product(range(len(a)), repeat=h))

    def val(els, tup):
        return sum(c * els[i] for c, i in zip(coeffs, tup))

    for u in idx:
        for v in idx:
            if (val(a, u) == val(a, v)) != (val(b, u) == val(b, v)):
                return False
    return True


def quadratic_disagreements(coeffs, f: SetBijection) -> tuple[list, bool]:
    """Quadratic oracle: every pair u < v of index tuples whose coincidence
    status differs between the sides, and whether each domain-side
    coincidence also holds on the codomain side (a homomorphism)."""
    a = f.domain.elements
    b = f.mapped_elements()
    idx = list(itertools.product(range(len(a)), repeat=len(coeffs)))

    def val(els, tup):
        return sum(c * els[i] for c, i in zip(coeffs, tup))

    offending = []
    homomorphism = True
    for u, v in itertools.combinations(idx, 2):
        same_a = val(a, u) == val(a, v)
        same_b = val(b, u) == val(b, v)
        if same_a != same_b:
            offending.append((u, v))
            homomorphism = homomorphism and not same_a
    return offending, homomorphism


def random_bijection(rng: random.Random) -> SetBijection:
    A = random_int_set(rng, lo=-6, hi=6, kmax=4)
    k = len(A)
    B = random_int_set(rng, lo=-6, hi=6, kmax=8)
    while len(B) != k:
        B = random_int_set(rng, lo=-6, hi=6, kmax=8)
    perm = list(range(k))
    rng.shuffle(perm)
    return SetBijection(A, B, tuple(perm))


class TestIsPhiIsomorphism:
    def test_identity(self):
        f = SetBijection.by_order(CANONICAL_MSTD8, CANONICAL_MSTD8)
        assert is_phi_isomorphism(SUM_FORM, f).is_isomorphism

    def test_reflection(self):
        assert is_phi_isomorphism(SUM_FORM, reflection_bijection()).is_isomorphism

    def test_broken_map_with_witness(self):
        A = FiniteSet([0, 1, 2])
        B = FiniteSet([0, 1, 3])
        f = SetBijection.by_order(A, B)
        verdict = is_phi_isomorphism(SUM_FORM, f)
        assert not verdict.is_isomorphism
        assert not verdict.is_homomorphism
        assert verdict.witness == ((0, 2), (1, 1))
        # the witness pair really does disagree
        u, v = verdict.witness
        a, b = A.elements, f.mapped_elements()
        same_a = a[u[0]] + a[u[1]] == a[v[0]] + a[v[1]]
        same_b = b[u[0]] + b[u[1]] == b[v[0]] + b[v[1]]
        assert same_a != same_b

    def test_matches_quadratic_oracle(self):
        rng = random.Random(7)
        outcomes = set()
        for _ in range(40):
            f = random_bijection(rng)
            k = len(f.domain)
            # base-100 digits keep every coincidence on this domain forced
            # by the form alone, so a map out of it is a homomorphism
            spread = SetBijection(FiniteSet(100**i for i in range(k)), f.codomain, f.perm)
            form = random_form(rng, max_arity=2)
            for g in (f, spread):
                verdict = is_phi_isomorphism(form, g)
                assert verdict.is_isomorphism == exhaustive_iso_oracle(form.coeffs, g)
                offending, homomorphism = quadratic_disagreements(form.coeffs, g)
                assert verdict.is_isomorphism == (not offending)
                assert verdict.is_homomorphism == homomorphism
                outcomes.add((verdict.is_homomorphism, verdict.is_isomorphism))
                if not offending:
                    assert verdict.witness is None
                    continue
                # the witness offends, and no offending pair ends earlier
                u, v = verdict.witness
                assert (u, v) in offending
                assert all(v <= w for _, w in offending)
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_inverse_symmetry(self):
        rng = random.Random(13)
        for _ in range(30):
            A = random_int_set(rng, kmax=5)
            k = len(A)
            B = FiniteSet(rng.sample(range(-30, 30), k))
            perm = list(range(k))
            rng.shuffle(perm)
            f = SetBijection(A, B, tuple(perm))
            form = random_form(rng)
            assert (
                is_phi_isomorphism(form, f).is_isomorphism
                == is_phi_isomorphism(form, f.inverse()).is_isomorphism
            )

    def test_affine_maps_always_pass(self):
        rng = random.Random(19)
        for _ in range(40):
            A = random_int_set(rng)
            lam = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            mu = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            B = affine_image(A, lam, mu)
            f = SetBijection.from_function(A, B, lambda x: lam * x + mu)
            form = random_form(rng)
            assert is_phi_isomorphism(form, f).is_isomorphism

    def test_composition_of_isomorphisms(self):
        rng = random.Random(29)
        for _ in range(30):
            A = random_int_set(rng)
            l1, m1 = rng.choice([-2, -1, 1, 2]), rng.randint(-5, 5)
            l2, m2 = rng.choice([-2, -1, 1, 2]), rng.randint(-5, 5)
            B = affine_image(A, l1, m1)
            C = affine_image(B, l2, m2)
            f = SetBijection.from_function(A, B, lambda x: l1 * x + m1)
            g = SetBijection.from_function(B, C, lambda x: l2 * x + m2)
            form = random_form(rng)
            assert is_phi_isomorphism(form, f.compose(g)).is_isomorphism


class TestInducedBijection:
    def test_identity(self):
        f = SetBijection.by_order(CANONICAL_MSTD8, CANONICAL_MSTD8)
        F = induced_bijection(SUM_FORM, f)
        assert len(F) == 26
        assert all(x == y for x, y, _ in F.pairs)

    def test_reflection_gives_28_minus_x(self):
        F = induced_bijection(SUM_FORM, reflection_bijection())
        assert all(y == 28 - x for x, y, _ in F.pairs)
        assert F(0) == 28

    def test_scaling_gives_3x_plus_10(self):
        B = affine_image(CANONICAL_MSTD8, 3, 5)
        f = SetBijection.from_function(CANONICAL_MSTD8, B, lambda x: 3 * x + 5)
        F = induced_bijection(SUM_FORM, f)
        assert all(y == 3 * x + 10 for x, y, _ in F.pairs)

    def test_pair_count_equals_image_sizes(self):
        rng = random.Random(31)
        for _ in range(20):
            A = random_int_set(rng)
            lam = rng.choice([-2, -1, 1, 2, 3])
            mu = rng.randint(-5, 5)
            B = affine_image(A, lam, mu)
            f = SetBijection.from_function(A, B, lambda x: lam * x + mu)
            form = random_form(rng)
            F = induced_bijection(form, f)
            assert len(F) == form_image(form, A).size == form_image(form, B).size

    def test_multiplicities_by_independent_recount(self):
        F = induced_bijection(SUM_FORM, reflection_bijection())
        ma = naive_multiplicities((1, 1), CANONICAL_MSTD8.elements)
        mb = naive_multiplicities((1, 1), REFLECTED.elements)
        for x, y, mult in F.pairs:
            assert ma[x] == mb[y] == mult

    def test_rejects_non_isomorphism(self):
        f = SetBijection.by_order(FiniteSet([0, 1, 2]), FiniteSet([0, 1, 3]))
        with pytest.raises(ValueError, match="not an isomorphism"):
            induced_bijection(SUM_FORM, f)
        rng = random.Random(37)
        rejected = 0
        while rejected < 30:
            f = random_bijection(rng)
            form = random_form(rng, max_arity=2)
            verdict = is_phi_isomorphism(form, f)
            if verdict.is_isomorphism:
                continue
            message = re.escape(f"not an isomorphism (witness {verdict.witness})")
            with pytest.raises(ValueError, match=message):
                induced_bijection(form, f)
            rejected += 1

    def test_builds_each_value_table_once(self, monkeypatch):
        calls = []

        def counting_value_table(form, elements):
            calls.append(len(elements))
            return value_table(form, elements)

        def no_form_image(*args):
            raise AssertionError("induced_bijection must not call form_image")

        # the tables are built in images, behind form_keys
        monkeypatch.setattr(images, "value_table", counting_value_table)
        monkeypatch.setattr(images, "form_image", no_form_image)
        monkeypatch.setattr(isomorphism, "form_image", no_form_image)
        F = induced_bijection(SUM_FORM, reflection_bijection())
        assert calls == [8, 8]
        assert len(F) == 26


def oracle_case(rng: random.Random, kind: str):
    """A form and a bijection out of a set of the given kind: onto an affine
    image, a group-route realization or a progression, its pairing
    sometimes shuffled."""
    if rng.random() < 0.3:
        form = rng.choice(ORACLE_FORMS)
    else:
        form = random_form(rng)
        if rng.random() < 0.5:
            form = LinearForm(tuple(Fraction(c, rng.randint(1, 4)) for c in form.coeffs))
    A = random_set(rng, kind, 7 if form.arity < 3 else 5)
    route = rng.randrange(3)
    if route == 0:
        lam = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        mu = random_rational(rng)
        f = SetBijection.from_function(A, affine_image(A, lam, mu), lambda x: lam * x + mu)
    elif route == 1:
        f = realize(A, form, "group").mapping
    else:
        # a progression has every coincidence a form can have on k points
        f = SetBijection.by_order(A, FiniteSet(Fraction(i, 2) for i in range(len(A))))
    if rng.random() < 0.4:
        perm = list(f.perm)
        rng.shuffle(perm)
        f = SetBijection(f.domain, f.codomain, tuple(perm))
    return form, f


def induced_or_error(induce, form, f):
    try:
        return induce(form, f)
    except (ValueError, CertificateError) as exc:
        return exc


def assert_same_induced(form, f):
    want = induced_or_error(value_induced_bijection, form, f)
    got = induced_or_error(induced_bijection, form, f)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.pairs == want.pairs
    # the same kind and printed form of every value, not only equal ones
    assert [tuple(map(str, p)) for p in got.pairs] == [tuple(map(str, p)) for p in want.pairs]


class TestIntegerKeysAgainstValueWalk:
    def test_verdicts_witnesses_and_induced_maps(self):
        rng = random.Random(41)
        outcomes = set()
        for i in range(400):
            kind = SET_KINDS[i % len(SET_KINDS)]
            form, f = oracle_case(rng, kind)
            verdict = is_phi_isomorphism(form, f)
            assert verdict == value_walk(form, f)[0]
            assert_same_induced(form, f)
            outcomes.add((kind, form.arity, verdict.is_isomorphism))
        assert outcomes == {
            (kind, h, iso) for kind in SET_KINDS for h in (1, 2, 3) for iso in (False, True)
        } - {(kind, 1, False) for kind in SET_KINDS}

    def test_dimension_one_basis_decodes_to_symbolic_reals(self):
        A = FiniteSet(BASIS_UNIT.element((q,)) for q in (Fraction(1, 2), 2, Fraction(-5, 3)))
        f = realize(A, SUM_FORM, "group").mapping
        F = induced_bijection(SUM_FORM, f)
        assert all(x.basis == BASIS_UNIT for x, _, _ in F.pairs)
        assert F.pairs == value_induced_bijection(SUM_FORM, f).pairs

    def test_multiplicity_mismatch_message(self, monkeypatch):
        def bump_codomain_count(counter):
            """Counter, except that every second one (the codomain side's)
            counts its last item once more."""
            made = []

            def make(items):
                items = list(items)
                out = counter(items)
                made.append(out)
                if len(made) % 2 == 0:
                    out[items[-1]] += 1
                return out

            return make

        rng = random.Random(43)
        checked = 0
        for i in range(40):
            form, f = oracle_case(rng, SET_KINDS[i % len(SET_KINDS)])
            if not is_phi_isomorphism(form, f).is_isomorphism:
                continue
            checked += 1
            monkeypatch.setattr(isomorphism, "Counter", bump_codomain_count(isomorphism.Counter))
            monkeypatch.setattr(helpers, "Counter", bump_codomain_count(helpers.Counter))
            want = induced_or_error(value_induced_bijection, form, f)
            assert isinstance(want, CertificateError)
            assert "multiplicity mismatch" in str(want)
            assert_same_induced(form, f)
            monkeypatch.undo()
        assert checked >= 20


def certify_inputs(rng: random.Random):
    """240 inputs shaped like the certify benchmark's, but smaller: integer,
    rational and symbolic sets in turn, forms 1,1 / 1,-1 / 2,-3 and 1,1,-1;
    integer sets carry a base for the multiplicative mirror."""
    forms2 = (LinearForm((1, 1)), LinearForm((1, -1)), LinearForm((2, -3)))
    for i in range(240):
        kind = ("integer", "rational", "symbolic")[i % 3]
        if i % 4 == 3:
            form, k = LinearForm((1, 1, -1)), 4 + (i * 5) % 5
        else:
            form, k = forms2[(i // 4) % 3], 6 + (i * 7) % 15
        base = None
        if kind == "integer":
            A = FiniteSet(rng.sample(range(-3 * k, 3 * k + 1), k))
            base = rng.choice((2, 3, 5))
        elif kind == "rational":
            els: set = set()
            while len(els) < k:
                els.add(Fraction(rng.randint(-6 * k, 6 * k), rng.choice((1, 2, 3, 4, 6))))
            A = FiniteSet(els)
        else:
            coords: set = set()
            while len(coords) < k:
                coords.add((Fraction(rng.randint(-12, 12), rng.choice((1, 2))),
                            rng.randint(-3, 3), rng.randint(-2, 2)))
            A = FiniteSet(BASIS_SQRT23.element(c) for c in coords)
        yield A, form, base


#: sha256 over (B, certificate, induced pairs, is_mstd, MPTQ counts) of the
#: 240 certify_inputs(random.Random(20261018)), taken with the value-keyed walk
CERTIFY_SHA256 = "1a43317e260025b5d687ee044eda0df6da7489145d7605d8888e3c8638a45b73"


def test_certify_outputs_are_pinned():
    h = hashlib.sha256()
    for A, form, base in certify_inputs(random.Random(20261018)):
        r = realize(A, form, "group")
        mirror = None
        if base is not None:
            mirror = (is_mstd(A), product_quotient_counts(exp_transport(A, base)))
        key = (r.B.elements, r.certificate, induced_bijection(form, r.mapping).pairs, mirror)
        h.update(repr(key).encode() + b"\n")
    assert h.hexdigest() == CERTIFY_SHA256


class TestSignedTransfer:
    def test_identity_on_worked_example(self):
        f = SetBijection.by_order(CANONICAL_MSTD8, CANONICAL_MSTD8)
        assert check_signed_transfer(SUM_FORM, {2}, f)

    def test_empty_flip(self):
        assert check_signed_transfer(SUM_FORM, set(), reflection_bijection())

    def test_triple_form_on_doubled_set(self):
        B = affine_image(CANONICAL_MSTD8, 2, 0)
        f = SetBijection.from_function(CANONICAL_MSTD8, B, lambda x: 2 * x)
        form = LinearForm((1, 1, 1))
        assert check_signed_transfer(form, {3}, f)
        flipped = LinearForm((1, 1, -1))
        assert form_image(flipped, CANONICAL_MSTD8).size == 41
        assert form_image(flipped, B).size == 41

    def test_precondition_enforced(self):
        f = SetBijection.by_order(FiniteSet([0, 1, 2]), FiniteSet([0, 1, 3]))
        with pytest.raises(ValueError, match="not an isomorphism"):
            check_signed_transfer(SUM_FORM, {2}, f)

    def test_always_true_on_random_isomorphisms(self):
        rng = random.Random(37)
        for _ in range(30):
            A = random_int_set(rng)
            lam = rng.choice([-3, -2, -1, 1, 2, 3])
            mu = rng.randint(-6, 6)
            B = affine_image(A, lam, mu)
            f = SetBijection.from_function(A, B, lambda x: lam * x + mu)
            form = random_form(rng)
            flip = frozenset(j for j in range(1, form.arity + 1) if rng.random() < 0.5)
            assert check_signed_transfer(form, flip, f)


class TestAffineReconstruct:
    def test_identity(self):
        f = SetBijection.by_order(CANONICAL_MSTD8, CANONICAL_MSTD8)
        r = affine_reconstruct(f)
        assert (r.lam, r.mu, r.matches) == (1, 0, True)

    def test_reflection(self):
        r = affine_reconstruct(reflection_bijection())
        assert (r.lam, r.mu, r.matches) == (-1, 14, True)

    def test_scaled(self):
        B = affine_image(CANONICAL_MSTD8, 3, 5)
        f = SetBijection.from_function(CANONICAL_MSTD8, B, lambda x: 3 * x + 5)
        r = affine_reconstruct(f)
        assert (r.lam, r.mu, r.matches) == (3, 5, True)

    def test_wrong_domain_rejected(self):
        A = FiniteSet([0, 1, 2])
        with pytest.raises(ValueError, match="canonical"):
            affine_reconstruct(SetBijection.by_order(A, A))

    def test_non_isomorphism_rejected(self):
        scrambled = SetBijection(CANONICAL_MSTD8, CANONICAL_MSTD8, (1, 0, 2, 3, 4, 5, 6, 7))
        with pytest.raises(ValueError, match="Freiman"):
            affine_reconstruct(scrambled)


class TestClassifyMstd8:
    def test_canonical_itself(self):
        r = classify_mstd8(CANONICAL_MSTD8)
        assert (r.lam, r.mu) == (1, 0)

    def test_reflection(self):
        r = classify_mstd8(REFLECTED)
        assert (r.lam, r.mu) == (-1, 14)

    def test_rational_affine_image(self):
        A = affine_image(CANONICAL_MSTD8, Fraction(7, 3), -11)
        r = classify_mstd8(A)
        assert (r.lam, r.mu) == (1, 0)

    def test_negative_scale_lands_on_reflection(self):
        A = affine_image(CANONICAL_MSTD8, Fraction(-5, 2), 3)
        r = classify_mstd8(A)
        assert (r.lam, r.mu) == (-1, 14)

    def test_symbolic_scale(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([a * rt2 for a in REFLECTED])
        assert anchor_normalize(A) == REFLECTED
        r = classify_mstd8(A)
        assert (r.lam, r.mu) == (-1, 14)

    def test_supplied_bijection(self):
        f = SetBijection.from_function(CANONICAL_MSTD8, REFLECTED, lambda x: 14 - x)
        r = classify_mstd8(REFLECTED, f)
        assert (r.lam, r.mu) == (-1, 14)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="8 elements"):
            classify_mstd8(FiniteSet([0, 1, 2]))

    def test_rejects_non_mstd(self):
        with pytest.raises(ValueError, match="not MSTD"):
            classify_mstd8(FiniteSet(range(8)))

    def test_inconsistent_basis_detected(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        seven = [Fraction(a) * rt2 for a in CANONICAL_MSTD8.elements[:7]]
        bad = FiniteSet(seven + [13 + 0 * rt2])  # off the affine line
        if len(bad) == 8:
            with pytest.raises((CertificateError, ValueError)):
                classify_mstd8(bad)
