import dataclasses
import hashlib
import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from addcomb import (
    ApproximationError,
    BasisDecl,
    BudgetExceededError,
    CertificateError,
    FiniteSet,
    LinearForm,
    SUM_FORM,
    DIFFERENCE_FORM,
    SetBijection,
    all_sign_flips,
    check_signed_transfer,
    clear_denominators,
    form_image,
    images,
    induced_bijection,
    is_mstd,
    is_phi_isomorphism,
    realization,
    realize,
    realize_dirichlet,
    realize_group,
    realize_lp,
    translate_positive,
)
from helpers import (
    BASIS_SQRT2,
    REALIZATION_FORMS,
    SET_KINDS,
    first_close_denominator,
    random_form,
    random_set,
    realization_suite,
    suite_results,
)

#: sets whose q the scan must find: integral and fractional rationals, and
#: sqrt2 sets with integral and fractional floats; most q lie past the
#: first block, where the scan drops a q at the first element that rejects it
_S2 = BASIS_SQRT2.element
SCAN_CASES = [
    ([0, 5, Fraction(2, 1031), Fraction(7, 3)], SUM_FORM),
    ([Fraction(-3, 2), 4, Fraction(5, 2039), Fraction(1, 6)], LinearForm((1, 1, -1))),
    ([_S2((0, 0)), _S2((0, 1)), _S2((1, 0))], SUM_FORM),
    (
        [_S2((-4, 2)), _S2((1, 0)), _S2((1, 3)), _S2((2, 1)), _S2((Fraction(5, 2), 0))],
        LinearForm((1, 1, -1)),
    ),
    (
        [_S2((Fraction(-4, 3), 3)), _S2((Fraction(-2, 3), 2)), _S2((Fraction(-1, 2), 1)),
         _S2((2, 1)), _S2((Fraction(5, 2), 2))],
        SUM_FORM,
    ),
]


def full_residuals(elements, q_bound: int) -> np.ndarray:
    """|q*a - rint(q*a)| for q = 1..q_bound (rows) and each element's float
    (columns): the whole q x k matrix, with no block and no filter."""
    x = np.outer(np.arange(1, q_bound + 1, dtype=np.float64), [float(a) for a in elements])
    return np.abs(x - np.rint(x))


LP_SUITE_SHA256 = "b9cbed9ea2e63c1b91840f2a0eeb2ce8cb8117f446b25e53ad624dd7bab7a3ec"
DIRICHLET_SUITE_SHA256 = "06f8e99b98c055def23e10ce4ca0c24328bb6de29e6745c525b108449d552679"


def lattice_coincidence_oracle(points, coeffs, values) -> bool:
    """Brute force: encoded values must coincide exactly when the exact
    vector form values coincide, over every pair of tuples."""
    h = len(coeffs)
    idx = list(itertools.product(range(len(points)), repeat=h))

    def vec_val(tup):
        return tuple(
            sum(c * points[i][d] for c, i in zip(coeffs, tup))
            for d in range(len(points[0]))
        )

    def int_val(tup):
        return sum(c * values[i] for c, i in zip(coeffs, tup))

    for u in idx:
        for v in idx:
            if (vec_val(u) == vec_val(v)) != (int_val(u) == int_val(v)):
                return False
    return True


class TestTranslatePositive:
    def test_shift(self):
        assert translate_positive(FiniteSet([-1, 7])).elements == (1, 9)

    def test_already_positive(self):
        A = FiniteSet([1, 2, 7])
        assert translate_positive(A) == A

    def test_zero(self):
        assert translate_positive(FiniteSet([0])).elements == (1,)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            translate_positive(FiniteSet([Fraction(1, 2)]))


class TestLatticeEmbed:
    """realization._base_encode, the group route's embedding, on integer
    columns (one per coordinate, points in order)."""

    def test_dimension_one_is_identity(self):
        values, params = realization._base_encode([[0, 2, 5]], SUM_FORM)
        assert values == [0, 2, 5]
        assert params.lam == 2 * 5 * 1 * 2 + 2

    def test_unit_square_corner(self):
        points = [(0, 0), (1, 0), (0, 1)]
        values, params = realization._base_encode(_columns(points), SUM_FORM)
        assert (params.a_star, params.phi_star, params.arity, params.lam) == (1, 1, 2, 6)
        assert values == [0, 1, 6]
        assert lattice_coincidence_oracle(points, (1, 1), values)

    def test_negative_coordinates(self):
        points = [(-1, 0), (1, 1)]
        values, params = realization._base_encode(_columns(points), DIFFERENCE_FORM)
        assert params.lam == 6
        assert values == [-1, 7]
        assert lattice_coincidence_oracle(points, (1, -1), values)

    def test_embedding_preserves_coincidences_randomly(self):
        rng = random.Random(3)
        for _ in range(20):
            d = rng.randint(1, 3)
            pts = set()
            while len(pts) < rng.randint(2, 4):
                pts.add(tuple(rng.randint(-2, 2) for _ in range(d)))
            points = sorted(pts)
            coeffs = (1, rng.choice([-2, -1, 1, 2]))
            values, params = realization._base_encode(_columns(points), LinearForm(coeffs))
            powers = [params.lam**i for i in range(d)]
            assert values == [sum(x * w for x, w in zip(p, powers)) for p in points]
            assert lattice_coincidence_oracle(points, coeffs, values)

    def test_rational_form_rejected(self):
        with pytest.raises(ValueError, match="denominators"):
            realization._base_encode([[0]], LinearForm((Fraction(1, 2), 1)))


def _columns(points) -> list:
    return [list(col) for col in zip(*points)]


class TestRealizeGroup:
    def test_basic_symbolic_set(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([0 * rt2, 1 + 0 * rt2, rt2])
        r = realize_group(A, SUM_FORM)
        assert r.B.elements == (1, 2, 7)
        assert r.params.lam == 6
        assert r.certificate.is_isomorphism

    def test_rational_set_scales(self):
        A = FiniteSet([Fraction(1, 2), Fraction(3, 2)])
        r = realize_group(A, DIFFERENCE_FORM)
        assert r.B.elements == (1, 3)

    def test_counts_preserved(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([0 * rt2, 1 + 0 * rt2, rt2, rt2 + 1])
        assert form_image(SUM_FORM, A).size == 9
        assert form_image(DIFFERENCE_FORM, A).size == 9
        r = realize_group(A, SUM_FORM)
        assert form_image(SUM_FORM, r.B).size == 9
        assert form_image(DIFFERENCE_FORM, r.B).size == 9


class TestRealizeDirichlet:
    def test_integers_pass_through(self):
        r = realize_dirichlet(FiniteSet([0, 1, 2]), SUM_FORM)
        assert r.params.q == 1
        assert r.B.elements == (1, 2, 3)
        assert all(t == 0 for t in r.params.thetas)

    def test_exact_thirds(self):
        r = realize_dirichlet(FiniteSet([0, Fraction(1, 3), Fraction(2, 3)]), SUM_FORM)
        assert r.params.q == 3
        assert r.B.elements == (1, 2, 3)

    def test_symbolic_set_certified(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([0 * rt2, 1 + 0 * rt2, rt2])
        r = realize_dirichlet(A, SUM_FORM)
        assert r.certificate.is_isomorphism
        assert len(r.B) == 3 and r.B.min() >= 1
        assert abs(r.params.thetas[-1]) < float(r.params.epsilon)

    def test_q_found_beyond_a_block(self):
        # for every q < p some residual of q * j/p is at least 1/p, which
        # exceeds epsilon, so the scan must cross the 2^18 block boundary
        p = (1 << 18) + 3
        A = FiniteSet([0, Fraction(1, p), Fraction(2, p)])
        assert realize_dirichlet(A, SUM_FORM).params.q == p

    @pytest.mark.parametrize("p", [1024, 1025, 3072, 3073])
    def test_q_at_a_block_boundary(self, p):
        # blocks of 2^10, 2^11, 2^12, ... values of q: the last and first q
        # of the first, second and third blocks
        A = FiniteSet([0, Fraction(1, p), Fraction(2, p)])
        assert realize_dirichlet(A, SUM_FORM).params.q == p

    def test_bound_inside_a_block(self):
        # q_bound = 5000 cuts the third block (3073..7168) short by one q
        p = 5001
        A = FiniteSet([0, Fraction(1, p), Fraction(2, p)])
        with pytest.raises(ApproximationError, match="best max-residual"):
            realize_dirichlet(A, SUM_FORM, q_bound=5000)
        assert realize_dirichlet(A, SUM_FORM, q_bound=5001).params.q == p

    @pytest.mark.parametrize(
        "elements, form",
        [
            ([0, Fraction(2, 3), Fraction(271828, 100000)], DIFFERENCE_FORM),
            ([Fraction(1, 10), Fraction(141421, 100000), Fraction(17, 5)], LinearForm((2, 3))),
        ],
    )
    def test_certificate_failure_halves_epsilon_and_resumes(self, monkeypatch, elements, form):
        A = FiniteSet(elements)
        first = realize_dirichlet(A, form).params
        assert first.q == first_close_denominator(elements, first.epsilon)
        finish, rejected = realization._finish, []

        def fail_once(A, form, akeys, scale, raw, method, params):
            if not rejected:
                rejected.append(params.q)
                raise CertificateError("rejected for the test")
            return finish(A, form, akeys, scale, raw, method, params)

        monkeypatch.setattr(realization, "_finish", fail_once)
        params = realize_dirichlet(A, form).params
        assert rejected == [first.q]
        assert params.epsilon == first.epsilon / 2
        assert params.q == first_close_denominator(elements, first.epsilon / 2, after=first.q)

    def test_singleton_returns_one(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        r = realize_dirichlet(FiniteSet([rt2]), SUM_FORM)
        assert r.B.elements == (1,)

    def test_exhausted_bound_reports_residual(self):
        A = FiniteSet([0, Fraction(1, 97), Fraction(113, 997)])
        with pytest.raises(ApproximationError, match="best max-residual"):
            realize_dirichlet(A, SUM_FORM, q_bound=5)

    @pytest.mark.parametrize("elements, form", SCAN_CASES)
    def test_q_is_the_full_scan_q(self, elements, form):
        A = FiniteSet(elements)
        params = realize_dirichlet(A, form).params
        worst = full_residuals(A.elements, params.q).max(axis=1)
        assert params.q == 1 + np.flatnonzero(worst < float(params.epsilon))[0]
        if A.basis is None:
            assert params.q == first_close_denominator(elements, params.epsilon)

    @pytest.mark.parametrize(
        "elements",
        [
            [0, 3, Fraction(1, 2), Fraction(1, 10007), Fraction(372, 10007)],
            [_S2((0, 0)), _S2((0, 1)), _S2((1, 0)), _S2((Fraction(1, 10007), 0))],
        ],
    )
    def test_exhausted_bound_reports_the_full_scan_best(self, elements):
        # q_bound = 10000 ends the fourth block (7169..10000), which holds
        # the best q (9980 and 9990); no q <= 10000 brings 1/10007 within
        # epsilon of an integer
        A = FiniteSet(elements)
        with pytest.raises(ApproximationError) as exc:
            realize_dirichlet(A, SUM_FORM, q_bound=10_000)
        best = full_residuals(A.elements, 10_000).max(axis=1).min()
        assert str(exc.value).endswith(f"(best max-residual seen {best:.3e})")

    def test_an_overflowing_integral_element_still_refuses(self):
        # 10**308 has residual 0 wherever q * 10**308 is finite, but from
        # q = 2 on the product overflows, as in the full scan
        A = FiniteSet([10**308, Fraction(1, 3)])
        with pytest.raises(ApproximationError, match=r"overflows a float for some q <= 1024;"):
            realize_dirichlet(A, DIFFERENCE_FORM)

    @pytest.mark.parametrize("kind", ["suite", "symbolic-2", "wide"])
    def test_gap_floats_are_the_decoded_floats(self, kind):
        # n / scale and its fsum over the basis round as float() of the
        # decoded value does, so the gap and the q do not move
        if kind == "suite":
            sets = realization_suite()
        elif kind == "symbolic-2":
            rng = random.Random(23)
            sets = [random_set(rng, "symbolic-2", 8) for _ in range(30)]
        else:
            # numerators past 2^53 and denominators that no float holds
            sets = [
                FiniteSet([Fraction(10**20 + 1, 3), Fraction(-(10**17), 7), Fraction(1, 11)]),
                FiniteSet([
                    _S2((Fraction(2**60 + 1, 3), Fraction(1, 7))),
                    _S2((0, Fraction(5, 9))),
                    _S2((Fraction(-1, 13), Fraction(10**18, 17))),
                ]),
            ]
        for A in sets:
            for form in REALIZATION_FORMS + (LinearForm((Fraction(1, 3), Fraction(-2, 5))),):
                iform, _ = clear_denominators(form)
                keys, scale = images.form_keys(iform, A.elements)
                order = images.ordered_keys(keys, scale, A.basis)
                got = realization._key_floats(order, scale, A.basis)
                want = [float(x) for x in form_image(iform, A).image]
                assert [x.hex() for x in got] == [x.hex() for x in want], (A, form)

    def test_a_form_value_past_the_float_range_refuses(self):
        A = FiniteSet([0, 10**309])
        with pytest.raises(ApproximationError, match="too large for a float"):
            realize_dirichlet(A, SUM_FORM)

    def test_degenerate_float_gap_refused(self):
        # elements order fine, but in the sumset 0+1 ties with x+x at 1.0
        shaky = BasisDecl(("1", "x"), (1.0, 0.5))
        A = FiniteSet(
            [shaky.element((0, 0)), shaky.element((0, 1)), shaky.element((1, 0))]
        )
        with pytest.raises(ApproximationError, match="cannot order"):
            realize_dirichlet(A, SUM_FORM)


class TestRealizeLp:
    def test_two_points_difference_form(self):
        r = realize_lp(FiniteSet([0, 1]), DIFFERENCE_FORM)
        assert len(r.B) == 2 and r.B.min() >= 1
        assert r.certificate.is_isomorphism

    def test_worked_example_counts(self):
        r = realize_lp(FiniteSet([0, 2, 3, 4, 7, 11, 12, 14]), SUM_FORM)
        v = is_mstd(r.B)
        assert (v.sum_count, v.diff_count) == (26, 25)

    def test_symbolic_set(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([0 * rt2, 1 + 0 * rt2, rt2])
        r = realize_lp(A, SUM_FORM)
        assert r.certificate.is_isomorphism
        assert r.params.pivots >= 1

    def test_budget_guard(self):
        A = FiniteSet(range(11))
        with pytest.raises(BudgetExceededError):
            realize_lp(A, LinearForm((1, 1, 1)))


class TestRealizationInvariants:
    def test_suite_certificates_and_images(self):
        # a slice here; the full 25-set suite runs in the acceptance module
        sets = realization_suite()[:6]
        rng = random.Random(1)
        for A in sets:
            form = rng.choice([SUM_FORM, DIFFERENCE_FORM, LinearForm((1, 1, -1))])
            results = [realize(A, form, m) for m in ("group", "dirichlet", "lp")]
            for r in results:
                assert r.certificate.is_isomorphism
                assert len(r.B) == len(A)
                assert r.B.min() >= 1
                for flip, flipped in all_sign_flips(form):
                    assert check_signed_transfer(form, flip, r.mapping)
                    assert form_image(flipped, A).size == form_image(flipped, r.B).size
            # methods agree pairwise through composed bijections
            for r1, r2 in itertools.combinations(results, 2):
                chain = r1.mapping.inverse().compose(r2.mapping)
                assert is_phi_isomorphism(form, chain).is_isomorphism

    def test_mstd_transport(self):
        for A, form, method, r in suite_results()[0]:
            if form != SUM_FORM:
                continue
            va, vb = is_mstd(A), is_mstd(r.B)
            assert (va.sum_count, va.diff_count) == (vb.sum_count, vb.diff_count)
            assert va.is_mstd == vb.is_mstd


def _spy_value_tables(monkeypatch) -> list:
    """Patch images.value_table to record the length of every column it
    tabulates."""
    calls = []
    value_table = images.value_table

    def spy(form, elements):
        calls.append(len(elements))
        return value_table(form, elements)

    monkeypatch.setattr(images, "value_table", spy)
    return calls


class TestCertificate:
    """_finish certifies from the route's own keys of A; is_phi_isomorphism
    on a fresh equal pairing, which builds both key tables itself, is the
    oracle."""

    def test_every_route_gives_the_oracle_verdict(self):
        records = suite_results()[0]
        assert {method for _, _, method, _ in records} == {"group", "dirichlet", "lp"}
        for A, form, method, r in records:
            assert r.certificate == is_phi_isomorphism(form, fresh(r.mapping)), (A, form, method)

    @pytest.mark.parametrize(
        "elements, form, raw",
        [
            ([0, 1, 3], SUM_FORM, [0, 1, 2]),  # 0 + 2 = 1 + 1 has no match in A
            ([0, 1, 3], SUM_FORM, [5, -1, 2]),  # a pairing that is not by order
            ([0, 2, 3, 7], DIFFERENCE_FORM, [1, 2, 3, 4]),
            ([Fraction(1, 2), 2, Fraction(7, 3)], LinearForm((Fraction(1, 2), 1, -1)), [3, 1, 2]),
            ([_S2((0, 0)), _S2((0, 1)), _S2((1, 0))], SUM_FORM, [0, 2, 1]),
        ],
    )
    def test_a_non_isomorphic_raw_raises_the_oracle_witness(self, elements, form, raw):
        A = FiniteSet(elements)
        keys, scale = images.form_keys(form, A.elements)
        B = translate_positive(FiniteSet(raw))
        shift = B.min() - min(raw)
        mapping = SetBijection.from_function(A, B, lambda a: raw[A.elements.index(a)] + shift)
        expected = is_phi_isomorphism(form, mapping)
        assert not expected.is_isomorphism
        with pytest.raises(CertificateError, match=re.escape(f"at witness {expected.witness}")):
            realization._finish(A, form, keys, scale, raw, "test", None)

    @pytest.mark.parametrize("route", ["dirichlet", "lp"])
    def test_one_value_table_per_column_of_a_and_of_b(self, monkeypatch, route):
        # A has one integer column per basis coordinate, B one column
        calls = _spy_value_tables(monkeypatch)
        for A in realization_suite()[:9]:
            for form in REALIZATION_FORMS:
                calls.clear()
                realize(A, form, route)
                columns = 1 if A.basis is None else A.basis.dimension
                assert calls == [len(A)] * (columns + 1), (A, form)

    def test_dirichlet_calls_no_form_image(self, monkeypatch):
        cases = [(A, form) for A in realization_suite()[:9] for form in REALIZATION_FORMS]
        cases += [(FiniteSet(els), form) for els, form in SCAN_CASES]
        expected = [realize_dirichlet(A, form) for A, form in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("form_image called")

        monkeypatch.setattr(realization, "form_image", refuse)
        monkeypatch.setattr(images, "form_image", refuse)
        assert [realize_dirichlet(A, form) for A, form in cases] == expected


def fresh(f: SetBijection) -> SetBijection:
    """An equal pairing that carries no certificate tables."""
    return SetBijection(f.domain, f.codomain, f.perm)


#: a rational form checks that the carried scales are the original form's
CARRIED_FORMS = tuple(LinearForm.parse(text) for text in ("1,1", "1,-1", "1/2,1/3", "1,1,-1"))


class TestCarriedTables:
    """_finish hands its key tables, scales and verdict to the pairing it
    returns; on the certified form, induced_bijection must give on that
    pairing exactly what it gives on a fresh equal one, which computes them."""

    @pytest.mark.parametrize("route", ["group", "dirichlet", "lp"])
    def test_induced_map_is_the_fresh_pairings(self, route):
        for A in realization_suite():
            for form in CARRIED_FORMS:
                mapping = realize(A, form, route).mapping
                assert mapping._tables is not None
                got = induced_bijection(form, mapping).pairs
                assert repr(got) == repr(induced_bijection(form, fresh(mapping)).pairs), (A, form)

    @pytest.mark.parametrize("route", ["group", "dirichlet", "lp"])
    def test_induced_map_builds_no_value_table(self, monkeypatch, route):
        calls = _spy_value_tables(monkeypatch)
        for A in realization_suite()[:9]:
            for form in CARRIED_FORMS:
                mapping = realize(A, form, route).mapping
                calls.clear()
                induced_bijection(form, mapping)
                assert calls == [], (A, form)
                induced_bijection(form, fresh(mapping))
                assert calls, (A, form)

    def test_a_signed_form_computes_its_own_tables(self, monkeypatch):
        calls = _spy_value_tables(monkeypatch)
        for A in realization_suite()[:9]:
            for form in CARRIED_FORMS:
                mapping = realize(A, form, "group").mapping
                for flip, flipped in all_sign_flips(form):
                    calls.clear()
                    got = induced_bijection(flipped, mapping).pairs
                    assert bool(calls) == (flipped != form), (A, form, flip)
                    assert repr(got) == repr(induced_bijection(flipped, fresh(mapping)).pairs)
                    assert check_signed_transfer(form, flip, mapping)
                    assert check_signed_transfer(form, flip, fresh(mapping))

    def test_the_tables_are_no_part_of_the_pairings_value(self):
        for A in realization_suite()[:9]:
            for form in CARRIED_FORMS:
                mapping = realize(A, form, "group").mapping
                other = fresh(mapping)
                assert other._tables is None
                assert mapping == other
                assert hash(mapping) == hash(other)
                assert repr(mapping) == repr(other)


def _route_digest(route: str) -> str:
    """sha256 over B and every params field of the route's 100 suite results."""
    h = hashlib.sha256()
    count = 0
    for A, form, method, r in suite_results()[0]:
        if method != route:
            continue
        count += 1
        key = (r.B.elements, dataclasses.astuple(r.params))
        h.update(repr(key).encode() + b"\n")
    assert count == 100
    return h.hexdigest()


def test_lp_route_is_pinned():
    # digest taken with the Fraction tableau: the same pivots must give the same B
    assert _route_digest("lp") == LP_SUITE_SHA256


def test_dirichlet_route_is_pinned():
    # digest taken with fixed 2^18 blocks: any block schedule scans q in
    # increasing order, so it must find the same q
    assert _route_digest("dirichlet") == DIRICHLET_SUITE_SHA256


def test_auto_is_the_group_route():
    rng = random.Random(20261019)
    for i in range(60):
        A = random_set(rng, SET_KINDS[i % len(SET_KINDS)], 8)
        form = random_form(rng)
        auto, group = realize(A, form, "auto"), realize(A, form, "group")
        assert (auto.B, auto.method, auto.mapping) == (group.B, group.method, group.mapping)
        assert auto.params == group.params
