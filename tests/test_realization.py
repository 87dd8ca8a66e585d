import itertools
import random
from fractions import Fraction

import pytest

from addcomb import (
    ApproximationError,
    BasisDecl,
    BudgetExceededError,
    FiniteSet,
    LatticeSet,
    LinearForm,
    SUM_FORM,
    DIFFERENCE_FORM,
    all_sign_flips,
    check_signed_transfer,
    form_image,
    is_mstd,
    is_phi_isomorphism,
    lattice_embed,
    realize,
    realize_dirichlet,
    realize_group,
    realize_lp,
    translate_positive,
)
from helpers import BASIS_SQRT2, realization_suite, suite_results


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
    def test_dimension_one_is_identity(self):
        B, params = lattice_embed(LatticeSet(1, [(0,), (2,), (5,)]), SUM_FORM)
        assert B.elements == (0, 2, 5)
        assert params.lam == 2 * 5 * 1 * 2 + 2

    def test_unit_square_corner(self):
        lattice = LatticeSet(2, [(0, 0), (1, 0), (0, 1)])
        B, params = lattice_embed(lattice, SUM_FORM)
        assert (params.a_star, params.phi_star, params.arity, params.lam) == (1, 1, 2, 6)
        assert B.elements == (0, 1, 6)
        assert lattice_coincidence_oracle(lattice.points, (1, 1), [0, 1, 6])

    def test_negative_coordinates(self):
        lattice = LatticeSet(2, [(-1, 0), (1, 1)])
        B, params = lattice_embed(lattice, DIFFERENCE_FORM)
        assert params.lam == 6
        assert B.elements == (-1, 7)
        assert lattice_coincidence_oracle(lattice.points, (1, -1), [-1, 7])

    def test_embedding_preserves_coincidences_randomly(self):
        rng = random.Random(3)
        for _ in range(20):
            d = rng.randint(1, 3)
            pts = set()
            while len(pts) < rng.randint(2, 4):
                pts.add(tuple(rng.randint(-2, 2) for _ in range(d)))
            lattice = LatticeSet(d, sorted(pts))
            coeffs = (1, rng.choice([-2, -1, 1, 2]))
            values = _embed_values(lattice, LinearForm(coeffs))
            assert lattice_coincidence_oracle(lattice.points, coeffs, values)

    def test_rational_form_rejected(self):
        with pytest.raises(ValueError, match="denominators"):
            lattice_embed(LatticeSet(1, [(0,)]), LinearForm((Fraction(1, 2), 1)))

    def test_distinct_points_required(self):
        with pytest.raises(ValueError):
            LatticeSet(2, [(0, 0), (0, 0)])


def _embed_values(lattice: LatticeSet, form: LinearForm):
    _, params = lattice_embed(lattice, form)
    powers = [params.lam**i for i in range(lattice.dimension)]
    return [sum(x * w for x, w in zip(p, powers)) for p in lattice.points]


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

    def test_singleton_returns_one(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        r = realize_dirichlet(FiniteSet([rt2]), SUM_FORM)
        assert r.B.elements == (1,)

    def test_exhausted_bound_reports_residual(self):
        A = FiniteSet([0, Fraction(1, 97), Fraction(113, 997)])
        with pytest.raises(ApproximationError, match="best max-residual"):
            realize_dirichlet(A, SUM_FORM, q_bound=5)

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
