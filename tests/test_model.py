import operator
import random
from fractions import Fraction

import pytest

from addcomb import (
    BasisDecl,
    FiniteSet,
    LinearForm,
    RealElement,
    affine_image,
    clear_denominators,
    signed_form,
)
from helpers import BASIS_SQRT2, random_form, random_int_set


class TestFiniteSet:
    def test_sorts_and_dedups(self):
        A = FiniteSet([3, 1, 2, 3, 1])
        assert A.elements == (1, 2, 3)
        assert len(A) == 3

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            FiniteSet([])

    def test_fraction_int_mix_is_one_kind(self):
        A = FiniteSet([Fraction(1, 2), 1, Fraction(2, 2)])
        assert A.elements == (Fraction(1, 2), 1)
        assert A.is_integer() is False
        assert FiniteSet([Fraction(4, 2), 1]).is_integer()

    def test_kind_mixing_rejected(self):
        x = BASIS_SQRT2.element((1, 0))
        with pytest.raises(TypeError):
            FiniteSet([x, 1])

    def test_real_elements_sorted_by_float(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([rt2, 0 * rt2, 1 + 0 * rt2])
        assert [float(x) for x in A] == sorted(float(x) for x in A)
        assert len(A) == 3

    def test_float_tie_is_hard_error(self):
        fake = BasisDecl(("1", "ghost"), (1.0, 1.0))
        with pytest.raises(ValueError, match="tie"):
            FiniteSet([fake.element((1, 0)), fake.element((0, 1))])

    def test_basis_mismatch_rejected(self):
        other = BasisDecl(("1", "sqrt2"), (1.0, 1.41))
        with pytest.raises(ValueError):
            FiniteSet([BASIS_SQRT2.element((0, 1)), other.element((1, 0))])


class TestRealElement:
    def test_equality_is_exact_coords(self):
        a = BASIS_SQRT2.element((Fraction(1, 2), 1))
        b = BASIS_SQRT2.element((Fraction(1, 2), 1))
        c = BASIS_SQRT2.element((Fraction(1, 2), 2))
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_arithmetic(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        x = 3 * rt2 + Fraction(1, 2)
        assert x.coords == (Fraction(1, 2), 3)
        assert (x - rt2).coords == (Fraction(1, 2), 2)
        assert (-x).coords == (Fraction(-1, 2), -3)
        assert (Fraction(1, 2) + rt2).coords == (Fraction(1, 2), 1)
        assert (1 - rt2).coords == (1, -1)

    def test_rational_detection(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        assert (0 * rt2 + 5).rational_value() == 5
        with pytest.raises(ValueError):
            rt2.rational_value()

    def test_ratio_to(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        u = 2 + 4 * rt2
        v = 1 + 2 * rt2
        assert u.ratio_to(v) == 2
        with pytest.raises(ValueError):
            (1 + 4 * rt2).ratio_to(v)

    def test_rational_comparison_tie_is_hard_error(self):
        x = BASIS_SQRT2.unit("sqrt2")
        q = Fraction(1.4142135623730951)  # the float approximation, exactly
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for a, b in ((x, q), (q, x)):
                with pytest.raises(ValueError, match="tie"):
                    op(a, b)

    def test_rational_comparison_orders(self):
        x = BASIS_SQRT2.unit("sqrt2")
        assert 1 < x < 2 and x <= Fraction(3, 2) and not x >= Fraction(3, 2)
        assert (0 * x + 5) <= 5 and (0 * x + 5) >= 5

    def test_basis_must_declare_unit_first(self):
        with pytest.raises(ValueError):
            BasisDecl(("sqrt2", "1"), (1.41, 1.0))
        with pytest.raises(ValueError):
            BasisDecl(("1", "1"), (1.0, 1.0))


class TestLinearForm:
    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            LinearForm((0, 0))
        with pytest.raises(ValueError):
            LinearForm(())

    def test_parse(self):
        f = LinearForm.parse("1/2, -1, 3")
        assert f.coeffs == (Fraction(1, 2), -1, 3)
        assert f.arity == 3

    def test_parse_names_the_bad_token(self):
        for text in ("1/0", "1, x"):
            with pytest.raises(ValueError, match="bad form coefficient"):
                LinearForm.parse(text)

    def test_evaluate(self):
        f = LinearForm((2, 3))
        assert f((5, 7)) == 31
        rt2 = BASIS_SQRT2.unit("sqrt2")
        assert f((rt2, 1 + 0 * rt2)).coords == (3, 2)


class TestSignedForm:
    def test_flip_second_gives_difference(self):
        assert signed_form(LinearForm((1, 1)), {2}) == LinearForm((1, -1))

    def test_empty_flip_is_identity(self):
        f = LinearForm((1, 1, 1))
        assert signed_form(f, set()) == f

    def test_flip_third(self):
        assert signed_form(LinearForm((1, 1, 1)), {3}) == LinearForm((1, 1, -1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            signed_form(LinearForm((1, 1)), {3})
        with pytest.raises(ValueError):
            signed_form(LinearForm((1, 1)), {0})

    def test_double_flip_is_identity(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_form(rng)
            flip = frozenset(j for j in range(1, f.arity + 1) if rng.random() < 0.5)
            assert signed_form(signed_form(f, flip), flip) == f


class TestClearDenominators:
    def test_halves_and_thirds(self):
        g, m = clear_denominators(LinearForm((Fraction(1, 2), Fraction(1, 3))))
        assert m == 6
        assert g == LinearForm((3, 2))

    def test_already_integral(self):
        f = LinearForm((1, -1))
        g, m = clear_denominators(f)
        assert m == 1 and g == f

    def test_quarters(self):
        g, m = clear_denominators(LinearForm((Fraction(1, 4), Fraction(1, 4))))
        assert m == 4
        assert g == LinearForm((1, 1))

    def test_coincidences_unchanged(self):
        rng = random.Random(11)
        for _ in range(100):
            h = rng.randint(1, 3)
            while True:
                coeffs = tuple(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(h)
                )
                if any(coeffs):
                    break
            f = LinearForm(coeffs)
            g, _ = clear_denominators(f)
            u = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(h))
            v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(h))
            assert (f(u) == f(v)) == (g(u) == g(v))


class TestAffineImage:
    def test_reflection_of_the_worked_set(self):
        A = FiniteSet([0, 2, 3, 4, 7, 11, 12, 14])
        assert affine_image(A, -1, 14).elements == (0, 2, 3, 7, 10, 11, 12, 14)

    def test_identity(self):
        A = FiniteSet([0, 1, 2])
        assert affine_image(A, 1, 0) == A

    def test_scale_and_shift(self):
        A = FiniteSet([0, 2, 3, 4, 7, 11, 12, 14])
        assert affine_image(A, 3, 5).elements == (5, 11, 14, 17, 26, 38, 41, 47)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            affine_image(FiniteSet([1]), 0, 3)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(50):
            A = random_int_set(rng)
            lam = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            mu = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            back = affine_image(affine_image(A, lam, mu), 1 / lam, -mu / lam)
            assert back == A

    def test_symbolic_set_with_rational_shift(self):
        rt2 = BASIS_SQRT2.unit("sqrt2")
        A = FiniteSet([0 * rt2, rt2])
        shifted = affine_image(A, 2, Fraction(1, 2))
        assert shifted.elements[0].coords == (Fraction(1, 2), 0)
        assert shifted.elements[1].coords == (Fraction(1, 2), 2)
