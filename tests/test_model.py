import hashlib
import operator
import random
import re
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
from addcomb.images import decode, form_keys, image_order
from helpers import (
    BASIS_GHOST,
    BASIS_SQRT2,
    BASIS_SQRT23,
    BASIS_UNIT,
    SET_KINDS,
    float_order,
    random_form,
    random_int_set,
    random_rational,
    random_set,
)


def _outcome(fn):
    """(result, None), or (None, message) when fn raises ValueError."""
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


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


class TestRealOrder:
    """FiniteSet and images.image_order against helpers.float_order, the
    former sort by float plus a fresh comparison per adjacent pair."""

    def test_matches_float_order_oracle(self):
        rng = random.Random(2024)
        seen = {"ordered": 0, "tie, integer": 0, "tie, rational": 0}
        for i in range(240):
            basis = (BASIS_SQRT2, BASIS_SQRT23, BASIS_GHOST)[i % 3]
            values = [
                basis.element([random_rational(rng, 4, 2) for _ in range(basis.dimension)])
                for _ in range(rng.randint(1, 8))
            ]
            keys, scale = form_keys(random_form(rng, 2), values)
            keys = list(dict.fromkeys(keys))
            decoded = decode(keys, scale, basis)
            cases = (
                (_outcome(lambda: list(FiniteSet(values))), _outcome(lambda: float_order(values))),
                (
                    _outcome(lambda: decode(image_order(keys, scale, basis), scale, basis)),
                    _outcome(lambda: float_order(decoded)),
                ),
            )
            for (got, got_err), (want, want_err) in cases:
                if want_err is None:
                    assert got_err is None
                    assert got == want
                    seen["ordered"] += 1
                elif "Fraction(" in want_err:
                    assert got_err == re.sub(r"Fraction\((-?\d+), (\d+)\)", r"\1/\2", want_err)
                    seen["tie, rational"] += 1
                else:
                    assert got_err == want_err
                    seen["tie, integer"] += 1
        assert min(seen.values()) >= 20, seen

    def test_outcomes_over_random_sets_are_pinned(self):
        """FiniteSet on shuffled elements and image_order on shuffled distinct
        keys, over helpers.random_set: the pin is the float order's, which
        these values are far enough apart to share."""
        rng = random.Random(5)
        digest = hashlib.sha256()
        for i in range(2000):
            A = random_set(rng, SET_KINDS[i % len(SET_KINDS)], 8)
            elements = list(A.elements)
            rng.shuffle(elements)
            digest.update(repr(FiniteSet(elements).elements).encode())
            keys, scale = form_keys(random_form(rng, 3), A.elements)
            keys = list(dict.fromkeys(keys))
            rng.shuffle(keys)
            digest.update(repr(image_order(keys, scale, A.basis)).encode())
        assert digest.hexdigest() == (
            "5e4cc22d44c1210f0c4fbe2ca029340babaaed348829240165caaabbc0030b18"
        )

    def test_dimension_one_orders_exactly(self):
        """2^53 + 1 and 2^53 share a float, but the unit basis is exact."""
        big, small = (BASIS_UNIT.element((2**53 + n,)) for n in (1, 0))
        assert FiniteSet([big, small]).elements == (small, big)
        assert small < big and not big < small and 2**53 < big
        assert image_order([2**53 + 1, 2**53], 1, BASIS_UNIT) == [2**53, 2**53 + 1]

    def test_no_float_is_computed(self, monkeypatch):
        def refuse(x):
            raise AssertionError("a float was computed to order symbolic reals")

        monkeypatch.setattr(RealElement, "__float__", refuse)
        rng = random.Random(7)
        values = [
            BASIS_SQRT23.element((n, rng.randint(-2, 2), rng.randint(-2, 2))) for n in range(20)
        ]
        assert len(FiniteSet(values + values[::3])) == 20
        keys, scale = form_keys(LinearForm((1, 1, -1)), values)
        keys = list(dict.fromkeys(keys))
        assert sorted(image_order(keys, scale, BASIS_SQRT23)) == sorted(keys)

    @pytest.mark.parametrize(
        "coords",
        [
            (10**400, 0, 0),  # float() of the coordinate overflows
            (0, 10, 0),  # a term is inf
            (10**308, 1, 0),  # fsum overflows
        ],
    )
    def test_values_beyond_float_range_order_exactly(self, coords):
        huge = BasisDecl(("1", "big", "bigger"), (1.0, 1e308, 1e308))
        x, zero = huge.element(coords), huge.element((0, 0, 0))
        assert FiniteSet([x, zero]).elements == (zero, x)
        assert zero < x and not x < zero and 0 < x

    def test_difference_of_equal_approximations_is_a_tie(self):
        """10 * big - 10 * bigger: both approximations are 1e308 to within
        half an ulp, so its sign is unknown."""
        huge = BasisDecl(("1", "big", "bigger"), (1.0, 1e308, 1e308))
        x, zero = huge.element((0, 10, -10)), huge.element((0, 0, 0))
        message = (
            "float tie between distinct symbolic reals (0, 0, 0) and (0, 10, -10); "
            "basis approximations cannot order them"
        )
        for order in (lambda: FiniteSet([zero, x]), lambda: zero < x):
            with pytest.raises(ValueError) as exc:
                order()
            assert str(exc.value) == message


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

    def test_integral_form_is_returned_as_is(self):
        for coeffs in [(1, -1), (2, 3), (1, 1, -1), (Fraction(4, 2), -7)]:
            f = LinearForm(coeffs)
            g, m = clear_denominators(f)
            assert g is f and m == 1

    def test_mixed_form_clears_to_the_least_multiple(self):
        g, m = clear_denominators(LinearForm((Fraction(1, 2), Fraction(1, 3))))
        assert (g.coeffs, m) == ((3, 2), 6)
        g, m = clear_denominators(LinearForm((3, Fraction(-5, 6), Fraction(1, 4))))
        assert (g.coeffs, m) == ((36, -10, 3), 12)

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
