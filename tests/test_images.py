import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from addcomb import (
    CANONICAL_MSTD8,
    DIFFERENCE_FORM,
    SUM_FORM,
    BasisDecl,
    FiniteSet,
    LinearForm,
    RealElement,
    check_symmetric_equality,
    form_image,
    is_mstd,
    random_symmetric_set,
    rep_function,
    symmetry_center,
)
from helpers import (
    ORACLE_FORMS,
    SET_KINDS,
    naive_multiplicities,
    random_form,
    random_int_set,
    random_set,
)

TRIPLE_SUM = LinearForm((1, 1, 1))

#: {0, 1, t, 3} with t declared as 2.0: A+A holds 2 and t, distinct values
#: that no float comparison can order
TIE_BASIS = BasisDecl(("1", "t"), (1.0, 2.0))
TIE_SET = FiniteSet(TIE_BASIS.element(c) for c in ((0, 0), (1, 0), (0, 1), (3, 0)))


class TestFormImage:
    def test_sumset_of_worked_example(self):
        report = form_image(SUM_FORM, CANONICAL_MSTD8)
        expected = FiniteSet(x for x in range(29) if x not in (1, 20, 27))
        assert report.image == expected
        assert report.size == 26

    def test_difference_set_of_worked_example(self):
        report = form_image(DIFFERENCE_FORM, CANONICAL_MSTD8)
        expected = FiniteSet(x for x in range(-14, 15) if abs(x) not in (6, 13))
        assert report.image == expected
        assert report.size == 25

    def test_triple_sum_of_worked_example(self):
        report = form_image(TRIPLE_SUM, CANONICAL_MSTD8)
        expected = FiniteSet(x for x in range(43) if x not in (1, 41))
        assert report.image == expected
        assert report.size == 41

    def test_singleton(self):
        report = form_image(SUM_FORM, FiniteSet([0]))
        assert report.image == FiniteSet([0])
        assert report.multiplicity(0) == 1

    def test_matches_naive_oracle(self):
        rng = random.Random(17)
        for i in range(200):
            kind = SET_KINDS[i % len(SET_KINDS)]
            if rng.random() < 0.3:
                f = rng.choice(ORACLE_FORMS)
            else:
                f = random_form(rng)
                if rng.random() < 0.5:
                    f = LinearForm(tuple(Fraction(c, rng.randint(1, 4)) for c in f.coeffs))
            A = random_set(rng, kind, 6 if f.arity < 3 else 4)
            report = form_image(f, A)
            want = naive_multiplicities(f.coeffs, A.elements)
            assert report.multiplicities == want
            values = sorted(want, key=float)
            assert list(report.image.elements) == values
            assert [str(x) for x in report.image] == [str(x) for x in values]

    def test_orders_and_counts_as_fresh_exact_work_does(self):
        # the image is ordered once, on its keys: a FiniteSet built afresh
        # from its values must agree, and the multiplicities must match a
        # recount over exact coordinate vectors
        def coords(x) -> tuple:
            return x.coords if isinstance(x, RealElement) else (x,)

        rng = random.Random(37)
        for i in range(120):
            kind = ("rational", "symbolic-1", "symbolic-2", "symbolic-3")[i % 4]
            f = random_form(rng)
            if rng.random() < 0.5:
                f = LinearForm(tuple(Fraction(c, rng.randint(1, 4)) for c in f.coeffs))
            A = random_set(rng, kind, 7 if f.arity < 3 else 4)
            report = form_image(f, A)
            assert report.image == FiniteSet(list(report.image))
            vecs = [tuple(map(Fraction, coords(a))) for a in A]
            dims = range(len(vecs[0]))
            recount = Counter(
                tuple(sum(c * vecs[j][d] for c, j in zip(f.coeffs, tup)) for d in dims)
                for tup in itertools.product(range(len(A)), repeat=f.arity)
            )
            assert Counter({coords(x): m for x, m in report.multiplicities.items()}) == recount

    def test_multiplicities_sum_to_tuple_count(self):
        rng = random.Random(23)
        for _ in range(40):
            A = random_int_set(rng, kmax=7)
            f = random_form(rng)
            report = form_image(f, A)
            assert sum(report.multiplicities.values()) == len(A) ** f.arity
            assert all(m >= 1 for m in report.multiplicities.values())


class TestRepFunction:
    def test_zero_has_one_pair(self):
        assert rep_function(SUM_FORM, CANONICAL_MSTD8, 0) == 1

    def test_missing_value(self):
        assert rep_function(SUM_FORM, CANONICAL_MSTD8, 1) == 0

    def test_value_fourteen(self):
        # ordered pairs: (0,14),(14,0),(2,12),(12,2),(3,11),(11,3),(7,7)
        assert rep_function(SUM_FORM, CANONICAL_MSTD8, 14) == 7


class TestIsMstd:
    def test_worked_example(self):
        v = is_mstd(CANONICAL_MSTD8)
        assert (v.sum_count, v.diff_count, v.is_mstd) == (26, 25, True)

    def test_small_progression(self):
        v = is_mstd(FiniteSet([0, 1, 2]))
        assert (v.sum_count, v.diff_count, v.is_mstd) == (5, 5, False)

    def test_singleton(self):
        v = is_mstd(FiniteSet([0]))
        assert (v.sum_count, v.diff_count, v.is_mstd) == (1, 1, False)

    def test_float_tie_is_counted_not_ordered(self):
        v = is_mstd(TIE_SET)
        assert (v.sum_count, v.diff_count, v.is_mstd) == (10, 13, False)
        with pytest.raises(ValueError, match="float tie"):
            form_image(SUM_FORM, TIE_SET)

    def test_symbolic_sizes_match_naive_oracle(self):
        rng = random.Random(29)
        for i in range(60):
            A = random_set(rng, SET_KINDS[i % len(SET_KINDS)], 8)
            v = is_mstd(A)
            s = len(naive_multiplicities((1, 1), A.elements))
            d = len(naive_multiplicities((1, -1), A.elements))
            assert (v.sum_count, v.diff_count, v.is_mstd) == (s, d, s > d)

    def test_count_bounds(self):
        rng = random.Random(31)
        for _ in range(60):
            A = random_int_set(rng)
            k = len(A)
            v = is_mstd(A)
            assert 2 * k - 1 <= v.sum_count <= k * (k + 1) // 2
            assert 2 * k - 1 <= v.diff_count <= k * (k - 1) + 1

    def test_progressions_are_tight_and_conversely(self):
        rng = random.Random(37)

        def is_progression(A):
            els = A.elements
            if len(els) <= 2:
                return True
            step = els[1] - els[0]
            return all(b - a == step for a, b in zip(els, els[1:]))

        for _ in range(60):
            if rng.random() < 0.5:
                start, step, k = rng.randint(-9, 9), rng.randint(1, 5), rng.randint(1, 8)
                A = FiniteSet(start + i * step for i in range(k))
            else:
                A = random_int_set(rng)
            v = is_mstd(A)
            tight = v.sum_count == 2 * len(A) - 1 and v.diff_count == 2 * len(A) - 1
            assert tight == is_progression(A)

    def test_difference_set_symmetric(self):
        rng = random.Random(41)
        for _ in range(40):
            A = random_int_set(rng)
            d = form_image(DIFFERENCE_FORM, A).image
            assert FiniteSet(-x for x in d) == d

    def test_translation_invariance(self):
        rng = random.Random(43)
        for _ in range(40):
            A = random_int_set(rng)
            mu = rng.randint(-30, 30)
            B = FiniteSet(a + mu for a in A)
            va, vb = is_mstd(A), is_mstd(B)
            assert (va.sum_count, va.diff_count) == (vb.sum_count, vb.diff_count)


class TestSymmetryCenter:
    def test_progression(self):
        w = symmetry_center(FiniteSet([0, 1, 2, 3]))
        assert w.present and w.center_sum == 3

    def test_worked_example_not_symmetric(self):
        assert not symmetry_center(CANONICAL_MSTD8).present

    def test_singleton(self):
        w = symmetry_center(FiniteSet([5]))
        assert w.present and w.center_sum == 10

    def test_mirror_pair_set(self):
        w = symmetry_center(FiniteSet([0, 3, 4, 7]))
        assert w.present and w.center_sum == 7

    def test_rational_center(self):
        w = symmetry_center(FiniteSet([0, Fraction(1, 2), 2, Fraction(5, 2)]))
        assert w.present and w.center_sum == Fraction(5, 2)


class TestSymmetricEquality:
    def test_progression_triple_form(self):
        A = FiniteSet([0, 1, 2, 3])
        assert check_symmetric_equality(A, TRIPLE_SUM, {3})
        assert form_image(TRIPLE_SUM, A).size == 10  # 3k-2 at k=4

    def test_singleton(self):
        assert check_symmetric_equality(FiniteSet([0]), SUM_FORM, {1})

    def test_mirror_pair_set(self):
        assert check_symmetric_equality(FiniteSet([0, 3, 4, 7]), SUM_FORM, {2})

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric_equality(CANONICAL_MSTD8, SUM_FORM, {2})

    def test_random_symmetric_sets(self):
        rng = random.Random(47)
        for trial in range(50):
            n = rng.randint(2, 16)
            kmax = n + 1 if n % 2 == 0 else n + 1 - (n + 1) % 2
            k = rng.randint(1, kmax)
            if k % 2 == 1 and n % 2 == 1:
                k += 1
            A = random_symmetric_set(trial, n, min(k, kmax))
            f = random_form(rng)
            flip = frozenset(j for j in range(1, f.arity + 1) if rng.random() < 0.5)
            assert check_symmetric_equality(A, f, flip)
