import random
from fractions import Fraction

import pytest

from addcomb import (
    CANONICAL_MSTD8,
    FiniteSet,
    PositiveSet,
    exp_transport,
    is_mstd,
    log_transport,
    product_quotient_counts,
)
from helpers import random_int_set


class TestPositiveSet:
    def test_sorted_dedup(self):
        B = PositiveSet([4, 1, 2, 1])
        assert B.elements == (1, 2, 4)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PositiveSet([1, 0])
        with pytest.raises(ValueError):
            PositiveSet([Fraction(-1, 2)])

    def test_nonempty(self):
        with pytest.raises(ValueError):
            PositiveSet([])


class TestProductQuotientCounts:
    def test_powers_of_two(self):
        v = product_quotient_counts(PositiveSet([1, 2, 4]))
        assert (v.product_count, v.quotient_count, v.is_mptq) == (5, 5, False)

    def test_singleton(self):
        v = product_quotient_counts(PositiveSet([1]))
        assert (v.product_count, v.quotient_count, v.is_mptq) == (1, 1, False)

    def test_transported_worked_example(self):
        B = exp_transport(CANONICAL_MSTD8, 2)
        v = product_quotient_counts(B)
        assert (v.product_count, v.quotient_count, v.is_mptq) == (26, 25, True)

    def test_quotient_count_is_odd(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(1, 6)
            B = PositiveSet(
                Fraction(rng.randint(1, 30), rng.randint(1, 10)) for _ in range(k)
            )
            v = product_quotient_counts(B)
            assert v.quotient_count % 2 == 1


def naive_counts(elements) -> tuple[int, int]:
    """|B*B| and |B/B| as sets of Fractions over all ordered pairs."""
    fs = [Fraction(b) for b in elements]
    return len({a * b for a in fs for b in fs}), len({a / b for a in fs for b in fs})


class TestProductQuotientOracle:
    def test_positive_rational_sets(self):
        rng = random.Random(17)
        for _ in range(150):
            k = rng.randint(1, 9)
            B = PositiveSet(
                Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(k)
            )
            v = product_quotient_counts(B)
            assert (v.product_count, v.quotient_count) == naive_counts(B.elements)
            assert v.is_mptq == (v.product_count > v.quotient_count)

    def test_transported_sets_with_negative_exponents(self):
        rng = random.Random(19)
        for _ in range(100):
            A = random_int_set(rng, lo=-12, hi=12, kmax=8)
            B = exp_transport(A, rng.choice((2, 3, 5, 6)))
            v = product_quotient_counts(B)
            assert (v.product_count, v.quotient_count) == naive_counts(B.elements)


class TestTransport:
    def test_exp_of_worked_example(self):
        B = exp_transport(CANONICAL_MSTD8, 2)
        assert B.elements == (1, 4, 8, 16, 128, 2048, 4096, 16384)

    def test_exp_singleton(self):
        assert exp_transport(FiniteSet([0]), 3).elements == (1,)

    def test_exp_decimal(self):
        assert exp_transport(FiniteSet([0, 1, 2]), 10).elements == (1, 10, 100)

    def test_log_inverts_exp(self):
        B = PositiveSet([1, 4, 8, 16, 128, 2048, 4096, 16384])
        assert log_transport(B, 2) == CANONICAL_MSTD8

    def test_log_singleton(self):
        assert log_transport(PositiveSet([1]), 7).elements == (0,)

    def test_log_small_powers(self):
        assert log_transport(PositiveSet([9, 27]), 3).elements == (2, 3)

    def test_round_trip_including_negatives(self):
        rng = random.Random(11)
        for _ in range(50):
            A = random_int_set(rng, lo=-10, hi=10, kmax=7)
            for c in (2, 3, 10):
                assert log_transport(exp_transport(A, c), c) == A

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            log_transport(PositiveSet([6]), 2)
        with pytest.raises(ValueError):
            log_transport(PositiveSet([Fraction(3, 4)]), 2)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            exp_transport(FiniteSet([1]), 1)
        with pytest.raises(ValueError):
            exp_transport(FiniteSet([Fraction(1, 2)]), 2)


class TestTransportEquivalence:
    def test_counts_carry_over(self):
        rng = random.Random(13)
        for _ in range(50):
            A = random_int_set(rng, lo=-15, hi=15, kmax=8)
            c = rng.choice((2, 3, 10))
            v_add = is_mstd(A)
            v_mul = product_quotient_counts(exp_transport(A, c))
            assert v_add.sum_count == v_mul.product_count
            assert v_add.diff_count == v_mul.quotient_count
            assert v_add.is_mstd == v_mul.is_mptq
