import itertools
import random

import pytest

from addcomb import (
    BudgetExceededError,
    CANONICAL_MSTD8,
    FiniteSet,
    LinearForm,
    SearchConfig,
    enumerate_mstd,
    form_image,
    is_mstd,
    normalize_affine,
    random_symmetric_set,
    symmetry_center,
    triple_form_scan,
)
from addcomb import search
from addcomb.search import (
    is_symmetric_mask,
    mask_elements,
    mask_of,
    sum_diff_counts,
    worker_count,
)


class TestMaskKernel:
    def test_round_trip(self):
        m = mask_of((0, 3, 7))
        assert mask_elements(m) == (0, 3, 7)

    def test_sum_diff_counts_on_worked_example(self):
        m = mask_of(CANONICAL_MSTD8.elements)
        assert sum_diff_counts(m) == (26, 25)

    def test_agrees_with_form_image_on_random_sets(self):
        rng = random.Random(9)
        for _ in range(1000):
            n = rng.randint(1, 30)
            k = rng.randint(1, min(n + 1, 9))
            els = sorted(rng.sample(range(n + 1), k))
            A = FiniteSet(els)
            s, d = sum_diff_counts(mask_of(els))
            assert s == form_image(LinearForm((1, 1)), A).size
            assert d == form_image(LinearForm((1, -1)), A).size


class TestNormalizeAffine:
    def test_translation(self):
        c = normalize_affine(FiniteSet([5, 7, 8, 9, 12, 16, 17, 19]))
        assert c.elements == (0, 2, 3, 4, 7, 11, 12, 14)

    def test_reflection_merges(self):
        c = normalize_affine(FiniteSet([0, 2, 3, 7, 10, 11, 12, 14]))
        assert c.elements == (0, 2, 3, 4, 7, 11, 12, 14)

    def test_gcd_division(self):
        assert normalize_affine(FiniteSet([0, 4, 8])).elements == (0, 1, 2)

    def test_idempotent_and_class_constant(self):
        rng = random.Random(21)
        for _ in range(100):
            k = rng.randint(1, 8)
            A = FiniteSet(rng.sample(range(-20, 40), k))
            c = normalize_affine(A)
            assert normalize_affine(c.to_finite_set()).elements == c.elements
            shift = rng.randint(-10, 10)
            assert normalize_affine(FiniteSet(a + shift for a in A)).elements == c.elements
            hi = A.max()
            assert normalize_affine(FiniteSet(hi - a for a in A)).elements == c.elements

    def test_rejects_rationals(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            normalize_affine(FiniteSet([Fraction(1, 2)]))


class TestEnumerateMstd:
    def test_diameter_four_empty_by_brute_force(self):
        assert enumerate_mstd(SearchConfig(max_diameter=4)) == []
        for mask in range(1, 1 << 5):
            A = FiniteSet(mask_elements(mask))
            assert not is_mstd(A).is_mstd

    def test_diameter_fourteen_size_eight(self):
        out = enumerate_mstd(SearchConfig(max_diameter=14, size_filter=8))
        assert [c.elements for c in out] == [(0, 2, 3, 4, 7, 11, 12, 14)]

    def test_no_small_mstd_through_diameter_fourteen(self):
        out = enumerate_mstd(SearchConfig(max_diameter=14))
        assert all(len(c.elements) >= 8 for c in out)

    def test_oracle_equivalence_small_diameters(self):
        # nothing is MSTD below diameter 14, so only 14 and 15 give the
        # size and endpoint filters hits to act on
        filters = {n: [(None, False)] for n in range(1, 11)}
        filters[14] = filters[15] = list(itertools.product((None, 8, 9), (False, True)))
        for n, combos in filters.items():
            hits = []
            for mask in range(1, 1 << (n + 1), 2):
                els = mask_elements(mask)
                sums = {a + b for a in els for b in els}
                diffs = {a - b for a in els for b in els}
                if len(sums) > len(diffs):
                    hits.append(els)
            for size, endpoints in combos:
                cfg = SearchConfig(
                    max_diameter=n, size_filter=size, require_endpoints=endpoints
                )
                found = [c.elements for c in enumerate_mstd(cfg)]
                expected = {
                    normalize_affine(FiniteSet(els)).elements
                    for els in hits
                    if (size is None or len(els) == size) and (not endpoints or els[-1] == n)
                }
                where = f"diameter {n}, size {size}, endpoints {endpoints}"
                assert found == sorted(expected), where

    def test_every_emission_is_mstd(self):
        for c in enumerate_mstd(SearchConfig(max_diameter=15)):
            assert is_mstd(c.to_finite_set()).is_mstd

    def test_worker_count_does_not_change_output(self):
        cfg = SearchConfig(max_diameter=13)
        single = [c.elements for c in enumerate_mstd(cfg, jobs=1)]
        double = [c.elements for c in enumerate_mstd(cfg, jobs=2)]
        assert single == double

    def test_endpoint_filter(self):
        out = enumerate_mstd(SearchConfig(max_diameter=15, require_endpoints=True))
        # every canonical hit must come from a mask containing 0 and 15;
        # diameter-14 classes are excluded by the endpoint requirement
        assert all(c.elements != (0, 2, 3, 4, 7, 11, 12, 14) for c in out)

    def test_worker_count_is_capped_by_tasks_and_cpus(self):
        assert worker_count(100000, 22, 2) == 2
        assert worker_count(100000, 3, 64) == 3
        assert worker_count(4, 22, 8) == 4
        assert worker_count(1, 22, 8) == 1

    def test_jobs_from_environment_go_through_the_cap(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setenv(search.JOBS_ENV_VAR, "100000")
        monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(search, "usable_cpus", lambda: 3)
        cfg = SearchConfig(max_diameter=14)
        assert enumerate_mstd(cfg) == enumerate_mstd(cfg, jobs=1)
        assert started == [3]

    def test_diameter_bounds(self):
        with pytest.raises(BudgetExceededError):
            SearchConfig(max_diameter=0)
        with pytest.raises(BudgetExceededError):
            SearchConfig(max_diameter=64)
        # 2^31 nodes exceed the budget; 2^30 is allowed (constructing the
        # config starts no walk)
        with pytest.raises(BudgetExceededError, match="node budget"):
            SearchConfig(max_diameter=31)
        assert SearchConfig(max_diameter=30).max_diameter == 30
        assert 1 << 30 == search.NODE_BUDGET


class TestTripleFormScan:
    def test_worked_example_counts_are_equal(self):
        A = CANONICAL_MSTD8
        triple = form_image(LinearForm((1, 1, 1)), A).size
        mixed = form_image(LinearForm((1, 1, -1)), A).size
        assert triple == mixed == 41
        hits = triple_form_scan(SearchConfig(max_diameter=14, size_filter=8))
        assert all(c.elements != A.elements for c, _, _ in hits)

    def test_progressions_not_emitted(self):
        hits = triple_form_scan(SearchConfig(max_diameter=6))
        for c, _, _ in hits:
            els = c.elements
            if len(els) > 2:
                step = els[1] - els[0]
                assert any(b - a != step for a, b in zip(els, els[1:]))

    def test_oracle_equivalence(self):
        for n in range(1, 7):
            hits = {
                c.elements: (a, b)
                for c, a, b in triple_form_scan(SearchConfig(max_diameter=n))
            }
            expected = {}
            for mask in range(1, 1 << (n + 1), 2):
                els = mask_elements(mask)
                triple = {a + b + c for a in els for b in els for c in els}
                mixed = {a + b - c for a in els for b in els for c in els}
                if len(triple) > len(mixed):
                    key = normalize_affine(FiniteSet(els)).elements
                    expected[key] = (len(triple), len(mixed))
            assert hits == expected, f"diameter {n}"

    def test_report_equal_contains_progressions(self):
        hits = triple_form_scan(SearchConfig(max_diameter=4), report_equal=True)
        keys = {c.elements for c, _, _ in hits}
        assert (0, 1, 2, 3) in keys
        for c, a, b in hits:
            assert a == b

    def test_symmetric_sets_always_have_equal_counts(self):
        for mask in range(1, 1 << 9, 2):
            if not is_symmetric_mask(mask):
                continue
            els = mask_elements(mask)
            triple = {a + b + c for a in els for b in els for c in els}
            mixed = {a + b - c for a in els for b in els for c in els}
            assert len(triple) == len(mixed)


class TestRandomSymmetricSet:
    def test_deterministic(self):
        assert random_symmetric_set(1, 7, 4) == random_symmetric_set(1, 7, 4)

    def test_symmetry_holds(self):
        for seed in range(30):
            A = random_symmetric_set(seed, 9, 4)
            w = symmetry_center(A)
            assert w.present and w.center_sum == 9

    def test_forced_small_case(self):
        for seed in range(5):
            assert random_symmetric_set(seed, 2, 3).elements == (0, 1, 2)

    def test_mirror_pair(self):
        A = random_symmetric_set(2, 10, 2)
        a, b = A.elements
        assert a + b == 10

    def test_infeasible_combinations(self):
        with pytest.raises(ValueError):
            random_symmetric_set(0, 3, 5)
        with pytest.raises(ValueError):
            random_symmetric_set(0, 7, 3)  # odd size needs a center
        with pytest.raises(ValueError):
            random_symmetric_set(0, 4, 0)
