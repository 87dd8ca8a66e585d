import functools
import itertools
import random

import numpy as np
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
    mstd_subset_counts,
    normalize_affine,
    random_symmetric_set,
    symmetry_center,
    triple_form_scan,
)
from addcomb import search
from addcomb.search import (
    mask_elements,
    mask_of,
    mask_text,
    sum_diff_counts,
    worker_count,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture
def started_pools(monkeypatch):
    """The worker counts of the pools the scans start; the fake pool maps
    in-process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    return started


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


class TestMaskText:
    """The record text of a mask from byte lookups, against the text of its
    elements one by one."""

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, (1 << 31) - 1))
    @hypothesis.example(0)
    @hypothesis.example(1)
    @hypothesis.example((1 << 31) - 1)
    @hypothesis.example(1 << 7)
    @hypothesis.example(1 << 8)
    @hypothesis.example(1 << 15)
    @hypothesis.example(1 << 16)
    @hypothesis.example(1 << 23)
    @hypothesis.example(1 << 24)
    @hypothesis.example(1 << 30)
    @hypothesis.example(1 << 7 | 1 << 8 | 1 << 23 | 1 << 24)
    def test_matches_the_elements_one_by_one(self, mask):
        assert mask_text(mask) == ",".join(map(str, mask_elements(mask)))

    def test_past_the_search_masks(self):
        # library callers may hold any nonnegative mask; new byte positions
        # join the table on first use
        for mask in (1 << 64, 1 << 200 | 5, (1 << 100) - 1):
            assert mask_text(mask) == ",".join(map(str, mask_elements(mask)))

    def test_canonical_set_prints_it(self):
        assert str(normalize_affine(CANONICAL_MSTD8)) == "0,2,3,4,7,11,12,14"
        assert str(search.CanonicalSet(0)) == ""


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


class TestCanonicalMasks:
    """The array dedup of the scans against `_canonical_tuple` and the
    lexicographic order of `mask_elements` tuples."""

    @staticmethod
    def masks() -> list:
        rng = random.Random(31)
        # random sets holding 0 with top bits up to 30, dense and sparse
        out = [1 | rng.getrandbits(rng.randint(1, 31)) for _ in range(3000)]
        out += [mask_of({0, *rng.sample(range(1, 31), rng.randint(1, 6))}) for _ in range(1000)]
        for g in range(2, 31):  # gcd g
            for _ in range(20):
                els = rng.sample(range(1, 30 // g + 1), rng.randint(1, 30 // g))
                out.append(mask_of(g * e for e in (0, *els)))
        for seed in range(300):  # symmetric, translated to hold 0, some with gcd > 1
            n = rng.randint(1, 30)
            k = rng.choice([k for k in range(2, n + 2) if k % 2 == 0 or n % 2 == 0])
            A = random_symmetric_set(seed, n, k)
            out.append(mask_of(a - A.min() for a in A.elements))
        return [*out, 1]

    def test_agrees_with_canonical_tuple(self):
        masks = self.masks()
        found = search._canonical_masks(np.array(masks, np.uint64)).tolist()
        expected = [mask_of(search._canonical_tuple(mask_elements(m))) for m in masks]
        assert found == expected
        assert sum(m != e for m, e in zip(masks, expected)) > 1000  # not mostly fixed points

    def test_lex_keys_order_as_tuples(self):
        masks = sorted(set(self.masks()))
        keys = search._lex_keys(np.array(masks, np.uint64)).tolist()
        assert [m for _, m in sorted(zip(keys, masks))] == sorted(masks, key=mask_elements)
        assert len(set(keys)) == len(masks)


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

    def test_worker_count_does_not_change_output(self, monkeypatch):
        # tasks of 2^11 MSTD or 2^10 triple sets: 4 or 8 tasks at diameter
        # 13, so a pool starts
        monkeypatch.setattr(search, "TASK_WORDS", 1 << 13)
        monkeypatch.setattr(search, "POOL_WORDS", 1)
        cfg = SearchConfig(max_diameter=13)
        single = [c.elements for c in enumerate_mstd(cfg, jobs=1)]
        double = [c.elements for c in enumerate_mstd(cfg, jobs=2)]
        assert single == double
        single = [(c.elements, a, b) for c, a, b in triple_form_scan(cfg, True, jobs=1)]
        double = [(c.elements, a, b) for c, a, b in triple_form_scan(cfg, True, jobs=2)]
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

    def test_jobs_from_environment_go_through_the_cap(self, monkeypatch, started_pools):
        started = started_pools
        # tasks of 2^6 MSTD sets or 2^5 triple sets: 256 tasks at diameter
        # 14 and 32 at diameter 10, so the cap is the CPUs
        monkeypatch.setattr(search, "TASK_WORDS", 1 << 8)
        monkeypatch.setattr(search, "POOL_WORDS", 1)
        monkeypatch.setenv(search.JOBS_ENV_VAR, "100000")
        monkeypatch.setattr(search, "usable_cpus", lambda: 3)
        cfg = SearchConfig(max_diameter=14)
        assert enumerate_mstd(cfg) == enumerate_mstd(cfg, jobs=1)
        assert started == [3]
        cfg = SearchConfig(max_diameter=10)
        assert triple_form_scan(cfg, True) == triple_form_scan(cfg, True, jobs=1)
        assert started == [3, 3]

    def test_no_pool_below_break_even(self, monkeypatch, started_pools):
        # the kernel is stubbed out: only the decision to start a pool counts
        monkeypatch.setattr(search, "_chunk", lambda task: (np.zeros(0, np.uint64),) * 3)
        monkeypatch.setattr(search, "usable_cpus", lambda: 2)
        # 2^n sets of 4 words (MSTD) or 8 (triple); --jobs 2 keeps the MSTD
        # scan at diameter 22 in-process
        at = search.POOL_WORDS.bit_length() - 1
        assert at - 2 > 22
        for n in (at - 3, at - 2):
            assert enumerate_mstd(SearchConfig(max_diameter=n), jobs=2) == []
        for n in (at - 4, at - 3):
            assert triple_form_scan(SearchConfig(max_diameter=n), jobs=2) == []
        assert started_pools == [2, 2]

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


@functools.lru_cache(maxsize=None)
def set_counts(n: int) -> list:
    """(elements, |A+A|, |A-A|, |3A|, |2A-A|) for every subset of {0..n}
    containing 0, by set comprehension."""
    out = []
    for mask in range(1, 1 << (n + 1), 2):
        els = mask_elements(mask)
        sums = {a + b for a in els for b in els}
        diffs = {a - b for a in els for b in els}
        triple = {s + c for s in sums for c in els}
        mixed = {s - c for s in sums for c in els}
        out.append((els, len(sums), len(diffs), len(triple), len(mixed)))
    return out


def set_rows(mask: int, n: int, scan: str) -> list:
    """The rows `_add_element` keeps for the set `mask` in a scan at
    diameter n, by plain int arithmetic: mask, mirrored mask, A+A and
    (A-A) << n, the nonnegative half only for "mstd", then for the triple
    scans the low words of 3A and (2A-A) << n and their high words."""
    els = mask_elements(mask)
    mirror = sum(1 << (n - a) for a in els)
    sums = functools.reduce(int.__or__, (mask << a for a in els))
    diffs = {a - b for a in els for b in els if scan != "mstd" or a >= b}
    rows = [mask, mirror, sums, sum(1 << (n + d) for d in diffs)]
    if scan == "mstd":
        return rows
    triple = functools.reduce(int.__or__, (sums << a for a in els))
    mixed = functools.reduce(int.__or__, ((sums << n) >> a for a in els))
    low = (1 << 64) - 1
    return rows + [triple & low, mixed & low, triple >> 64, mixed >> 64]


class TestAddElement:
    """`_add_element` into other columns and in place, against every row
    recomputed by `set_rows`, for the 4 rows of "mstd" and the 8 of the
    triple scans at the largest diameter, where A+A reaches bit 60 and 3A
    bit 90."""

    N = 30

    @staticmethod
    def old_masks(b: int) -> list:
        """Sets holding 0 below b: {0}, all of {0..b-1}, sparse and dense."""
        rng = random.Random(b)
        masks = [1, (1 << b) - 1]
        masks += [1 | rng.getrandbits(b) for _ in range(12)]
        masks += [mask_of({0, *rng.sample(range(b), min(b, 3))}) for _ in range(6)]
        return masks

    def columns(self, masks, scan) -> np.ndarray:
        return np.array([set_rows(m, self.N, scan) for m in masks], np.uint64).T

    def expected(self, masks, b, scan) -> list:
        return [set_rows(m | 1 << b, self.N, scan) for m in masks]

    @pytest.mark.parametrize("scan", ["mstd", "triple"])
    @pytest.mark.parametrize("b", [1, 2, 9, 17, 23, 29, 30])
    def test_into_other_columns(self, scan, b):
        masks = self.old_masks(b)
        k = len(masks)
        old = self.columns(masks, scan)
        # stale bits where the new sets go: every row must be overwritten
        arrays = np.concatenate([old, np.full_like(old, 0xA5A5)], axis=1)
        search._add_element(arrays, slice(0, k), slice(k, 2 * k), b, self.N)
        assert arrays[:, :k].T.tolist() == [set_rows(m, self.N, scan) for m in masks]
        assert arrays[:, k:].T.tolist() == self.expected(masks, b, scan)

    @pytest.mark.parametrize("scan", ["mstd", "triple"])
    @pytest.mark.parametrize("b", [1, 2, 9, 17, 23, 29, 30])
    def test_in_place(self, scan, b):
        # as `_chunk` calls it, with two equal slices, and on a part only
        masks = self.old_masks(b)
        arrays = self.columns(masks, scan)
        search._add_element(arrays, slice(None), slice(None), b, self.N)
        assert arrays.T.tolist() == self.expected(masks, b, scan)
        arrays = self.columns(masks, scan)
        search._add_element(arrays, slice(2, 5), slice(2, 5), b, self.N)
        want = [set_rows(m, self.N, scan) for m in masks]
        want[2:5] = self.expected(masks[2:5], b, scan)
        assert arrays.T.tolist() == want

    def test_top_rows_are_reached(self):
        # the cases above fill the high words and bit 60 of A+A
        masks = self.old_masks(30)
        rows = np.array(self.expected(masks, 30, "triple"), dtype=object)
        assert max(rows[:, 2]) >> 60 and max(rows[:, 6]) and max(rows[:, 7])


def chunk_hits(cfg, scan, m, first) -> list:
    """The hits of the `_chunk` task that extends the set `first`, a subset
    of {0..m}, over {m+1..n}, as sorted (mask, c1, c2) ints."""
    column = np.array([set_rows(first, cfg.max_diameter, scan)], np.uint64).T
    return sorted(zip(*(a.tolist() for a in search._chunk((cfg, scan, m, column)))))


class TestPrefixTasks:
    @pytest.mark.parametrize("levels", [1, 3])
    def test_oracle_equivalence_over_many_tasks(self, monkeypatch, levels):
        # tasks of 2^levels triple sets (8 words each) and 2^(levels + 1)
        # MSTD sets (4 words), so every diameter here splits into many
        # tasks; MSTD sets first appear at diameter 14
        monkeypatch.setattr(search, "TASK_WORDS", 8 << levels)
        for n in (*range(levels + 1, 13), 14):
            counts = set_counts(n)
            cfg = SearchConfig(max_diameter=n)
            mstd = {normalize_affine(FiniteSet(els)).elements for els, s, d, _, _ in counts if s > d}
            assert [c.elements for c in enumerate_mstd(cfg, jobs=1)] == sorted(mstd), n
            for report_equal in (False, True):
                expected = {
                    normalize_affine(FiniteSet(els)).elements: (t, m)
                    for els, _, _, t, m in counts
                    if (t == m if report_equal else t > m)
                }
                found = [(c.elements, a, b) for c, a, b in triple_form_scan(cfg, report_equal, jobs=1)]
                assert found == sorted((k, *v) for k, v in expected.items()), (n, report_equal)

    def test_top_bits_at_diameter_thirty(self):
        # the task extends the 8-element MSTD set over {17..30}, so its hits
        # include sets with element 30, whose A+A reaches bit 60
        n, top = 30, 16
        first = mask_of(CANONICAL_MSTD8.elements)
        expected = []
        for suffix in range(1 << (n - top)):
            mask = first | suffix << (top + 1)
            s, d = sum_diff_counts(mask)
            if s > d:
                expected.append((mask, s, d))
        hits = chunk_hits(SearchConfig(max_diameter=n), "mstd", top, first)
        assert hits == expected
        assert any(mask >> n for mask, _, _ in hits)

    def test_high_word_at_diameter_twenty_six(self):
        # 3A and (2A-A) << n reach bit 78, past the low word; the first sets
        # with |3A| > |2A-A| have diameter 26, and this task holds two
        n, top = 26, 12
        first = mask_of((0, 1, 2, 3, 7))
        expected = {"triple": [], "equal": []}
        for suffix in range(1 << (n - top)):
            mask = first | suffix << (top + 1)
            els = mask_elements(mask)
            sums = 0
            for a in els:
                sums |= mask << a
            triple = mixed = 0
            for a in els:
                triple |= sums << a
                mixed |= (sums << n) >> a
            t, m = triple.bit_count(), mixed.bit_count()
            if t >= m:
                expected["triple" if t > m else "equal"].append((mask, t, m))
        cfg = SearchConfig(max_diameter=n)
        for scan, hits in expected.items():
            assert chunk_hits(cfg, scan, top, first) == hits, scan
        assert (mask_of((0, 1, 2, 3, 7, 19, 20, 23, 25, 26)), 78, 77) in expected["triple"]


class TestSlab:
    @pytest.mark.parametrize("task_words", [16, 64, 1 << 18])
    @pytest.mark.parametrize("scan", ["mstd", "triple"])
    def test_blocks_hold_each_subset_once(self, monkeypatch, scan, task_words):
        # the blocks handed to `_chunk` are of equal width and together hold
        # every subset of {0..m} containing 0 once, each column its set's rows
        monkeypatch.setattr(search, "TASK_WORDS", task_words)
        for n in range(1, 13):
            tasks = []
            monkeypatch.setattr(search, "_chunk", tasks.append)
            list(search._task_hits(SearchConfig(max_diameter=n), scan, 1))
            (m,) = {task[2] for task in tasks}
            assert m < n and len({task[3].shape for task in tasks}) == 1, n
            columns = np.concatenate([task[3] for task in tasks], axis=1).T.tolist()
            assert sorted(c[0] for c in columns) == list(range(1, 2 << m, 2)), n
            assert all(c == set_rows(c[0], n, scan) for c in columns), n


class TestMstdSubsetCounts:
    def test_set_comprehension_oracle(self):
        # each subset of {0..15} is counted from the smallest N holding it
        first = [0] * 17
        for mask in range(1, 1 << 16):
            els = mask_elements(mask)
            sums = {a + b for i, a in enumerate(els) for b in els[i:]}
            diffs = {a - b for i, a in enumerate(els) for b in els[:i]}  # a > b
            if len(sums) > 2 * len(diffs) + 1:
                first[mask.bit_length()] += 1
        assert mstd_subset_counts(15) == list(itertools.accumulate(first))

    def test_counts_to_eighteen(self):
        # by brute-force recount; none below 15, since the smallest MSTD set
        # has diameter 14
        assert mstd_subset_counts(17) == [0] * 15 + [4, 10, 30, 66]


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

    def test_report_equal_oracle_equivalence(self):
        # strict hits first appear beyond diameter 20, so only the equality
        # cases give the counts and filters something to act on
        for n in range(1, 11):
            equal = []
            for mask in range(1, 1 << (n + 1), 2):
                els = mask_elements(mask)
                triple = len({a + b + c for a in els for b in els for c in els})
                mixed = len({a + b - c for a in els for b in els for c in els})
                if triple == mixed:
                    equal.append((els, triple, mixed))
            for size, endpoints in itertools.product((None, 1, 3, 5), (False, True)):
                cfg = SearchConfig(max_diameter=n, size_filter=size, require_endpoints=endpoints)
                found = [(c.elements, a, b) for c, a, b in triple_form_scan(cfg, True)]
                expected = {
                    normalize_affine(FiniteSet(els)).elements: (triple, mixed)
                    for els, triple, mixed in equal
                    if (size is None or len(els) == size) and (not endpoints or els[-1] == n)
                }
                where = f"diameter {n}, size {size}, endpoints {endpoints}"
                assert found == sorted((k, *v) for k, v in expected.items()), where

    def test_report_equal_contains_progressions(self):
        hits = triple_form_scan(SearchConfig(max_diameter=4), report_equal=True)
        keys = {c.elements for c, _, _ in hits}
        assert (0, 1, 2, 3) in keys
        for c, a, b in hits:
            assert a == b

    def test_symmetric_sets_always_have_equal_counts(self):
        for mask in range(1, 1 << 9, 2):
            els = mask_elements(mask)
            if not symmetry_center(FiniteSet(els)).present:
                continue
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
