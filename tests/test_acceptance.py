"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance here is exact (set equality and
integer counts); the only numeric bounds are wall-clock budgets.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import addcomb
from addcomb import (
    CANONICAL_MSTD8,
    DIFFERENCE_FORM,
    SUM_FORM,
    FiniteSet,
    LinearForm,
    SearchConfig,
    affine_image,
    all_sign_flips,
    check_symmetric_equality,
    classify_mstd8,
    enumerate_mstd,
    exp_transport,
    form_image,
    induced_bijection,
    is_mstd,
    normalize_affine,
    product_quotient_counts,
    random_symmetric_set,
    realize_group,
    triple_form_scan,
)
from addcomb.search import mask_elements, mask_of, sum_diff_counts
from helpers import BASIS_SQRT2, naive_multiplicities, suite_results

JOBS = min(2, os.cpu_count() or 1)


def _report(num: int, ok: bool, detail: str = ""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_worked_example_exactness():
    t0 = time.perf_counter()
    A = CANONICAL_MSTD8
    sums = form_image(SUM_FORM, A)
    diffs = form_image(DIFFERENCE_FORM, A)
    triple = form_image(LinearForm((1, 1, 1)), A)
    mixed = form_image(LinearForm((1, 1, -1)), A)
    ok = (
        sums.size == 26
        and diffs.size == 25
        and sums.image == FiniteSet(x for x in range(29) if x not in (1, 20, 27))
        and diffs.image == FiniteSet(x for x in range(-14, 15) if abs(x) not in (6, 13))
        and triple.size == 41
        and mixed.size == 41
        and triple.image == FiniteSet(x for x in range(43) if x not in (1, 41))
    )
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 1.0, f"(images exact, {dt:.3f}s)")


def test_criterion_2_bounded_small_mstd_verification():
    t0 = time.perf_counter()
    found = enumerate_mstd(SearchConfig(max_diameter=14), jobs=1)
    dt14 = time.perf_counter() - t0
    sizes = [len(c.elements) for c in found]
    eights = [c.elements for c in found if len(c.elements) == 8]
    ok14 = (
        dt14 < 1.0
        and all(s >= 8 for s in sizes)
        and eights == [(0, 2, 3, 4, 7, 11, 12, 14)]
    )

    # the child imports the same addcomb as this process, installed or not
    src = os.path.dirname(os.path.dirname(addcomb.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    cli = subprocess.run(
        [sys.executable, "-m", "addcomb.cli", "search", "mstd", "--max-diameter", "14"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    ok_cli = cli.returncode == 0 and "0,2,3,4,7,11,12,14\t26\t25" in cli.stdout

    t1 = time.perf_counter()
    extended = enumerate_mstd(SearchConfig(max_diameter=24), jobs=JOBS)
    dt24 = time.perf_counter() - t1
    ok24 = dt24 < 300.0 and all(len(c.elements) >= 8 for c in extended)

    _report(
        2,
        ok14 and ok_cli and ok24,
        f"(diameter 14 in {dt14:.3f}s, diameter 24 in {dt24:.1f}s, "
        f"{len(extended)} classes found, none below size 8)",
    )


def test_criterion_3_realization_round_trip_suite():
    records, elapsed = suite_results()
    failures = []
    for A, form, method, r in records:
        if not r.certificate.is_isomorphism:
            failures.append((method, form, "certificate"))
        if len(r.B) != len(A) or r.B.min() < 1:
            failures.append((method, form, "shape"))
        for flip, flipped in all_sign_flips(form):
            if form_image(flipped, A).size != form_image(flipped, r.B).size:
                failures.append((method, form, f"flip {sorted(flip)}"))
    ok = not failures and elapsed < 120.0 and len(records) == 25 * 4 * 3
    _report(3, ok, f"({len(records)} realizations, {elapsed:.1f}s, failures: {failures[:3]})")


def test_criterion_4_mstd_transport_through_realization():
    half = Fraction(1, 2)
    A = FiniteSet(BASIS_SQRT2.element((half * a, 1)) for a in CANONICAL_MSTD8)
    r = realize_group(A, SUM_FORM)
    v = is_mstd(r.B)
    ok = (
        r.certificate.is_isomorphism
        and r.B.is_integer()
        and (v.sum_count, v.diff_count, v.is_mstd) == (26, 25, True)
    )
    _report(4, ok, f"(B={r.B}, counts=({v.sum_count},{v.diff_count}))")


def test_criterion_5_affine_classification():
    rng = random.Random(55)
    checked = 0
    ok = True
    for _ in range(50):
        lam = Fraction(rng.choice([x for x in range(-6, 7) if x]), rng.randint(1, 4))
        mu = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        A = affine_image(CANONICAL_MSTD8, lam, mu)
        result = classify_mstd8(A)
        expected = (1, 0) if lam > 0 else (-1, 14)
        if (result.lam, result.mu) != expected or not result.matches:
            ok = False
            break
        checked += 1
    _report(5, ok and checked == 50, f"({checked} affine images classified)")


def test_criterion_6_symmetric_form_lemma():
    rng = random.Random(66)
    trials = 0
    ok = True
    while trials < 200:
        n = rng.randint(2, 20)
        k = rng.randint(1, n + 1)
        if k % 2 == 1 and n % 2 == 1:
            continue
        A = random_symmetric_set(rng.randint(0, 10**6), n, k)
        h = rng.randint(1, 3)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(h))
        if not any(coeffs):
            continue
        form = LinearForm(coeffs)
        flip = frozenset(j for j in range(1, h + 1) if rng.random() < 0.5)
        if not check_symmetric_equality(A, form, flip):
            ok = False
            break
        trials += 1
    _report(6, ok and trials == 200, f"({trials} symmetric set/form/flip trials)")


def test_criterion_7_representation_transfer():
    records, _ = suite_results()
    bad = 0
    for A, form, method, r in records:
        F = induced_bijection(form, r.mapping)
        ra = naive_multiplicities(form.coeffs, A.elements)
        rb = naive_multiplicities(form.coeffs, r.mapping.mapped_elements())
        for x, y, mult in F.pairs:
            if not (ra[x] == rb[y] == mult):
                bad += 1
    _report(7, bad == 0, f"({len(records)} induced maps, recounted independently)")


def test_criterion_8_mptq_mirror():
    v = product_quotient_counts(exp_transport(CANONICAL_MSTD8, 2))
    ok = (v.product_count, v.quotient_count, v.is_mptq) == (26, 25, True)

    rng = random.Random(88)
    trials = 0
    while trials < 200 and ok:
        k = rng.randint(1, 8)
        A = FiniteSet(rng.sample(range(-15, 16), k))
        c = rng.choice((2, 3, 10))
        va = is_mstd(A)
        vm = product_quotient_counts(exp_transport(A, c))
        ok = (
            va.sum_count == vm.product_count
            and va.diff_count == vm.quotient_count
            and va.is_mstd == vm.is_mptq
        )
        trials += 1
    _report(8, ok and trials == 200, f"(mirror counts exact, {trials} transport trials)")


def test_criterion_9_oracle_equivalence():
    ok = True
    for mask in range(1, 1 << 11):
        A = FiniteSet(mask_elements(mask))
        s, d = sum_diff_counts(mask)
        if s != form_image(SUM_FORM, A).size or d != form_image(DIFFERENCE_FORM, A).size:
            ok = False
            break

    scans_match = True
    for n in range(1, 9):
        got = {
            c.elements: (a, b) for c, a, b in triple_form_scan(SearchConfig(max_diameter=n))
        }
        want = {}
        for mask in range(1, 1 << (n + 1), 2):
            els = mask_elements(mask)
            triple = {x + y + z for x in els for y in els for z in els}
            mixed = {x + y - z for x in els for y in els for z in els}
            if len(triple) > len(mixed):
                want[normalize_affine(FiniteSet(els)).elements] = (
                    len(triple),
                    len(mixed),
                )
        if got != want:
            scans_match = False
            break
    _report(9, ok and scans_match, "(2047 masks vs recount; triple scans vs naive loops, n<=8)")
