"""Exhaustive bounded-diameter enumeration over subsets of {0..n}.

A set lives in one Python int: bit a set means a is an element. Sumsets and
difference sets come from shift-or convolution, cardinalities from popcount.
Both scans walk the subsets containing 0 depth-first under one driver,
`_scan`: `_mstd_chunk` keeps A+A and the nonnegative half of A-A, and
`_triple_chunk` also keeps 3A, A-A and 2A-A, so each of the 2^n nodes costs
a handful of word operations.

The reflection trick: rmask keeps the elements mirrored at fixed width n,
so when element a joins, the new differences {a - a' : a' in A} are one
shift of rmask. No per-element inner loop.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BudgetExceededError
from .images import symmetry_center
from .model import FiniteSet

JOBS_ENV_VAR = "ADDCOMB_JOBS"


def default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV_VAR, "1")))
    except ValueError:
        return 1


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Processes worth starting: a pool starts all of its workers at once,
    so never more than there are tasks or CPUs to run them."""
    return min(jobs, tasks, cpus)


#: the most nodes a scan may visit; a scan at diameter n visits 2^n
NODE_BUDGET = 1 << 30


@dataclass(frozen=True)
class SearchConfig:
    max_diameter: int
    size_filter: int | None = None
    require_endpoints: bool = False

    def __post_init__(self):
        n = self.max_diameter
        if n < 1:
            raise BudgetExceededError("max_diameter must be at least 1")
        if n >= NODE_BUDGET.bit_length():  # 2^n > NODE_BUDGET, without building 2^n
            raise BudgetExceededError(
                f"max_diameter {n} means 2^{n} nodes, above the node budget of {NODE_BUDGET}"
            )
        if self.size_filter is not None and self.size_filter < 1:
            raise ValueError("size_filter must be positive")


@dataclass(frozen=True)
class CanonicalSet:
    """One representative per integer affine class: min 0, gcd 1, and not
    lexicographically above its own reflection."""

    bits: int

    @property
    def elements(self) -> tuple:
        return mask_elements(self.bits)

    def to_finite_set(self) -> FiniteSet:
        return FiniteSet(self.elements)

    def __str__(self):
        return ",".join(str(e) for e in self.elements)


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        if e < 0:
            raise ValueError("masks hold nonnegative integers only")
        m |= 1 << e
    return m


def mask_elements(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def sum_diff_counts(mask: int) -> tuple[int, int]:
    """|A+A| and |A-A| for the set encoded by mask. The difference bitset
    holds {a - a' : a >= a'}; the full difference set mirrors it."""
    sums = diffs = 0
    m = mask
    while m:
        low = m & -m
        a = low.bit_length() - 1
        sums |= mask << a
        diffs |= mask >> a
        m ^= low
    return sums.bit_count(), 2 * diffs.bit_count() - 1


def _canonical_tuple(els: tuple) -> tuple:
    base = els[0]
    t = tuple(e - base for e in els)
    if len(t) > 1:
        g = math.gcd(*t[1:])
        if g > 1:
            t = tuple(e // g for e in t)
    r = tuple(t[-1] - e for e in reversed(t))
    return min(t, r)


def normalize_affine(A: FiniteSet) -> CanonicalSet:
    """Translate the minimum to 0, divide by the gcd, and take the
    lexicographically smaller of the set and its reflection."""
    if not A.is_integer():
        raise ValueError("affine normalization applies to integer sets")
    return CanonicalSet(mask_of(_canonical_tuple(A.elements)))


def _mstd_chunk(args) -> list:
    """Worker: every MSTD set whose smallest element above 0 is `first`,
    as (mask, |A+A|, |A-A|).

    A depth-first walk from {0}: a frame (lo, hi, mask, rmask, sumb, dpos)
    adds each element a in lo..hi-1 to its set in turn. The root frame adds
    only `first`; every later frame adds anything above the last element,
    so none is pushed once a = n leaves nothing to add.
    """
    n, first = args
    top = n + 1
    hits = []
    emit = hits.append
    stack = [(first, first + 1, 1, 1 << n, 1, 1)]
    pop = stack.pop
    push = stack.append
    while stack:
        lo, hi, mask, rmask, sumb, dpos = pop()
        for a in range(lo, hi):
            m2 = mask | (1 << a)
            s2 = sumb | (mask << a) | (1 << (a + a))
            d2 = dpos | (rmask >> (n - a))
            if s2.bit_count() > 2 * d2.bit_count() - 1:
                emit((m2, s2.bit_count(), 2 * d2.bit_count() - 1))
            if a < n:
                push((a + 1, top, m2, rmask | (1 << (n - a)), s2, d2))
    return hits


def _triple_chunk(args) -> list:
    """Worker: the same walk as _mstd_chunk, emitting (mask, |3A|, |2A-A|)
    for every set with |3A| > |2A-A|, or with equality under report_equal.

    A frame also carries 3A, and A-A and 2A-A shifted up by n so that no
    bit goes negative. With a above every element of A:
    A'-A' = A-A | (a-A) | (A-a) and 2A'-A' = 2A-A | (A'-A')+a | 2A'-a.
    """
    n, first, report_equal = args
    top = n + 1
    hits = []
    emit = hits.append
    stack = [(first, first + 1, 1, 1 << n, 1, 1, 1 << n, 1 << n)]
    pop = stack.pop
    push = stack.append
    while stack:
        lo, hi, mask, rmask, sumb, sum3, dsh, tsh = pop()
        for a in range(lo, hi):
            m2 = mask | (1 << a)
            s2 = sumb | (mask << a) | (1 << (a + a))
            s3 = sum3 | (s2 << a)
            d2 = dsh | (rmask << a) | ((mask << n) >> a)
            t2 = tsh | (d2 << a) | ((s2 << n) >> a)
            c1 = s3.bit_count()
            c2 = t2.bit_count()
            if (c1 == c2) if report_equal else (c1 > c2):
                emit((m2, c1, c2))
            if a < n:
                push((a + 1, top, m2, rmask | (1 << (n - a)), s2, s3, d2, t2))
    return hits


def _scan(cfg: SearchConfig, chunk, jobs: int | None, extra=(), roots=()) -> list:
    """Run `chunk` over one task per first element above 0 and return the
    sorted canonical classes of its hits, and of the root hits `roots` (the
    set {0} is in no task), as (class, c1, c2). The filters apply to the raw
    hits only, and a set and its mirror image share one canonical class."""
    n = cfg.max_diameter
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    tasks = [(n, first, *extra) for first in range(1, n + 1)]
    workers = worker_count(jobs, len(tasks), usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk, tasks))
    else:
        chunks = map(chunk, tasks)
    size, endpoint = cfg.size_filter, 1 << n if cfg.require_endpoints else 0
    found: dict = {}
    for hits in itertools.chain([roots], chunks):
        for mask, c1, c2 in hits:
            if (size is None or mask.bit_count() == size) and mask & endpoint == endpoint:
                found.setdefault(mask_of(_canonical_tuple(mask_elements(mask))), (c1, c2))
    return [(CanonicalSet(m), *found[m]) for m in sorted(found, key=mask_elements)]


def enumerate_mstd(cfg: SearchConfig, jobs: int | None = None) -> list[CanonicalSet]:
    """All canonical sets of diameter <= n with |A+A| > |A-A|, deduplicated
    per affine class and sorted lexicographically. The root set {0} alone
    is never MSTD."""
    return [cs for cs, _, _ in _scan(cfg, _mstd_chunk, jobs)]


def triple_form_scan(
    cfg: SearchConfig, report_equal: bool = False, jobs: int | None = None
) -> list[tuple[CanonicalSet, int, int]]:
    """Scan for |A+A+A| > |A+A-A| within diameter n.

    Emits (canonical set, triple-sum count, mixed count). A symmetric set can
    never be emitted; that is asserted on every class. With report_equal the
    equality cases are returned instead, the root set {0} (1 = 1) among them.
    """
    if report_equal:
        return _scan(cfg, _triple_chunk, jobs, (True,), roots=[(1, 1, 1)])
    out = _scan(cfg, _triple_chunk, jobs, (False,))
    for cs, c1, c2 in out:
        if symmetry_center(cs.to_finite_set()).present:
            raise AssertionError(
                f"symmetric set {cs.elements} emitted with {c1} > {c2}; "
                "this contradicts the sign-flip lemma"
            )
    return out


def random_symmetric_set(seed: int, n: int, k: int) -> FiniteSet:
    """A deterministic random subset of {0..n} with A = n - A and |A| = k."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > n + 1:
        raise ValueError(f"no {k}-element subset of 0..{n} exists")
    has_center = n % 2 == 0
    npairs = (n + 1) // 2
    if k % 2 == 1 and not has_center:
        raise ValueError(f"k = {k} odd needs the center n/2, but n = {n} is odd")
    need = k // 2
    if need > npairs:
        raise ValueError(f"only {npairs} mirror pairs available below {n}")
    rng = random.Random(seed)
    chosen = rng.sample(range(npairs), need)
    out = []
    for i in chosen:
        out.extend((i, n - i))
    if k % 2 == 1:
        out.append(n // 2)
    return FiniteSet(out)
