"""Exhaustive bounded-diameter enumeration over subsets of {0..n}.

A set lives in one int: bit a set means a is an element. Sumsets and
difference sets come from shift-or convolution, cardinalities from popcount.

Both scans split the 2^n subsets containing 0 into 2^p prefix tasks of equal
size, p = max(0, n - SUFFIX_LEVELS): task P starts from the root {0} | P,
P a subset of {1..p}, and extends it over {p+1..n}. One driver, `_scan`,
builds the tasks, hands them to the pool and dedups the hits.
`_mstd_chunk` expands a task level-wise over uint64 arrays of masks, A+A and
the nonnegative half of A-A, doubling them once per element; `_triple_chunk`
also needs 3A, A-A and 2A-A, too wide for a word, and walks its task
depth-first over Python ints.

The reflection trick: rmask keeps the elements mirrored at fixed width n,
so when element a joins, the new differences {a - a' : a' in A} are one
shift of rmask. No per-element inner loop.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .images import symmetry_center
from .model import FiniteSet

JOBS_ENV_VAR = "ADDCOMB_JOBS"


def default_jobs() -> int:
    """The worker count set by ADDCOMB_JOBS, 1 when it is unset; anything
    but a positive integer is bad input, like --jobs 0."""
    raw = os.environ.get(JOBS_ENV_VAR, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be a positive integer, not {raw!r}")
    return int(raw)


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

#: elements a scan task chooses freely: at diameter n a task covers the
#: 2^(n-p) extensions of one prefix P of {1..p}, p = max(0, n - SUFFIX_LEVELS)
SUFFIX_LEVELS = 14


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
    t = [e - base for e in els]
    if len(t) > 1:
        g = math.gcd(*t[1:])
        if g > 1:
            t = [e // g for e in t]
    r = [t[-1] - e for e in reversed(t)]
    return tuple(min(t, r))


def normalize_affine(A: FiniteSet) -> CanonicalSet:
    """Translate the minimum to 0, divide by the gcd, and take the
    lexicographically smaller of the set and its reflection."""
    if not A.is_integer():
        raise ValueError("affine normalization applies to integer sets")
    return CanonicalSet(mask_of(_canonical_tuple(A.elements)))


def _root(n: int, prefix: int) -> tuple:
    """The task root {0} | P, P given by the mask `prefix`, as (mask, rmask,
    A+A, 3A, A-A << n, 2A-A << n), folded in one element at a time by the
    same updates as the walk."""
    mask, rmask, sumb, sum3, dsh, tsh = 1, 1 << n, 1, 1, 1 << n, 1 << n
    for a in mask_elements(prefix):
        sumb |= (mask << a) | (1 << (a + a))
        sum3 |= sumb << a
        dsh |= (rmask << a) | ((mask << n) >> a)
        tsh |= (dsh << a) | ((sumb << n) >> a)
        mask |= 1 << a
        rmask |= 1 << (n - a)
    return mask, rmask, sumb, sum3, dsh, tsh


def _mstd_chunk(args) -> list:
    """Worker: every MSTD set {0} | P | S with S a subset of {p+1..n}, as
    (mask, |A+A|, |A-A|).

    Level-wise over uint64 arrays: after element b, the upper half of each
    array holds the lower half's sets with b added, so all 2^(n-p) sets of
    the task are built with a few array operations per level. A+A has at
    most 2n+1 <= 61 bits, as NODE_BUDGET keeps n <= 30.
    """
    n, p, prefix = args
    mask, sums, dpos, rmask = (np.empty(1 << (n - p), np.uint64) for _ in range(4))
    m, r, s, _, d, _ = _root(n, prefix)
    mask[0], rmask[0], sums[0], dpos[0] = m, r, s, d >> n
    k = 1
    for b in range(p + 1, n + 1):
        lo, hi = slice(0, k), slice(k, 2 * k)
        np.left_shift(mask[lo], b, out=sums[hi])
        sums[hi] |= sums[lo]
        sums[hi] |= 1 << (b + b)
        np.right_shift(rmask[lo], n - b, out=dpos[hi])
        dpos[hi] |= dpos[lo]
        np.bitwise_or(mask[lo], 1 << b, out=mask[hi])
        np.bitwise_or(rmask[lo], 1 << (n - b), out=rmask[hi])
        k *= 2
    # |A+A| > |A-A| = 2|dpos| - 1, in uint8: both counts are at most 61
    c1 = np.bitwise_count(sums)
    c2 = np.bitwise_count(dpos)
    hit = np.flatnonzero(c1 >= 2 * c2)
    return [
        (m, s, 2 * d - 1)
        for m, s, d in zip(mask[hit].tolist(), c1[hit].tolist(), c2[hit].tolist())
    ]


def _triple_chunk(args) -> list:
    """Worker: the sets of one task as in _mstd_chunk, walked depth-first,
    emitting (mask, |3A|, |2A-A|) for every set with |3A| > |2A-A|, or with
    equality under report_equal. 3A needs up to 3n+1 bits, so no array.

    A frame (lo, hi, mask, rmask, A+A, 3A, A-A << n, 2A-A << n) adds each
    element a in lo..hi-1 to its set in turn; none is pushed once a = n
    leaves nothing to add. With a above every element of A:
    A'-A' = A-A | (a-A) | (A-a) and 2A'-A' = 2A-A | (A'-A')+a | 2A'-a.
    """
    n, p, prefix, report_equal = args
    top = n + 1
    root = _root(n, prefix)
    c1 = root[3].bit_count()
    c2 = root[5].bit_count()
    hits = [(root[0], c1, c2)] if ((c1 == c2) if report_equal else (c1 > c2)) else []
    emit = hits.append
    stack = [(p + 1, top, *root)]
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


def _scan(cfg: SearchConfig, chunk, jobs: int | None, extra=()) -> list:
    """Run `chunk` over the 2^p prefix tasks, p = max(0, n - SUFFIX_LEVELS),
    and return the sorted canonical classes of its hits as (class, c1, c2).
    Task P covers the sets {0} | P | S, S a subset of {p+1..n}, so the tasks
    are of equal size and P = {} holds the set {0}. The filters apply to
    the raw hits only, and a set and its mirror image share one class."""
    n = cfg.max_diameter
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    p = max(0, n - SUFFIX_LEVELS)
    tasks = [(n, p, prefix << 1, *extra) for prefix in range(1 << p)]
    workers = worker_count(jobs, len(tasks), usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk, tasks, chunksize=-(-len(tasks) // workers)))
    else:
        chunks = map(chunk, tasks)
    size, endpoint = cfg.size_filter, 1 << n if cfg.require_endpoints else 0
    found: dict = {}
    for hits in chunks:
        for mask, c1, c2 in hits:
            if (size is None or mask.bit_count() == size) and mask & endpoint == endpoint:
                found.setdefault(mask_of(_canonical_tuple(mask_elements(mask))), (c1, c2))
    return [(CanonicalSet(m), *found[m]) for m in sorted(found, key=mask_elements)]


def enumerate_mstd(cfg: SearchConfig, jobs: int | None = None) -> list[CanonicalSet]:
    """All canonical sets of diameter <= n with |A+A| > |A-A|, deduplicated
    per affine class and sorted lexicographically."""
    return [cs for cs, _, _ in _scan(cfg, _mstd_chunk, jobs)]


def triple_form_scan(
    cfg: SearchConfig, report_equal: bool = False, jobs: int | None = None
) -> list[tuple[CanonicalSet, int, int]]:
    """Scan for |A+A+A| > |A+A-A| within diameter n.

    Emits (canonical set, triple-sum count, mixed count). A symmetric set can
    never be emitted; that is asserted on every class. With report_equal the
    equality cases are returned instead, the root set {0} (1 = 1) among them.
    """
    out = _scan(cfg, _triple_chunk, jobs, (report_equal,))
    if report_equal:
        return out
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
