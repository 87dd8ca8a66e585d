"""Exhaustive bounded-diameter enumeration over subsets of {0..n}.

A set lives in one int: bit a set means a is an element. Sumsets and
difference sets come from shift-or convolution, cardinalities from popcount.

Both scans split the 2^n subsets containing 0 into 2^p prefix tasks of equal
size, p = max(0, n - SUFFIX_LEVELS): task P starts from the root {0} | P,
P a subset of {1..p}, and extends it over {p+1..n}. One array kernel,
`_chunk`, serves both: it doubles uint64 arrays once per element and tests
every set with a vectorised popcount, keeping 3A and 2A-A (up to 3n+1
bits) in two words each. `_task_hits` hands the tasks to a process pool
when the scan is large enough to repay one; `_scan` dedups the hits.

The reflection trick: rmask keeps the elements mirrored at fixed width n,
so when element a joins, the new differences {a - a' : a' in A} are one
shift of rmask. No per-element inner loop.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
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
    so never more than there are tasks or CPUs to run them.

    Below POOL_NODES a scan starts no pool. scripts/pool_break_even.py on 2
    vCPUs, medians of 5 runs, one job vs a pool of two: MSTD at diameter 23
    0.15-0.18 vs 0.14-0.19 s (pool faster in 2 of 4 invocations), at 24
    0.24-0.42 vs 0.19-0.27 s (3 of 3); triple at 21 0.07-0.11 vs 0.05-0.13 s
    (3 of 4), at 22 (4 of 4). From 2^23 nodes a pool loses neither scan."""
    return min(jobs, tasks, cpus)


#: the most nodes a scan may visit; a scan at diameter n visits 2^n
NODE_BUDGET = 1 << 30

#: the fewest nodes, 2^n at diameter n, for which a scan starts a pool
POOL_NODES = 1 << 23

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
    same updates as the kernel's levels."""
    mask, rmask, sumb, sum3, dsh, tsh = 1, 1 << n, 1, 1, 1 << n, 1 << n
    for a in mask_elements(prefix):
        sumb |= (mask << a) | (1 << (a + a))
        sum3 |= sumb << a
        dsh |= (rmask << a) | ((mask << n) >> a)
        tsh |= (dsh << a) | ((sumb << n) >> a)
        mask |= 1 << a
        rmask |= 1 << (n - a)
    return mask, rmask, sumb, sum3, dsh, tsh


def _chunk(args) -> list:
    """Worker: the hits of one prefix task as (mask, c1, c2), Python ints.

    Level-wise over uint64 rows: after element b, the upper half of each row
    holds the lower half's sets with b added. Rows: mask, mirrored mask, A+A
    and the nonnegative half of (A-A) << n, at most 2n+1 <= 61 bits as
    NODE_BUDGET keeps n <= 30. Scan "mstd" hits |A+A| > |A-A|; "triple" and
    "equal" hit |3A| > or = |2A-A|, adding the negative half of A-A, and 3A
    and (2A-A) << n in a low and a high word, exact to 3n+1 <= 91 bits. With
    b above every element of A, A'-A' = A-A | (b-A) | (A-b), 3A' = 3A | 2A'+b
    and 2A'-A' = 2A-A | (A'-A')+b | 2A'-b, whose term 2A'-b tops out at bit
    n+b <= 60, in the low word. Filters apply in the hit test.
    """
    cfg, scan, p, prefix = args
    n, triple = cfg.max_diameter, scan != "mstd"
    m, r, s, s3, d, t = _root(n, prefix)
    # "mstd" keeps the nonnegative half of A-A: bits n and up
    root = [m, r, s, d >> n << n]
    if triple:  # rows 4, 5: low words of 3A, (2A-A) << n; rows 6, 7: high words
        root[3:] = [d, *(x & ((1 << 64) - 1) for x in (s3, t)), s3 >> 64, t >> 64]
    arrays = np.empty((len(root), 1 << (n - p)), np.uint64)
    arrays[:, 0] = root
    mask, rmask, sums, diffs = arrays[:4]
    for b in range(p + 1, n + 1):
        k = 1 << (b - p - 1)
        old, new = slice(0, k), slice(k, 2 * k)
        # A+A gains b+A and (A-A) << n gains (b-A) << n: mask, rmask shifted by b
        np.left_shift(arrays[:2, old], b, out=arrays[2:4, new])
        arrays[2:4, new] |= arrays[2:4, old]
        sums[new] |= 1 << (b + b)
        if triple:
            diffs[new] |= mask[old] << (n - b)
            # 3A gains 2A'+b, and (2A-A) << n gains ((A'-A') << n)+b and 2A'-b
            np.bitwise_or(arrays[4:6, old], arrays[2:4, new] << b, out=arrays[4:6, new])
            np.bitwise_or(arrays[6:, old], arrays[2:4, new] >> (64 - b), out=arrays[6:, new])
            arrays[5, new] |= sums[new] << (n - b)
        np.bitwise_or(mask[old], 1 << b, out=mask[new])
        np.bitwise_or(rmask[old], 1 << (n - b), out=rmask[new])
    # the last level adds n, so the sets holding it fill the upper half
    first = k if cfg.require_endpoints else 0
    count = np.bitwise_count(arrays[4:, first:] if triple else arrays[2:4, first:])
    if triple:
        c1, c2 = count[:2] + count[2:]  # uint8: no count passes 91
        ok = c1 == c2 if scan == "equal" else c1 > c2
    else:
        c1, c2 = count[0], 2 * count[1] - 1  # A-A mirrors its nonnegative half
        ok = c1 > c2
    if cfg.size_filter is not None:
        ok &= np.bitwise_count(mask[first:]) == cfg.size_filter
    hit = np.flatnonzero(ok)
    return list(zip(mask[first:][hit].tolist(), c1[hit].tolist(), c2[hit].tolist()))


def _task_hits(cfg: SearchConfig, scan: str, jobs: int | None):
    """The hits of `_chunk`, one list per prefix task: task P covers the sets
    {0} | P | S, P a subset of {1..p}, p = max(0, n - SUFFIX_LEVELS), and S
    of {p+1..n}, so the tasks are of equal size."""
    n, jobs = cfg.max_diameter, default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    p = max(0, n - SUFFIX_LEVELS)
    tasks = [(cfg, scan, p, prefix << 1) for prefix in range(1 << p)]
    workers = worker_count(jobs, len(tasks), usable_cpus()) if 1 << n >= POOL_NODES else 1
    if workers == 1:
        return map(_chunk, tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chunk, tasks, chunksize=-(-len(tasks) // workers)))


def _scan(cfg: SearchConfig, scan: str, jobs: int | None) -> list:
    """The sorted canonical classes of the scan's hits as (class, c1, c2):
    a set and its mirror image share one class."""
    found: dict = {}
    for hits in _task_hits(cfg, scan, jobs):
        for mask, c1, c2 in hits:
            found.setdefault(mask_of(_canonical_tuple(mask_elements(mask))), (c1, c2))
    return [(CanonicalSet(m), *found[m]) for m in sorted(found, key=mask_elements)]


def enumerate_mstd(cfg: SearchConfig, jobs: int | None = None) -> list[CanonicalSet]:
    """All canonical sets of diameter <= n with |A+A| > |A-A|, deduplicated
    per affine class and sorted lexicographically."""
    return [cs for cs, _, _ in _scan(cfg, "mstd", jobs)]


def triple_form_scan(
    cfg: SearchConfig, report_equal: bool = False, jobs: int | None = None
) -> list[tuple[CanonicalSet, int, int]]:
    """Scan for |A+A+A| > |A+A-A| within diameter n.

    Emits (canonical set, triple-sum count, mixed count). A symmetric set can
    never be emitted; that is asserted on every class. With report_equal the
    equality cases are returned instead, the root set {0} (1 = 1) among them.
    """
    out = _scan(cfg, "equal" if report_equal else "triple", jobs)
    if report_equal:
        return out
    for cs, c1, c2 in out:
        if symmetry_center(cs.to_finite_set()).present:
            raise AssertionError(
                f"symmetric set {cs.elements} emitted with {c1} > {c2}; "
                "this contradicts the sign-flip lemma"
            )
    return out


def mstd_subset_counts(max_diameter: int) -> list[int]:
    """Entry N counts the MSTD subsets of {0..N-1}, N <= max_diameter + 1.

    Each is a translate of one raw hit of the MSTD scan, with min 0 and max
    d < N, that {0..N-1} holds N - d times: entry N is the sum of (N - d) h_d,
    h_d the number of raw hits with top bit d."""
    hits = _task_hits(SearchConfig(max_diameter), "mstd", None)
    tally = Counter(mask.bit_length() - 1 for task in hits for mask, _, _ in task)
    return [sum((N - d) * h for d, h in tally.items() if d < N) for N in range(max_diameter + 2)]


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
