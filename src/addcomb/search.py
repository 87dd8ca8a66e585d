"""Exhaustive bounded-diameter enumeration over subsets of {0..n}.

A set lives in one int: bit a set means a is an element. Sumsets and
difference sets come from shift-or convolution, cardinalities from popcount.

Both scans split the 2^n subsets containing 0 into 2^p tasks of equal size,
counted in uint64 words, sets times rows: p is the least that keeps a task
within TASK_WORDS. One level-wise build from {0} serves every level: the
scan builds the subsets of {0..m} containing 0 once, in one slab, with
m = max(p, n - p - 2), and each task is a contiguous block of the slab that
the array kernel `_chunk` extends over {m+1..n}. `_build` doubles uint64
arrays once per element, `_add_element` writing each new row pair by one
shift into place and one OR of the old pair; `_chunk` tests every set with
a vectorised popcount, keeping 3A and 2A-A (up to 3n+1 bits) in two words
each. `_task_hits` hands the tasks to a process pool when the scan is
large enough to repay one; `_classes` dedups the hits in array operations,
and `mask_text` writes a class's elements from one lookup per mask byte.

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
    so never more than there are tasks or CPUs to run them.

    Below POOL_WORDS a scan starts no pool. scripts/pool_break_even.py on 2
    vCPUs, medians of 5 runs, one job vs a pool of two, 5 invocations: at
    2^24 words MSTD at diameter 22 0.040-0.043 vs 0.043-0.070 s (pool faster
    in 0 of 5), triple at 21 0.051-0.057 vs 0.047-0.063 s (4 of 5); at 2^25
    MSTD at 23 0.072-0.086 vs 0.064-0.104 s (4 of 5), triple at 22
    0.103-0.114 vs 0.078-0.104 s (5 of 5); at 2^26 MSTD at 24 0.154-0.174
    vs 0.115-0.183 s (4 of 5). From 2^25 words a pool is ahead in both."""
    return min(jobs, tasks, cpus)


#: the most nodes a scan may visit; a scan at diameter n visits 2^n
NODE_BUDGET = 1 << 30

#: uint64 words one scan task covers: its 2^(n-p) sets times the rows its
#: scan keeps per set, 4 for "mstd" and 8 for "triple" and "equal". A
#: process holds the slab, 2^m sets, and one task's arrays, 2^(n-p-1) sets:
#: at most three quarters of these words, 1.5 MB, but for the triple scans
#: at diameters 29 and 30, where m = p, which hold 2 and 3 MB
TASK_WORDS = 1 << 18

#: the fewest words, 2^n sets times the scan's rows, for which a scan
#: starts a pool
POOL_WORDS = 1 << 25


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
        return mask_text(self.bits)


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


#: _BYTE_TEXTS[i][v] is the text of the elements 8i + j of a mask whose
#: byte i is v; byte positions are added on first use
_BYTE_TEXTS: list = []


def mask_text(mask: int) -> str:
    """The elements of `mask` as "0,2,3,...", the text of
    ",".join(map(str, mask_elements(mask))), from one lookup per byte."""
    global _BYTE_TEXTS
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    texts = _BYTE_TEXTS
    if len(texts) < len(data):
        # a new list, not appends, so a reader never sees a half-built one
        texts = _BYTE_TEXTS = texts + [
            [",".join(str(8 * i + j) for j in range(8) if v >> j & 1) for v in range(256)]
            for i in range(len(texts), len(data))
        ]
    return ",".join([t[v] for t, v in zip(texts, data) if v])


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


def _add_element(arrays: np.ndarray, old: slice, new: slice, b: int, n: int) -> None:
    """Write the sets of columns `old`, with element b added, into columns
    `new`, which may be `old` itself (equal slices).

    Rows: mask, mirrored mask (bit n-a for element a), A+A and (A-A) << n,
    then for the triple scans 3A and (2A-A) << n in a low word (rows 4, 5)
    and a high word (rows 6, 7). With A' = A | {b}:
    - A'+A' = A+A | b+A', the mask shifted by b;
    - (A'-A') << n gains (b-A') << n, the mirrored mask shifted by b, and
      (A'-b) << n, the mask shifted by n-b;
    - 3A' = 3A | 2A'+b and 2A'-A' = 2A-A | (A'-A')+b | 2A'-b, whose term
      2A'-b tops out at bit n+b <= 60, in the low word.

    b is above every element, so each update reads rows of `new` already
    holding A'. Into other columns, a shifted row pair is written straight
    into its place (`out=`) and the old pair OR'd in; in place, where that
    would overwrite the old rows, each shifted row is a temporary.
    """
    src, dst = arrays[:, old], arrays[:, new]
    in_place = old == new

    def gain(to: int, frm: int, shift, k: int) -> None:
        """Rows to, to+1 gain rows frm, frm+1 of A', shifted by k."""
        if in_place:  # one row at a time, for a temporary of one row
            dst[to] |= shift(dst[frm], k)
            dst[to + 1] |= shift(dst[frm + 1], k)
        else:
            shift(dst[frm : frm + 2], k, out=dst[to : to + 2])
            dst[to : to + 2] |= src[to : to + 2]

    np.bitwise_or(src[0], 1 << b, out=dst[0])
    np.bitwise_or(src[1], 1 << (n - b), out=dst[1])
    gain(2, 0, np.left_shift, b)
    if len(arrays) > 4:
        dst[3] |= dst[0] << (n - b)
        gain(4, 2, np.left_shift, b)
        gain(6, 2, np.right_shift, 64 - b)
        dst[5] |= dst[2] << (n - b)


def _hits(arrays: np.ndarray, cfg: SearchConfig, scan: str) -> tuple:
    """The masks, c1 and c2 of the sets in `arrays` that the scan hits:
    "mstd" hits |A+A| > |A-A|, "triple" and "equal" |3A| > or = |2A-A|."""
    mask = arrays[0]
    if scan == "mstd":
        count = np.bitwise_count(arrays[2:4])
        c1, c2 = count[0], 2 * count[1] - 1  # A-A mirrors its nonnegative half
        ok = c1 > c2
    else:
        count = np.bitwise_count(arrays[4:])
        c1, c2 = count[:2] + count[2:]  # uint8: no count passes 91
        ok = c1 == c2 if scan == "equal" else c1 > c2
    if cfg.size_filter is not None:
        ok &= np.bitwise_count(mask) == cfg.size_filter
    hit = np.flatnonzero(ok)
    return mask[hit], c1[hit], c2[hit]


def _build(first: np.ndarray, elements: range, n: int) -> np.ndarray:
    """The sets of the columns `first` followed by each of them with every
    nonempty subset of `elements` added, all above the elements of `first`:
    the filled columns double once per element, the copies taking it."""
    k = first.shape[1]
    arrays = np.empty((len(first), k << len(elements)), np.uint64)
    arrays[:, :k] = first
    for b in elements:
        _add_element(arrays, slice(0, k), slice(k, 2 * k), b, n)
        k *= 2
    return arrays


def _chunk(args) -> tuple:
    """Worker: the hits of one task as three arrays, the masks (uint64) and
    their counts c1 and c2 (uint8).

    The task's sets are those of its block `first` of the slab, subsets of
    {0..m}, with any subset of {m+1..n} added. Its arrays hold uint64 rows,
    one per quantity of `_add_element`, built over m+1..n-1 by `_build`. The
    rows hold at most 2n+1 <= 61 bits, as NODE_BUDGET keeps n <= 30; 3A and
    2A-A, up to 3n+1 <= 91 bits, take two words. "mstd" keeps only the
    nonnegative half of A-A. The last element, n, is added in place once
    the sets without it are tested, so the arrays hold half of the task's
    sets. Filters apply in the hit test.
    """
    cfg, scan, m, first = args
    n = cfg.max_diameter
    arrays = _build(first, range(m + 1, n), n)
    hits = [] if cfg.require_endpoints else [_hits(arrays, cfg, scan)]
    _add_element(arrays, slice(None), slice(None), n, n)
    hits.append(_hits(arrays, cfg, scan))
    return tuple(np.concatenate(h) for h in zip(*hits))


def _task_hits(cfg: SearchConfig, scan: str, jobs: int | None):
    """The hits of `_chunk`, one triple of arrays per task.

    p = max(0, n - log2(TASK_WORDS / rows)) is the least that keeps a task
    of 2^(n-p) sets within TASK_WORDS words. The slab holds the 2^m subsets
    of {0..m} containing 0, built from the root {0}, with m = max(p, n - p -
    2): at least p, so that each task gets a block, and otherwise half as
    wide as a task's arrays. The tasks are its 2^p contiguous blocks, each
    extended over {m+1..n}, so they are of equal size and together hold
    every set once."""
    n, jobs = cfg.max_diameter, default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    rows = 4 if scan == "mstd" else 8  # of `_chunk`, per set
    p = max(0, n - (TASK_WORDS // rows).bit_length() + 1)
    m = max(p, n - p - 2)
    root = np.array([(1, 1 << n, 1, 1 << n, 1, 1 << n, 0, 0)[:rows]], np.uint64).T  # {0}
    slab = _build(root, range(1, m + 1), n)
    tasks = [(cfg, scan, m, block) for block in np.split(slab, 1 << p, axis=1)]
    workers = worker_count(jobs, len(tasks), usable_cpus()) if rows << n >= POOL_WORDS else 1
    if workers == 1:
        return map(_chunk, tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_chunk, tasks, chunksize=-(-len(tasks) // workers)))


def _top_bits(masks: np.ndarray) -> np.ndarray:
    """The highest set bit of each nonzero mask below 2^53, where float64
    is exact."""
    return np.frexp(masks.astype(np.float64))[1] - 1


#: each byte value with its 8 bits in reverse order
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


def _reversed64(masks: np.ndarray) -> np.ndarray:
    """Each uint64 with its 64 bits in reverse order: bit i moves to 63 - i."""
    return _REVERSED_BYTES[masks.byteswap().view(np.uint8)].view(np.uint64)


def _canonical_masks(masks: np.ndarray) -> np.ndarray:
    """`_canonical_tuple` of each uint64 mask, all holding 0: divide by the
    gcd of the bit positions, mirror by a bit reversal shifted down by the
    top bit, and keep whichever of the set and its mirror holds the lowest
    bit where they differ, the lexicographically smaller one."""
    top = _top_bits(masks)
    n = int(top.max(initial=0))
    masks = masks.copy()
    for g in range(n, 1, -1):
        # from the top, so the first g to divide every element is the gcd;
        # a divided set then has gcd 1 and only {0} is selected again
        off = (1 << 64) - 1 - sum(1 << i for i in range(0, 64, g))
        sel = np.flatnonzero((masks & np.uint64(off)) == 0)
        if len(sel):
            m = masks[sel]
            masks[sel] = sum(((m >> (g * i)) & 1) << i for i in range(n // g + 1))
            top[sel] //= g
    mirror = _reversed64(masks) >> (63 - top).astype(np.uint64)
    differ = masks ^ mirror
    return np.where(masks & differ & ~(differ - 1), masks, mirror)


def _spread(x: np.ndarray) -> np.ndarray:
    """Bit i of each 32-bit x moved to bit 2i."""
    for shift, keep in (
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    ):
        x = (x | (x << shift)) & np.uint64(keep)
    return x


def _lex_keys(masks: np.ndarray) -> np.ndarray:
    """Keys whose order is the lexicographic order of the sets' sorted
    elements, for masks below 2^32: two bits per position, position 0 the
    most significant, reading 1 at an element, 2 at a gap below the top
    element and 0 above it, where a set that ends sorts first."""
    gaps = ((np.uint64(2) << _top_bits(masks).astype(np.uint64)) - 1) ^ masks
    return _spread(_reversed64(masks) >> 32) | _spread(_reversed64(gaps) >> 32) << 1


def _classes(task_hits) -> list:
    """The canonical classes of the tasks' hits, sorted lexicographically,
    as (class, c1, c2) with the counts of each class's first hit: a set and
    its mirror image share one class."""
    masks, c1, c2 = (np.concatenate(a) for a in zip(*task_hits))
    canon = _canonical_masks(masks)
    _, first = np.unique(_lex_keys(canon), return_index=True)
    found = zip(canon[first].tolist(), c1[first].tolist(), c2[first].tolist())
    return [(CanonicalSet(m), a, b) for m, a, b in found]


def enumerate_mstd(cfg: SearchConfig, jobs: int | None = None) -> list[CanonicalSet]:
    """All canonical sets of diameter <= n with |A+A| > |A-A|, deduplicated
    per affine class and sorted lexicographically."""
    return [cs for cs, _, _ in _classes(_task_hits(cfg, "mstd", jobs))]


def triple_form_scan(
    cfg: SearchConfig, report_equal: bool = False, jobs: int | None = None
) -> list[tuple[CanonicalSet, int, int]]:
    """Scan for |A+A+A| > |A+A-A| within diameter n.

    Emits (canonical set, triple-sum count, mixed count). A symmetric set can
    never be emitted; that is asserted on every class. With report_equal the
    equality cases are returned instead, the root set {0} (1 = 1) among them.
    """
    out = _classes(_task_hits(cfg, "equal" if report_equal else "triple", jobs))
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
    masks = np.concatenate([m for m, _, _ in hits])
    tally = np.bincount(_top_bits(masks), minlength=max_diameter + 1).tolist()
    return [sum((N - d) * h for d, h in enumerate(tally[:N])) for N in range(max_diameter + 2)]


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
