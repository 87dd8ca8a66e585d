"""How common are sets with more sums than differences?

Every subset of {0..N-1} is a translate of exactly one set with minimum 0,
and a set with minimum 0 and maximum d fits N - d times. So one exhaustive
scan up to diameter 30, tallying its MSTD sets by their largest element,
counts the MSTD subsets of {0..N-1} exactly for every N <= 31. Martin and
O'Bryant ("Many sets have more sums than differences", 2007) showed that a
positive proportion of all subsets is MSTD, with a Monte Carlo estimate of
about 4.5e-4; the exact proportions below climb toward it, to 4.4e-4 at
N = 31.
"""

import time

from addcomb import mstd_subset_counts

t0 = time.perf_counter()
counts = mstd_subset_counts(30)
dt = time.perf_counter() - t0
print(f"one scan of the 2^30 subsets with minimum 0 took {dt:.1f} s\n")
print(" N   MSTD subsets of {0..N-1}   proportion")
for N, c in enumerate(counts):
    if c:
        print(f"{N:2d}   {c:24d}   {c / 2**N:.3e}")
