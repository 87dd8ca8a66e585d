"""Scanning every small set for more-sums-than-differences behavior.

Sets inside {0..n} live in single machine words: bit a set means a is an
element. The scanner builds all subsets containing 0 level by level in
numpy arrays, one element at a time, updating the sumset and difference
bitsets incrementally, then folds each hit onto one canonical
representative per affine class (min 0, gcd 1, not above its own
reflection).
"""

import time

from addcomb import FiniteSet, SearchConfig, enumerate_mstd, normalize_affine, triple_form_scan

t0 = time.perf_counter()
hits = enumerate_mstd(SearchConfig(max_diameter=14))
dt = time.perf_counter() - t0
print(f"diameter <= 14: scanned 2^14 subsets in {dt * 1000:.0f} ms")
for c in hits:
    print("  canonical MSTD class:", c)

# Nothing of size 7 or less shows up, and exactly one size-8 class exists.
print("smallest size found:", min(len(c.elements) for c in hits))

# Canonicalization folds translates, dilations, and mirrors together:
print("\nnormalize {5,7,8,9,12,16,17,19}:", normalize_affine(FiniteSet([5, 7, 8, 9, 12, 16, 17, 19])))
print("normalize {0,4,8}:             ", normalize_affine(FiniteSet([0, 4, 8])))

# A second scanner compares the three-variable forms t1+t2+t3 and
# t1+t2-t3: the first image is almost always the smaller one, and no set
# below diameter 26 beats it. At 26 the first three classes appear, of
# sizes 10 and 11; size 9 first appears at diameter 28. So the least set
# of reals with |3A| > |2A-A| has at most 9 elements, though no
# diameter-bounded scan can show that 9 is least.
for n in (6, 12, 18):
    found = triple_form_scan(SearchConfig(max_diameter=n))
    print(f"diameter <= {n}: {len(found)} sets with |A+A+A| > |A+A-A|")
t0 = time.perf_counter()
found = triple_form_scan(SearchConfig(max_diameter=26))
dt = time.perf_counter() - t0
print(f"diameter <= 26: {len(found)} sets with |A+A+A| > |A+A-A|, scanned 2^26 subsets in {dt:.1f} s")
for c, triple, mixed in found:
    print(f"  {c}  |A+A+A| = {triple} > {mixed} = |A+A-A|")

# Equality cases are common though; arithmetic progressions all land there.
equal = triple_form_scan(SearchConfig(max_diameter=5), report_equal=True)
print("\nequality cases up to diameter 5:")
for c, a, b in equal[:8]:
    print(f"  {c}  both sizes {a}")
