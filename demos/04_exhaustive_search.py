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
# below diameter 12 beats it.
for n in (6, 8, 10, 12):
    found = triple_form_scan(SearchConfig(max_diameter=n))
    print(f"diameter <= {n}: {len(found)} sets with |A+A+A| > |A+A-A|")

# Equality cases are common though; arithmetic progressions all land there.
equal = triple_form_scan(SearchConfig(max_diameter=5), report_equal=True)
print("\nequality cases up to diameter 5:")
for c, a, b in equal[:8]:
    print(f"  {c}  both sizes {a}")
