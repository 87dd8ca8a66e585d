"""Time both scans with one job and with a pool of two, to place POOL_WORDS.

    PYTHONPATH=src python3 scripts/pool_break_even.py mstd 21 22 23 24
    PYTHONPATH=src python3 scripts/pool_break_even.py triple 20 21 22 23

For each diameter it runs the scan five times per job count, alternating
which goes first, with POOL_WORDS lowered so that --jobs 2 always starts a
pool, and prints the median, min and max seconds of each. The pool pays
for itself where its median falls below the single job's.
"""

import argparse
import statistics
import sys
import time

from addcomb import search
from addcomb.search import SearchConfig, enumerate_mstd, triple_form_scan

REPEATS = 5


def main(argv) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scan", choices=("mstd", "triple"))
    ap.add_argument("diameters", type=int, nargs="+")
    args = ap.parse_args(argv)
    run = enumerate_mstd if args.scan == "mstd" else triple_form_scan
    search.POOL_WORDS = 1
    for n in args.diameters:
        cfg = SearchConfig(max_diameter=n)
        seconds = {1: [], 2: []}
        for rep in range(REPEATS):
            for jobs in (1, 2) if rep % 2 else (2, 1):
                t0 = time.perf_counter()
                run(cfg, jobs=jobs)
                seconds[jobs].append(time.perf_counter() - t0)
        cells = "  ".join(
            f"jobs={j}: {statistics.median(v):.3f} ({min(v):.3f}-{max(v):.3f})"
            for j, v in seconds.items()
        )
        print(f"{args.scan} diameter {n}  {cells}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
