"""Time the two stages of each search scan: the kernel and the dedup.

    PYTHONPATH=src python3 scripts/scan_times.py 20 22

For each diameter and each scan kind ("mstd", "triple", and "equal", the
triple scan with --report-equal) it runs the scan five times with one job
and prints the number of tasks, the raw hits the kernel returns,
the canonical classes they dedup to, and the median seconds of the kernel
(`search._task_hits`, every task run) and of the dedup (`search._classes`).
"""

import statistics
import sys
import time

from addcomb import search
from addcomb.search import SearchConfig

REPEATS = 5


def main(argv) -> None:
    for n in [int(a) for a in argv]:
        cfg = SearchConfig(max_diameter=n)
        for scan in ("mstd", "triple", "equal"):
            kernel, dedup = [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                tasks = list(search._task_hits(cfg, scan, 1))
                t1 = time.perf_counter()
                classes = search._classes(tasks)
                t2 = time.perf_counter()
                kernel.append(t1 - t0)
                dedup.append(t2 - t1)
            hits = sum(len(masks) for masks, _, _ in tasks)
            print(
                f"diameter {n} {scan:6s}  tasks={len(tasks)} hits={hits} "
                f"classes={len(classes)}  kernel={statistics.median(kernel):.4f} s "
                f"dedup={statistics.median(dedup):.4f} s",
                flush=True,
            )


if __name__ == "__main__":
    main(sys.argv[1:])
