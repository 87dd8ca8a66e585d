"""Time the three stages of each search scan: kernel, dedup and records.

    PYTHONPATH=src python3 scripts/scan_times.py 20 22

For each diameter and each scan kind ("mstd", "triple", and "equal", the
triple scan with --report-equal) it runs the scan five times with one job
and prints the number of tasks, the raw hits the kernel returns,
the canonical classes they dedup to, and the median seconds of the kernel
(`search._task_hits`, every task run), of the dedup (`search._classes`)
and of the records (every class's line formatted and written to memory as
`addcomb search` writes it, the "mstd" counts recounted as there).
"""

import io
import statistics
import sys
import time

from addcomb import cli, search
from addcomb.search import SearchConfig

REPEATS = 5


def main(argv) -> None:
    for n in [int(a) for a in argv]:
        cfg = SearchConfig(max_diameter=n)
        for scan in ("mstd", "triple", "equal"):
            kernel, dedup, records = [], [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                tasks = list(search._task_hits(cfg, scan, 1))
                t1 = time.perf_counter()
                classes = search._classes(tasks)
                t2 = time.perf_counter()
                # enumerate_mstd hands the CLI bare classes
                found = [cs for cs, _, _ in classes] if scan == "mstd" else classes
                t3 = time.perf_counter()
                cli._write_records(cli._search_records(found, scan == "mstd"), io.StringIO())
                t4 = time.perf_counter()
                kernel.append(t1 - t0)
                dedup.append(t2 - t1)
                records.append(t4 - t3)
            hits = sum(len(masks) for masks, _, _ in tasks)
            print(
                f"diameter {n} {scan:6s}  tasks={len(tasks)} hits={hits} "
                f"classes={len(classes)}  kernel={statistics.median(kernel):.4f} s "
                f"dedup={statistics.median(dedup):.4f} s "
                f"records={statistics.median(records):.4f} s",
                flush=True,
            )


if __name__ == "__main__":
    main(sys.argv[1:])
