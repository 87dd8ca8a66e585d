"""Time every op of the certify workload's inputs one by one, per kind and arity.

    PYTHONPATH=src python3 scripts/certify_times.py 1 2
    PYTHONPATH=src python3 scripts/certify_times.py --ops 480 1 2 3

For each seed it builds the certify workload's inputs from
``random.Random(seed)``, as ``perfbench/run.py --workload certify`` does,
and runs the first --ops (default 240) of them in one process: the group
route, the induced map, and for integer sets ``is_mstd`` and the MPTQ
mirror. It prints, per set kind (integer, rational, symbolic) and form
arity, the number of ops, their total seconds and the p50 / p90 of the op
time.
"""

import argparse
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import Certify, certify_schedule  # noqa: E402


def main(argv) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--ops", type=int, default=240)
    args = ap.parse_args(argv)

    seconds = defaultdict(list)
    for seed in args.seeds:
        workload = Certify(seed)
        for i, op in enumerate(workload.ops[: args.ops]):
            kind, coeffs, _ = certify_schedule(i)
            t0 = time.perf_counter()
            workload.run(op)
            seconds[kind, len(coeffs)].append(time.perf_counter() - t0)
    print(f"seeds {args.seeds}, {args.ops} ops each")
    for (kind, h), times in sorted(seconds.items()):
        ms = [1e3 * t for t in times]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        print(
            f"{kind:8}  h={h}  ops {len(ms):4}  total {sum(times):.3f} s  "
            f"op ms p50/p90 {deciles[4]:.3g} / {deciles[8]:.3g}"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
