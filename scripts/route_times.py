"""Time every dirichlet and lp call of the realize-suite inputs one by one.

    PYTHONPATH=src python3 scripts/route_times.py 1 2
    PYTHONPATH=src python3 scripts/route_times.py --suites 8 1 2 3

For each seed it takes the inputs of the first --suites (default 2, at most
8) suites of the realize-suite workload, which draws them with
``perfbench.workloads.suite_sets`` from ``random.Random(seed)``, and
realizes every set under every suite form by both routes in one process.
Between calls, outside the timed region, it runs the workload's ``check``
on each output, as the benchmark does; the check evicts numpy's code and
data, so calls timed back to back would read too fast. It prints, per
route, the number of calls, their total seconds, the p50 / p90 / max of
the call time, and for dirichlet the p50 / p90 / max of the q found. Then,
per set size k, one line for each route: the p50 / p90 / max of the call
time, and the p50 / max of the q found (dirichlet) or the p50 / p90 / max
of the simplex pivots (lp).
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from addcomb.realization import realize  # noqa: E402
from perfbench.workloads import ROUTES, SUITE_SETS, SUITES, RealizeSuite  # noqa: E402


def quantiles(values) -> str:
    """p50, p90 and max, as ``a / b / c``."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return f"{deciles[4]:.4g} / {deciles[8]:.4g} / {max(values):.4g}"


def main(argv) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--suites", type=int, default=2)
    args = ap.parse_args(argv)
    if not 1 <= args.suites <= SUITES:
        ap.error(f"--suites must be 1..{SUITES}, the suites the workload draws")

    seconds = {route: [] for route in ROUTES}
    dirichlet_by_k = {}  # k -> [(seconds, q)]
    lp_by_k = {}  # k -> [(seconds, pivots)]
    for seed in args.seeds:
        workload = RealizeSuite(seed)
        for i, op in enumerate(workload.ops[: args.suites * SUITE_SETS * workload.round]):
            A, form, route = op
            t0 = time.perf_counter()
            r = realize(A, form, route)
            dt = time.perf_counter() - t0
            seconds[route].append(dt)
            if route == "dirichlet" and r.params is not None:
                dirichlet_by_k.setdefault(len(A), []).append((dt, r.params.q))
            elif route == "lp":
                lp_by_k.setdefault(len(A), []).append((dt, r.params.pivots))
            problems = workload.check(op, r)
            if problems:
                raise SystemExit(f"seed {seed} op {i}: " + "; ".join(problems))
    print(f"seeds {args.seeds}, {args.suites} suites each")
    for route, times in seconds.items():
        print(
            f"{route:9}  calls {len(times)}  total {sum(times):.3f} s  "
            f"call ms p50/p90/max {quantiles([1e3 * t for t in times])}"
        )
    qs = [q for calls in dirichlet_by_k.values() for _, q in calls]
    print(f"dirichlet  q p50/p90/max {quantiles(qs)}")
    for k, calls in sorted(dirichlet_by_k.items()):
        found = [q for _, q in calls]
        print(
            f"dirichlet k={k}  calls {len(calls)}  call ms p50/p90/max "
            f"{quantiles([1e3 * t for t, _ in calls])}  "
            f"q p50/max {statistics.median(found):.4g} / {max(found)}"
        )
    for k, calls in sorted(lp_by_k.items()):
        print(
            f"lp k={k}     calls {len(calls)}  call ms p50/p90/max "
            f"{quantiles([1e3 * t for t, _ in calls])}  "
            f"pivots p50/p90/max {quantiles([p for _, p in calls])}"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
