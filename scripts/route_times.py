"""Time every dirichlet and lp call of the realize-suite inputs one by one.

    PYTHONPATH=src python3 scripts/route_times.py 1 2
    PYTHONPATH=src python3 scripts/route_times.py --suites 8 1 2 3

For each seed it draws the first --suites (default 2) suites of
``perfbench.workloads.suite_sets`` from ``random.Random(seed)``, as the
realize-suite workload does, and realizes every set under every suite form
by both routes in one process. It prints, per route, the number of calls,
their total seconds, the p50 / p90 / max of the call time, and for
dirichlet the p50 / p90 / max of the q found. Then, per set size k, one
line for the lp route: the p50 / p90 / max of its call time and of its
simplex pivots.
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from addcomb import model  # noqa: E402
from addcomb.realization import realize  # noqa: E402
from perfbench.workloads import ROUTES, SUITE_FORMS, suite_sets  # noqa: E402


def quantiles(values) -> str:
    """p50, p90 and max, as ``a / b / c``."""
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return f"{deciles[4]:.4g} / {deciles[8]:.4g} / {max(values):.4g}"


def main(argv) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--suites", type=int, default=2)
    args = ap.parse_args(argv)

    forms = [model.LinearForm(c) for c in SUITE_FORMS]
    seconds = {route: [] for route in ROUTES}
    qs = []
    lp_by_k = {}  # k -> [(seconds, pivots)]
    for seed in args.seeds:
        rng = random.Random(seed)
        for _ in range(args.suites):
            for A in suite_sets(rng, model):
                for form in forms:
                    for route in ROUTES:
                        t0 = time.perf_counter()
                        r = realize(A, form, route)
                        dt = time.perf_counter() - t0
                        seconds[route].append(dt)
                        if route == "dirichlet" and r.params is not None:
                            qs.append(r.params.q)
                        elif route == "lp":
                            lp_by_k.setdefault(len(A), []).append((dt, r.params.pivots))
    print(f"seeds {args.seeds}, {args.suites} suites each")
    for route, times in seconds.items():
        print(
            f"{route:9}  calls {len(times)}  total {sum(times):.3f} s  "
            f"call ms p50/p90/max {quantiles([1e3 * t for t in times])}"
        )
    print(f"dirichlet  q p50/p90/max {quantiles(qs)}")
    for k, calls in sorted(lp_by_k.items()):
        print(
            f"lp k={k}     calls {len(calls)}  call ms p50/p90/max "
            f"{quantiles([1e3 * t for t, _ in calls])}  "
            f"pivots p50/p90/max {quantiles([p for _, p in calls])}"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
