"""Time every op of the certify workload's inputs one by one, per kind and arity.

    PYTHONPATH=src python3 scripts/certify_times.py 1 2
    PYTHONPATH=src python3 scripts/certify_times.py --ops 480 1 2 3

For each seed it builds the certify workload's inputs from
``random.Random(seed)``, as ``perfbench/run.py --workload certify`` does,
and runs the first --ops (default 240) of them in one process, each with
the steps of the workload's op: the group route (``realize``), the induced
map (``induced_bijection``), and for integer sets ``is_mstd`` and the MPTQ
mirror. Between ops, outside the timed region, it runs the workload's
``check`` on each output, as the benchmark does; the check evicts numpy's
code and data, so ops timed back to back would read too fast. It prints,
per set kind (integer, rational, symbolic) and form arity, the number of
ops, their total seconds, the part of it in ``realize`` and in
``induced_bijection``, and the p50 / p90 of the op time, then one line
with the same totals over all ops. Last, per set kind, it counts the
``model.key_order`` calls (calls, not keys) whose order the float error
bound settled and those that went to the exact intervals.
"""

import argparse
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from addcomb import images, isomorphism, model, mptq, realization  # noqa: E402
from perfbench.workloads import Certify, certify_schedule  # noqa: E402


def time_op(op) -> tuple[tuple[float, float, float], tuple]:
    """Seconds of one certify op, of its realize and of its induced map,
    and the op's output as ``Certify.run`` returns it."""
    A, form, base = op
    t0 = time.perf_counter()
    r = realization.realize(A, form, "group")
    t1 = time.perf_counter()
    induced = isomorphism.induced_bijection(form, r.mapping)
    t2 = time.perf_counter()
    mirror = None
    if base is not None:
        mirror = (
            images.is_mstd(A),
            mptq.product_quotient_counts(mptq.exp_transport(A, base)),
        )
    return (time.perf_counter() - t0, t1 - t0, t2 - t1), (r, induced, mirror)


def totals(times: list) -> str:
    op, realize, induced = (sum(column) for column in zip(*times))
    return f"total {op:.3f} s  realize {realize:.3f} s  induced {induced:.3f} s"


def main(argv) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--ops", type=int, default=240)
    args = ap.parse_args(argv)

    seconds = defaultdict(list)
    # per kind, the key_order calls settled by floats and by exact intervals
    orders = defaultdict(lambda: [0, 0])
    tally = orders[None]
    float_order = model._float_order

    def counted(keys, approx):
        order = float_order(keys, approx)
        tally[order is None] += 1
        return order

    model._float_order = counted
    try:
        for seed in args.seeds:
            tally = orders[None]  # building the sets orders them too
            workload = Certify(seed)
            for i, op in enumerate(workload.ops[: args.ops]):
                kind, coeffs, _ = certify_schedule(i)
                tally = orders[kind]
                times, out = time_op(op)
                seconds[kind, len(coeffs)].append(times)
                problems = workload.check(op, out)
                if problems:
                    raise SystemExit(f"seed {seed} op {i}: " + "; ".join(problems))
    finally:
        model._float_order = float_order
    print(f"seeds {args.seeds}, {args.ops} ops each")
    for (kind, h), times in sorted(seconds.items()):
        ms = [1e3 * t for t, _, _ in times]
        # a lone op is its own p50 and p90; quantiles needs two
        deciles = statistics.quantiles(ms, n=10, method="inclusive") if len(ms) > 1 else ms * 9
        print(
            f"{kind:8}  h={h}  ops {len(ms):4}  {totals(times)}  "
            f"op ms p50/p90 {deciles[4]:.3g} / {deciles[8]:.3g}"
        )
    every = [t for times in seconds.values() for t in times]
    print(f"{'all':8}       ops {len(every):4}  {totals(every)}")
    for kind in sorted({kind for kind, _ in seconds}):
        settled, exact = orders[kind]
        print(f"{kind:8}  key_order calls  float {settled}  exact {exact}")


if __name__ == "__main__":
    main(sys.argv[1:])
