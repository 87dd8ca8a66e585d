"""addcomb benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {search,realize-suite,certify} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of that checkout, never from an
installed copy. One client runs a closed loop: each operation starts when
the previous one has returned, and operations run until they add up to
``--seconds``; every output is checked outside the timed region. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A traced run also
writes its spans to ``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5


class Outcomes:
    """Counts attempts and failures. The first output of each input is
    checked in full; a repeat must have the same fingerprint."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.counts_repeat = True  # exact counts equal in every traced pass
        self._first: dict = {}

    def judge(self, index, op, out) -> bool:
        self.attempted += 1
        ok = self._judge(index, op, out)
        if not ok:
            self.failed += 1
        return ok

    def _judge(self, index, op, out) -> bool:
        if isinstance(out, Exception):
            return self._report(index, [f"raised {type(out).__name__}: {out}"])
        w = self.workload
        try:
            fp = hashlib.sha256(repr(w.fingerprint(out)).encode()).digest()
            if index not in self._first:
                problems = w.check(op, out)
                self._first[index] = (fp, not problems)
                return self._report(index, problems)
        except Exception as exc:  # a crashing check is a failed output
            self._first.setdefault(index, (None, False))
            return self._report(index, [f"check raised {type(exc).__name__}: {exc}"])
        first_fp, first_ok = self._first[index]
        if fp != first_fp:
            return self._report(index, ["output differs from the same input's first output"])
        return first_ok

    def _report(self, index, problems) -> bool:
        if problems and self.failed < 5:
            print(f"op {index}: " + "; ".join(problems), file=sys.stderr)
        return not problems


def timed_call(w, op):
    t0 = perf_counter()
    try:
        out = w.run(op)
    except Exception as exc:  # counted as a failed op
        out = exc
    return out, perf_counter() - t0


def set_up(cls, seed):
    """Import addcomb afresh, generate the inputs and warm up; timed."""
    for name in [m for m in sys.modules if m == "addcomb" or m.startswith("addcomb.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    w = cls(seed)
    return w, perf_counter() - t0


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (the
    search's pool workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def measure(w, seconds: float, setup_s: float):
    """Inputs run in order, wrapping around, in whole rounds of ``w.round``
    ops until the timed ops add up to ``seconds``."""
    outcomes = Outcomes(w)
    latencies = []
    timed = 0.0
    i = 0
    while i == 0 or i % w.round or timed < seconds:
        index = i % len(w.ops)
        op = w.ops[index]
        out, dt = timed_call(w, op)
        timed += dt
        if outcomes.judge(index, op, out):
            latencies.append(dt)
        i += 1
    latencies.sort()
    done = len(latencies)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": done / timed,
        "op_p50_ms": 1e3 * statistics.median(latencies) if done else 0.0,
        "op_p90_ms": 1e3 * percentile(latencies, 0.90) if done else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcomes, metrics


def measure_traced(w, seconds: float, names, count_names, spans_path):
    """Whole passes over the first ``w.trace_ops`` inputs, so that counts
    are exact per pass. Each input runs once untraced and once traced, in
    alternating order; the per-layer figures come from the traced runs."""
    from spans import Tracer
    from workloads import SEARCH_DIAMETER, TRIPLE_DIAMETER

    tracer = Tracer()
    outcomes = Outcomes(w)
    ops = w.ops[: w.trace_ops]
    n = len(ops)
    plain = traced = 0.0
    passes = 0
    while passes == 0 or plain + traced < seconds:
        for i, op in enumerate(ops):
            tracer.op_id = passes * n + i
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    with tracer:
                        out, dt = timed_call(w, op)
                    traced += dt
                else:
                    out, dt = timed_call(w, op)
                    plain += dt
                outcomes.judge(i, op, out)
        passes += 1
    tracer.dump(spans_path)
    per_pass = tracer.summary(lambda op_id: op_id // n, passes)
    for name in count_names:
        values = {p.get(name, 0) for p in per_pass}
        if len(values) > 1:
            print(f"count {name} differs between passes: {sorted(values)}", file=sys.stderr)
            outcomes.counts_repeat = False

    def mean(key):
        return sum(p.get(key, 0.0) for p in per_pass) / passes

    # work per call, and the span doing it: the walk visits the 2^n subsets
    # of {0..n} that contain 0, the triple scan the 2^n odd masks
    nodes, masks = 1 << SEARCH_DIAMETER, 1 << TRIPLE_DIAMETER
    rates = {
        "search.enumerate_mstd.nodes_per_s": (nodes, "search.enumerate_mstd"),
        "search.enumerate_mstd_par.nodes_per_s": (nodes, "search.enumerate_mstd_par"),
        "search.triple_form_scan.masks_per_s": (masks, "search.triple_form_scan"),
    }
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            metrics[name] = traced / plain
        elif name in rates:
            work, span = rates[name]
            s = mean(f"{span}.s")
            metrics[name] = work * mean(f"{span}.calls") / s if s else 0.0
        elif name in count_names:
            metrics[name] = per_pass[0].get(name, 0)
        else:
            metrics[name] = mean(name)
    return outcomes, metrics


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "addcomb" / "__init__.py").is_file():
        print(f"error: no addcomb package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPS):
        w = None
        w, dt = set_up(cls, args.seed)
        setups.append(dt)
    import addcomb

    if Path(addcomb.__file__).resolve().parent != SRC / "addcomb":
        print(f"error: addcomb was imported from {addcomb.__file__}", file=sys.stderr)
        return 2

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        count_names = [n for n, u in units.items() if u == "count"]
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
        outcomes, values = measure_traced(w, args.seconds, list(units), count_names, spans_path)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        outcomes, values = measure(w, args.seconds, statistics.median(setups))
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match {spec_path.name}")
    print(
        f"{args.workload}: attempted={outcomes.attempted} failed={outcomes.failed} "
        f"fail_ratio={outcomes.failed / outcomes.attempted:.4f}",
        file=sys.stderr,
    )
    result = {
        "correct": outcomes.failed == 0 and outcomes.counts_repeat,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
