"""Run the benchmark alternately in two checkouts and record every run.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload realize-suite \
        --pairs 10 --seconds 8 --out BENCH_20.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload search certify \
        --pairs 5 --seconds 8

Each pair runs ``perfbench/run.py --workload W --seed N --seconds S`` once
in each checkout, as a subprocess whose working directory is that checkout,
so each run imports the package from its own ``src/``. The parent runs
first in even pairs and second in odd ones; with several workloads, each
pair runs them all in turn. Before the first pair, ``compileall`` writes
current bytecode for each checkout's ``src/`` and ``perfbench/``, so
neither side's set-up compiles a source whose bytecode is missing or
stale. The output (stdout, or --out) is one JSON object with nproc, the
Python and numpy versions, the seed and the compiled directories, and per
workload every run's result line, the median of each metric per checkout
and the number of pairs in which the change was better on each metric.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

#: metrics where a higher value is better; every other one is lower-better
HIGHER_BETTER = {"ops_per_s"}
#: the directories of each checkout compiled before the first pair
COMPILED = ("src", "perfbench")


def compile_tree(tree: Path) -> None:
    """Bytecode for every source under the tree's COMPILED directories, by
    the interpreter that runs the benchmark; SystemExit if one fails."""
    for name in COMPILED:
        if not compileall.compile_dir(tree / name, quiet=1):
            raise SystemExit(f"compileall failed in {tree / name}")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``; its last stdout line, parsed."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def summary(runs: list) -> dict:
    """Medians per checkout, pairs won by the change, and the runs."""
    def values(name, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs if r["tree"] == name]

    metrics = list(runs[0]["result"]["metrics"])
    better = {}
    for m in metrics:
        sign = 1 if m in HIGHER_BETTER else -1
        pairs = zip(values("parent", m), values("change", m))
        better[m] = sum(sign * (c - p) > 0 for p, c in pairs)
    return {
        "medians": {
            name: {m: statistics.median(values(name, m)) for m in metrics}
            for name in ("parent", "change")
        },
        "change_better_pairs": better,
        "all_correct": all(r["result"]["correct"] for r in runs),
        "runs": runs,
    }


def main(argv) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        compile_tree(tree)
    runs = {w: [] for w in args.workload}
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in args.workload:
            for name in order:
                result = run_once(trees[name], workload, args.seed, args.seconds)
                runs[workload].append({"pair": pair, "tree": name, "result": result})
                print(f"{workload} pair {pair} {name:6} " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()
                ), file=sys.stderr)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiled": list(COMPILED),
        "workloads": {w: summary(runs[w]) for w in args.workload},
    }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main(sys.argv[1:])
