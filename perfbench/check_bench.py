"""Self-checks of the benchmark harness. Run from the repository root:

    python3 perfbench/check_bench.py

It takes about two minutes, most of it the diameter-22 search, which the
search checks cannot shrink. The realize-suite and certify checks use the
first inputs of a pass only.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTS = [n for n, unit in PER_LAYER.items() if unit == "count"]
#: inputs kept, whole rounds; search has one op, its three fixed queries
KEEP = {"search": None, "realize-suite": 96, "certify": 36}
#: counts each workload must produce, as evidence its layers were traced
EXPECTED = {
    # both mstd queries print one record, with its counts, per class
    "search": {"search.classes": workloads.SEARCH_CLASSES,
               "search.sum_diff_counts.calls": 2 * workloads.SEARCH_CLASSES},
    "realize-suite": {},
    "certify": {},
}
NONZERO = {
    "search": [],
    "realize-suite": ["simplex.pivots", "simplex.feasible_point.calls",
                      "realization.dirichlet.q_found.sum", "images.form_image.tuples"],
    "certify": ["isomorphism.is_phi_isomorphism.tuples", "model.value_table.tuples",
                "images.form_image.tuples"],
}


def small(name: str, seed: int = 7):
    w, _ = run.set_up(workloads.WORKLOADS[name], seed)
    if KEEP[name]:
        w.ops = w.ops[: KEEP[name]]
        w.trace_ops = KEEP[name]
    return w


def corrupt(name: str, out):
    """A wrong output of the kind the workload's op returns."""
    if name == "search":
        code, text = out[1]
        return [out[0], (code, "".join(text.splitlines(keepends=True)[:-1])), out[2]]
    from addcomb.model import FiniteSet

    r = out if name == "realize-suite" else out[0]
    bad = dataclasses.replace(r, B=FiniteSet(b - r.B.min() for b in r.B))
    return bad if name == "realize-suite" else (bad,) + tuple(out[1:])


def check_counts_repeat(tmp: Path):
    """Exact counts of two traced runs agree, and every per-layer metric of
    BENCHMARK.json is reported."""
    for name in workloads.WORKLOADS:
        results = []
        for i in range(2):
            path = tmp / f"spans-{name}-{i}.json"
            outcomes, metrics = run.measure_traced(
                small(name), 0, list(PER_LAYER), COUNTS, path)
            assert outcomes.failed == 0 and outcomes.counts_repeat, name
            assert set(metrics) == set(PER_LAYER), name
            assert json.loads(path.read_text())["spans"], name
            results.append({n: metrics[n] for n in COUNTS})
        assert results[0] == results[1], (name, results)
        for n, value in EXPECTED[name].items():
            assert results[0][n] == value, (name, n, results[0][n])
        for n in NONZERO[name]:
            assert results[0][n] > 0, (name, n)


def check_corruption_fails():
    """A corrupted output, and an op that raises, each count as failed."""
    for name in workloads.WORKLOADS:
        for fault in ("corrupt", "raise"):
            w = small(name)
            original, target = w.run, w.ops[0]

            def faulty(op, original=original, target=target, fault=fault, name=name):
                if op is not target:
                    return original(op)
                if fault == "raise":
                    raise RuntimeError("injected failure")
                return corrupt(name, original(op))

            w.run = faulty
            outcomes, metrics = run.measure(w, 0, 0.0)
            assert outcomes.failed == 1, (name, fault, outcomes.failed)
            assert set(metrics) == set(END_TO_END), name


def check_repeat_must_match():
    """A repeat of an input must reproduce the output checked in full."""
    w = small("certify")
    outcomes = run.Outcomes(w)
    op = w.ops[0]
    out = w.run(op)
    assert outcomes.judge(0, op, out)
    assert outcomes.judge(0, op, w.run(op))
    assert not outcomes.judge(0, op, corrupt("certify", out))


def check_printed_names(tmp: Path):
    """The command's last line names exactly BENCHMARK.json's metrics, and
    without the package's sources the command fails without a result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "certify",
            "--seed", "3", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END

    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and not done.stdout, (done.returncode, done.stdout)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for check in (check_repeat_must_match, check_corruption_fails,
                      check_counts_repeat, check_printed_names):
            args = (Path(tmp),) if check.__code__.co_argcount else ()
            try:
                check(*args)
                print(f"PASS {check.__name__}")
            except Exception:
                failed += 1
                print(f"FAIL {check.__name__}")
                traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
