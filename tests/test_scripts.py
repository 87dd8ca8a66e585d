"""Every timing script in ``scripts/`` runs to the end on its smallest input.

The scripts are loaded by path and their ``main`` is called in-process, so
a crash in the reporting (say, a quantile of a one-op group) fails here
rather than on the next manual run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from addcomb import search

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
#: (kind, arity, ops) of the certify workload's first 6 ops
CERTIFY_GROUPS = [("integer", 2, 1), ("integer", 3, 1), ("rational", 2, 2), ("symbolic", 2, 2)]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, heads",
    [
        ("scan_times", ["8"], ["diameter 8 mstd", "diameter 8 triple", "diameter 8 equal"]),
        (
            "route_times",
            ["--suites", "1", "1"],
            ["seeds [1], 1 suites each", "dirichlet", "lp", "dirichlet  q"]
            + [f"dirichlet k={k}  calls" for k in range(2, 9)]
            + [f"lp k={k}     calls" for k in range(2, 9)],
        ),
        ("pool_break_even", ["mstd", "8"], ["mstd diameter 8"]),
        (
            "certify_times",
            ["--ops", "6", "1"],
            ["seeds [1], 6 ops each"]
            + [f"{kind:8}  h={h}  ops    {n}  total " for kind, h, n in CERTIFY_GROUPS]
            + ["all            ops    6  total "]
            + [f"{kind:8}  key_order calls  float " for kind in ("integer", "rational")]
            + ["symbolic  key_order calls  float 2  exact 0"],
        ),
    ],
)
def test_script_main_runs(name, argv, heads, monkeypatch, capsys):
    # the scripts may put the repository root on sys.path, and
    # pool_break_even lowers search.POOL_WORDS for the whole process
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(search, "POOL_WORDS", search.POOL_WORDS)
    load_script(name).main(argv)
    lines = capsys.readouterr().out.splitlines()
    for head in heads:
        assert any(line.startswith(head) for line in lines), (head, lines)


def test_scan_times_prints_three_stages(monkeypatch, capsys):
    """Each scan kind's line ends with the kernel, dedup and records
    medians, in that order."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    load_script("scan_times").main(["8"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[2] for line in lines] == ["mstd", "triple", "equal"]
    for line in lines:
        stages = [word.split("=")[0] for word in line.split() if "=" in word][-3:]
        assert stages == ["kernel", "dedup", "records"], line
    assert "classes=50 " in lines[2]


@pytest.mark.parametrize("argv", [["mtsd", "8"], []])
def test_pool_break_even_refuses_an_unknown_kind(argv, capsys):
    """A misspelt scan kind, or none, is a usage error, not a timing of
    the triple scan under the wrong label."""
    with pytest.raises(SystemExit) as exc:
        load_script("pool_break_even").main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_times_reports_a_one_op_group(monkeypatch, capsys):
    """Below 24 ops each arity-3 group holds a single op, whose time is
    both its p50 and its p90."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    load_script("certify_times").main(["--ops", "12", "1"])
    lines = capsys.readouterr().out.splitlines()
    lone = [line for line in lines if "h=3" in line and "ops    1" in line]
    assert lone, lines
    for line in lone:
        p50, p90 = line.split("p50/p90")[1].split("/")
        assert p50.strip() == p90.strip()
    timed = [line for line in lines[1:] if "key_order" not in line]
    assert timed[-1].startswith("all") and "ops   12" in timed[-1]
    # realize and the induced map are parts of the op, each rounded to 1 ms
    for line in timed:
        words = line.split()
        total, realize, induced = (
            float(words[words.index(name) + 1]) for name in ("total", "realize", "induced")
        )
        assert realize + induced <= total + 0.001, line


def test_bench_pairs_runs_one_pair(tmp_path):
    """One short pair of realize-suite runs on one tree: both runs are
    recorded with their metrics, and the medians and versions are written."""
    root = SCRIPTS.parent
    out = tmp_path / "pairs.json"
    load_script("bench_pairs").main(
        [str(root), str(root), "--workload", "realize-suite", "--pairs", "1",
         "--seconds", "0.1", "--out", str(out)]
    )
    report = json.loads(out.read_text())
    assert report["nproc"] >= 1 and report["python"] and report["numpy"]
    suite = report["workloads"]["realize-suite"]
    assert [r["tree"] for r in suite["runs"]] == ["parent", "change"]
    assert suite["all_correct"]
    for name in ("parent", "change"):
        assert suite["medians"][name]["ops_per_s"] > 0
    assert set(suite["change_better_pairs"]) == set(suite["medians"]["parent"])
