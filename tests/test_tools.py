"""The tools under tools/ run a benchmark workload end to end, each as its
own process on this checkout: query_digests writes four files per query,
the same bytes on every run, and solve_counts lists every query label."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tool(name, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), str(ROOT), *args], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr


def shapes3_queries(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.build("shapes3", 1, tmp_path)


def test_query_digests_write_the_same_bytes_twice(tmp_path):
    n = len(shapes3_queries(tmp_path))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        run_tool("query_digests.py", "shapes3", "1", str(out))
    names = sorted(f"{i:04d}.{ext}" for i in range(n) for ext in ("argv", "rc", "stdout", "stderr"))
    for out in runs:
        assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_solve_counts_lists_every_label(tmp_path):
    out = tmp_path / "counts.json"
    run_tool("solve_counts.py", "shapes3", "1", "--repeats", "1", "--json", str(out))
    labels = json.loads(out.read_text())["labels"]
    assert set(labels) == {q.label for q in shapes3_queries(tmp_path)}
    keys = {"queries", "matrices_per_query", "hermitian_calls_per_query", "eig_svd_matrices_per_query", "median_ms"}
    for label, row in labels.items():
        assert set(row) == keys, label
