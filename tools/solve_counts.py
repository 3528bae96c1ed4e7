"""Count the LAPACK solves and time every query label of a benchmark workload.

    python3 tools/solve_counts.py ROOT WORKLOAD SEED [--repeats R] [--json OUT]

ROOT is a source checkout (with ``src/`` and ``perfbench/``).  The
workload's matrix files are built by ``perfbench/workloads.build`` into a
fixed directory under the system temporary directory.  Each query runs
through ``numrange.cli.main`` in process, with its output captured, once
with the LAPACK drivers of ``np.linalg`` wrapped to count the matrices
they are given (a stack of n matrices counts n), then R more timed times
without the wrappers.  Per query label it prints the number of queries,
the mean count of matrices per query solved by the Hermitian drivers
``eigh`` and ``eigvalsh`` (``matrices``), the mean count of calls of
those two drivers per query, a stack counting one (``calls``), the mean
count of matrices solved by the general drivers ``eig``, ``eigvals`` and
``svd`` (``eig/svd``), and the median wall time per query over all
repeats, in milliseconds.  ``--json`` also writes those numbers
to a file.  ``perfbench`` is only imported, never
changed; BLAS threads are pinned to one, as perfbench pins them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


# The counted drivers of np.linalg, each with its column of ``solved``:
# 0 the Hermitian eigensolvers, 1 the general eigensolvers and the SVD.
# Column 2 counts the calls of the Hermitian eigensolvers.
_DRIVERS = {"eigh": 0, "eigvalsh": 0, "eig": 1, "eigvals": 1, "svd": 1}


def _counting(solved: list[int]) -> dict:
    """Wrappers of the _DRIVERS that add the matrices they are given to their
    column of solved, and a Hermitian driver's call to column 2; numrange
    may call them from its worker threads, so the sums are locked."""
    lock = threading.Lock()

    def wrap(fn, k):
        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            with lock:
                solved[k] += int(np.prod(a.shape[:-2], dtype=int))
                if k == 0:
                    solved[2] += 1
            return fn(a, *args, **kwargs)

        return counted

    return {name: wrap(getattr(np.linalg, name), k) for name, k in _DRIVERS.items()}


def _run(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path, help="source checkout with src/ and perfbench/")
    p.add_argument("workload", help="perfbench workload name")
    p.add_argument("seed", type=int, help="workload seed")
    p.add_argument("--repeats", type=int, default=5, help="timed passes over the queries (default 5)")
    p.add_argument("--json", type=Path, help="also write the table to this file")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from numrange import cli

    if root / "src" not in Path(cli.__file__).resolve().parents:
        print(f"error: numrange imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.gettempdir()) / "numrange-solve-counts"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        queries = workloads.build(args.workload, args.seed, work)
        solved = [0, 0, 0]
        plain = {name: getattr(np.linalg, name) for name in _DRIVERS}
        counts: dict[str, list[list[int]]] = {}
        times: dict[str, list[float]] = {}
        for name, counted in _counting(solved).items():
            setattr(np.linalg, name, counted)
        try:
            for q in queries:
                solved[:] = [0, 0, 0]
                _run(cli, q.argv)
                counts.setdefault(q.label, []).append(list(solved))
        finally:
            for name, fn in plain.items():
                setattr(np.linalg, name, fn)
        for _ in range(args.repeats):
            for q in queries:
                start = time.perf_counter()
                _run(cli, q.argv)
                times.setdefault(q.label, []).append(time.perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = {
        label: {
            "queries": len(counts[label]),
            "matrices_per_query": statistics.fmean(c[0] for c in counts[label]),
            "hermitian_calls_per_query": statistics.fmean(c[2] for c in counts[label]),
            "eig_svd_matrices_per_query": statistics.fmean(c[1] for c in counts[label]),
            "median_ms": 1e3 * statistics.median(times[label]),
        }
        for label in sorted(counts)
    }
    print(f"{'label':24s} {'queries':>7s} {'matrices':>10s} {'calls':>10s} {'eig/svd':>10s} {'median ms':>10s}")
    for label, r in rows.items():
        print(
            f"{label:24s} {r['queries']:7d} {r['matrices_per_query']:10.1f}"
            f" {r['hermitian_calls_per_query']:10.1f}"
            f" {r['eig_svd_matrices_per_query']:10.1f} {r['median_ms']:10.3f}"
        )
    if args.json:
        doc = {"workload": args.workload, "seed": args.seed, "repeats": args.repeats, "labels": rows}
        args.json.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
