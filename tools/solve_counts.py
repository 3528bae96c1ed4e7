"""Count the LAPACK solves and time every query label of a benchmark workload.

    python3 tools/solve_counts.py ROOT WORKLOAD SEED [--repeats R] [--json OUT]

ROOT is a source checkout (with ``src/`` and ``perfbench/``).  The
workload's matrix files are built by ``perfbench/workloads.build`` into a
fixed directory under the system temporary directory.  Each query runs
through ``numrange.cli.main`` in process, with its output captured, once
with the LAPACK drivers of ``np.linalg`` wrapped by the test suite's
recorder (``tests/conftest.py``) to count the matrices they are given (a
stack of n matrices counts n), then R more timed times without the
wrappers.  Per query label it prints the number of queries,
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

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from inprocess import workload  # first: it pins BLAS threads before numpy loads

import numpy as np
import pytest


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
    counts: dict[str, list[tuple[int, int, int]]] = {}
    times: dict[str, list[float]] = {}
    with workload(args.root, args.workload, args.seed, "numrange-solve-counts") as (queries, run):
        # the test suite's recorder, which locks its appends against the
        # worker threads of matcore._map
        sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
        from conftest import matrices, record

        with pytest.MonkeyPatch.context() as mp:
            hermitian = [record(mp, np.linalg, name, matrices) for name in ("eigh", "eigvalsh")]
            general = [record(mp, np.linalg, name, matrices) for name in ("eig", "eigvals", "svd")]
            for q in queries:
                for seen in hermitian + general:
                    seen.clear()
                run(q.argv)
                counts.setdefault(q.label, []).append(
                    (sum(map(sum, hermitian)), sum(map(len, hermitian)), sum(map(sum, general)))
                )
        for _ in range(args.repeats):
            for q in queries:
                start = time.perf_counter()
                run(q.argv)
                times.setdefault(q.label, []).append(time.perf_counter() - start)
    rows = {
        label: {
            "queries": len(counts[label]),
            "matrices_per_query": statistics.fmean(c[0] for c in counts[label]),
            "hermitian_calls_per_query": statistics.fmean(c[1] for c in counts[label]),
            "eig_svd_matrices_per_query": statistics.fmean(c[2] for c in counts[label]),
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
