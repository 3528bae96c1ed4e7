"""Record the CLI output of every query of a benchmark workload.

    python3 tools/query_digests.py ROOT WORKLOAD SEED OUT

ROOT is a source checkout (with ``src/`` and ``perfbench/``).  The
workload's matrix files are built by ``perfbench/workloads.build`` into a
fixed directory under the system temporary directory, so the argv strings,
which name those files, are the same for every checkout.  Each query runs
once through ``numrange.cli.main`` in process, with stdout and stderr
captured as ``perfbench/run.py`` captures them, and OUT receives, per
query ``i``, the files ``i.argv``, ``i.rc``, ``i.stdout`` and ``i.stderr``.

Two checkouts give the same output byte for byte when

    python3 tools/query_digests.py PARENT points 5 out/parent
    python3 tools/query_digests.py .      points 5 out/change
    diff -r out/parent out/change

prints nothing.  ``perfbench`` is only imported, never changed.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

from inprocess import workload


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path, help="source checkout with src/ and perfbench/")
    p.add_argument("workload", help="perfbench workload name")
    p.add_argument("seed", type=int, help="workload seed")
    p.add_argument("out", type=Path, help="output directory (replaced)")
    args = p.parse_args(argv)
    with workload(args.root, args.workload, args.seed, "numrange-query-digests") as (queries, run):
        shutil.rmtree(args.out, ignore_errors=True)
        args.out.mkdir(parents=True)
        for i, q in enumerate(queries):
            rc, out, err = run(q.argv)
            stem = args.out / f"{i:04d}"
            stem.with_suffix(".argv").write_text(" ".join(q.argv) + "\n")
            stem.with_suffix(".rc").write_text(f"{rc}\n")
            stem.with_suffix(".stdout").write_text(out)
            stem.with_suffix(".stderr").write_text(err)
    print(f"{len(queries)} queries of {args.workload} (seed {args.seed}) written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
