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

import os

# BLAS threads are pinned before numpy is first imported, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path, help="source checkout with src/ and perfbench/")
    p.add_argument("workload", help="perfbench workload name")
    p.add_argument("seed", type=int, help="workload seed")
    p.add_argument("out", type=Path, help="output directory (replaced)")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from numrange import cli

    if root / "src" not in Path(cli.__file__).resolve().parents:
        print(f"error: numrange imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    work = Path(tempfile.gettempdir()) / "numrange-query-digests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    shutil.rmtree(args.out, ignore_errors=True)
    args.out.mkdir(parents=True)
    try:
        queries = workloads.build(args.workload, args.seed, work)
        for i, q in enumerate(queries):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(q.argv))
            stem = args.out / f"{i:04d}"
            stem.with_suffix(".argv").write_text(" ".join(q.argv) + "\n")
            stem.with_suffix(".rc").write_text(f"{rc}\n")
            stem.with_suffix(".stdout").write_text(out.getvalue())
            stem.with_suffix(".stderr").write_text(err.getvalue())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(queries)} queries of {args.workload} (seed {args.seed}) written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
