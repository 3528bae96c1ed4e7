"""Run the queries of a benchmark workload in process, as the tools beside
this module do.

Importing it pins BLAS threads to one, as perfbench pins them, so the
tools import it before numpy.  ``perfbench`` is only imported, never
changed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


@contextlib.contextmanager
def workload(root: Path, name: str, seed: int, scratch: str):
    """Build the queries of workload ``name`` at ``seed`` with
    ``perfbench/workloads.build`` of the source checkout ``root``, into the
    fixed directory ``scratch`` under the system temporary directory, so the
    argv strings, which name its files, are the same for every checkout.
    Yields the queries and ``run(argv) -> (exit code, stdout, stderr)``,
    which runs one argv through that checkout's ``numrange.cli.main`` with
    its streams captured.  The directory is removed on exit.  Exits with
    status 2 when ``numrange`` is not imported from ``root/src``."""
    root = root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from numrange import cli

    if root / "src" not in Path(cli.__file__).resolve().parents:
        print(f"error: numrange imported from {cli.__file__}, not from {root / 'src'}", file=sys.stderr)
        raise SystemExit(2)

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    work = Path(tempfile.gettempdir()) / scratch
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        yield workloads.build(name, seed, work), run
    finally:
        shutil.rmtree(work, ignore_errors=True)
