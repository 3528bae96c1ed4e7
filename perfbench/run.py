"""numrange benchmark: closed-loop CLI queries on generated matrix files.

    python3 perfbench/run.py --workload points --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One process and one client: each
query is one ``numrange.cli.main(argv)`` call run in-process with stdout
captured, and the next query starts when the previous one has returned.
The loop runs whole passes over the workload's seeded query list until
the queries have taken ``--seconds`` of wall time and at least
MIN_QUERIES have run, so every run measures the same mix of queries.
Each output is checked outside the timed region by ``checks``; a query
fails on an unexpected exit code, an exception or a failed check.

Host speed.  On a shared host the CPU speed drifts, by up to 1.8x over
tens of seconds, which no run length averages out.  A fixed probe (a
Python loop, small numpy and LAPACK calls and a JSON dump) runs before
every query, outside its timing, and each query time is reported at reference speed: scaled by
PROBE_REF_S over the median probe time of the queries around it.  The
latencies, throughput, set-up time and self times below are therefore at
the speed at which the probe takes PROBE_REF_S; the raw wall-clock
figures and the speed factor are printed on the ``info`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans
recorded around every public numrange function and the LAPACK kernel
(see ``spans``).  The last line of stdout is the JSON result; the lines
before it list every metric with its unit, the metric each layer metric
should move, and the environment.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
MIN_QUERIES = 200  # so that at least 10 queries lie beyond the 95th percentile
WALL_LIMIT_S = 120.0  # no new pass starts after this much wall time

# Median probe time over the 30 runs of perfbench/trajectory/00-seed.json,
# on the 2-core 2.1 GHz x86_64 VM that defined the benchmark.
PROBE_REF_S = 7.2e-4
SPEED_WINDOW = 8  # queries on each side whose probes set a query's speed
_PROBE_H = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
_PROBE_V = np.linspace(0.0, 1.0, 16)
_PROBE_DOC = {"x": [0.1 * k for k in range(50)]}

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.calls": "calls/query" for layer in (*spans.LAYERS, "linalg")},
    **{f"{layer}.self_ms": "ms/query" for layer in (*spans.LAYERS, "linalg")},
    "matcore.eig_hermitian.calls": "calls/query",
    "matcore.eig_hermitian.self_ms": "ms/query",
    "linalg.eigh.matrices": "matrices/query",
    "linalg.eigh.single_calls": "calls/query",
    "linalg.eigh.matrices_per_call": "matrices/call",
    "matcore.rotate_stack.angles": "angles/query",
    "extremal.face.calls": "calls/query",
    "rangegeo.convex_hull.points_in": "points/query",
    "oracle.hull.kept_frac": "fraction",
    "rangegeo.hausdorff.self_ms": "ms/query",
    "kipp3.classify.self_ms": "ms/query",
    "cli.stdout_bytes": "bytes/query",
    "trace.overhead_frac": "fraction",
}

# The end-to-end metric and workload each layer metric should move; stated
# before any optimisation, so that a later change can be held to it.
EXPECTED_EFFECT = {
    "matcore.eig_hermitian.calls": "latency_p95_ms, throughput_qps on points; 0 on large",
    "matcore.eig_hermitian.self_ms": "latency_p95_ms, throughput_qps on points; 0 on large",
    "linalg.eigh.matrices": "throughput_qps, latency_p50_ms on large",
    "linalg.self_ms": "throughput_qps, latency_p50_ms on large",
    "linalg.eigh.single_calls": "latency_p50_ms on points",
    "linalg.eigh.matrices_per_call": "latency_p50_ms on points",
    "matcore.rotate_stack.angles": "peak_rss_mb on large",
    "extremal.face.calls": "latency_p95_ms on points",
    "rangegeo.convex_hull.points_in": "latency_p95_ms on large",
    "oracle.hull.kept_frac": "latency_p95_ms on large",
    "rangegeo.hausdorff.self_ms": "latency_p50_ms on large",
    "kipp3.classify.self_ms": "latency_p50_ms, throughput_qps on shapes3",
    "maxent.self_ms": "latency_p95_ms on points (probe); latency_p50_ms on large",
    "cli.self_ms": "latency_p50_ms on shapes3; latency_p95_ms on points",
    "cli.stdout_bytes": "latency_p50_ms on shapes3; latency_p95_ms on points",
    "trace.overhead_frac": "none, reported only",
}


def speed_probe() -> float:
    """Seconds taken by a fixed slice of the kinds of work a query does:
    interpreted Python, small numpy and LAPACK calls, and JSON output."""
    t0 = time.perf_counter()
    s = 0
    for j in range(2000):
        s += j
    for j in range(20):
        H = _PROBE_H * (j + 1.0)
        checks.eigvalsh(H)
        (H @ H).sum()
        np.exp(_PROBE_V).max()
        np.column_stack([_PROBE_V, _PROBE_V])
    json.dumps(_PROBE_DOC)
    return time.perf_counter() - t0


def at_reference_speed(raw: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Query times rescaled by the median probe time of their neighbours."""
    k = SPEED_WINDOW
    speed = np.array([np.median(probes[max(0, i - k) : i + k + 1]) for i in range(len(probes))])
    return raw * (PROBE_REF_S / speed)


def import_numrange():
    """Import numrange from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import numrange
    from numrange import cli

    if SRC not in Path(numrange.__file__).resolve().parents:
        raise ImportError(f"numrange imported from {numrange.__file__}, not from {SRC}")
    return cli


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import numrange\n"
    "print(repr(time.perf_counter() - t))\n"
)


def import_seconds() -> float:
    """Time of ``import numrange`` (numpy included) in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
    )
    if res.returncode != 0:
        raise ImportError(f"import numrange failed: {res.stderr.strip()[-500:]}")
    return float(res.stdout.strip())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Runner:
    """Executes queries in-process and checks each distinct output once."""

    def __init__(self, cli, queries):
        self.cli = cli
        self.queries = queries
        self.verified = [set() for _ in queries]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, i: int) -> tuple[float, float, int]:
        """Run query i; returns (seconds, probe seconds, stdout bytes)."""
        q = self.queries[i]
        probe = speed_probe()
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(list(q.argv))  # module attribute: traced when wrapped
            except Exception:  # a crash fails this query, not the benchmark
                rc = None
                crash = traceback.format_exc(limit=3)
            dt = time.perf_counter() - t0
        self.attempted += 1
        stdout = out.getvalue()
        if crash is not None:
            self._fail(q, f"raised {crash.strip().splitlines()[-1]}")
        else:
            self._verify(i, q, rc, stdout, err.getvalue())
        return dt, probe, len(stdout.encode())

    def _verify(self, i, q, rc, out, err) -> None:
        digest = hashlib.blake2b(f"{rc}\0{out}\0{err}".encode(), digest_size=16).digest()
        if digest in self.verified[i]:
            return
        try:
            q.check(rc, out, err)
        except checks.CheckFailed as exc:
            self._fail(q, str(exc))
            return
        except Exception as exc:  # malformed output makes a check raise
            self._fail(q, f"malformed output: {exc!r}")
            return
        self.verified[i].add(digest)

    def _fail(self, q, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{q.label}: {' '.join(q.argv)}: {msg}")

    def one_pass(self) -> np.ndarray:
        """One pass over the query list; rows of (seconds, probe seconds, bytes)."""
        return np.array([self.execute(i) for i in range(len(self.queries))])


def measure(runner: Runner, seconds: float) -> dict:
    """Whole passes over the query list until `seconds` of query time and
    MIN_QUERIES queries, unless WALL_LIMIT_S of wall time has gone."""
    passes = []
    spent = 0.0
    t_wall = time.perf_counter()
    while not passes or (
        (spent < seconds or len(passes) * len(runner.queries) < MIN_QUERIES)
        and time.perf_counter() - t_wall < WALL_LIMIT_S
    ):
        passes.append(runner.one_pass())
        spent += passes[-1][:, 0].sum()
    rows = np.concatenate(passes)
    if len(rows) < MIN_QUERIES:
        print(f"warning: only {len(rows)} queries measured", file=sys.stderr)
    raw, probes = rows[:, :2].T
    lat = at_reference_speed(raw, probes) * 1e3
    return {
        "throughput_qps": len(lat) / (lat.sum() / 1e3),
        "latency_p50_ms": float(np.percentile(lat, 50.0)),
        "latency_p95_ms": float(np.percentile(lat, 95.0)),
        "queries": len(lat),
        "passes": len(passes),
        "raw_throughput_qps": len(raw) / raw.sum(),
        "raw_latency_p50_ms": float(np.percentile(raw, 50.0) * 1e3),
        "raw_latency_p95_ms": float(np.percentile(raw, 95.0) * 1e3),
        "speed_factor": float(PROBE_REF_S / np.median(probes)),
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes until `seconds` of query time.

    Counts are per query over one pass (every pass is identical, so they
    repeat exactly); self times are the median over traced passes, each
    pass scaled to reference speed by its median probe time.
    """
    tracer = spans.Tracer()
    n = len(runner.queries)
    walls = {False: 0.0, True: 0.0}
    raw_total = 0.0
    windows, factors = [], []
    stdout_bytes = 0
    t_wall = time.perf_counter()
    while not windows or (raw_total < seconds and time.perf_counter() - t_wall < WALL_LIMIT_S):
        for traced in (False, True):
            lo = len(tracer)
            if traced:
                tracer.install()
                tracer.recording = True
            try:
                rows = runner.one_pass()
            finally:
                tracer.recording = False
                tracer.uninstall()
            factor = PROBE_REF_S / np.median(rows[:, 1])
            walls[traced] += rows[:, 0].sum() * factor
            raw_total += rows[:, 0].sum()
            if traced:
                windows.append(spans.SpanWindow(tracer, lo, len(tracer)))
                factors.append(factor)
                stdout_bytes += int(rows[:, 2].sum())

    def self_ms(name):
        return statistics.median(1e3 * w.self_seconds(name) * f / n for w, f in zip(windows, factors))

    first = windows[0]
    out = {}
    for layer in (*spans.LAYERS, "linalg"):
        out[f"{layer}.calls"] = first.calls(layer) / n
        out[f"{layer}.self_ms"] = self_ms(layer)
    linalg_calls = first.calls("linalg")
    matrices = first.size("linalg")
    hulled = first.size("oracle.hull")
    out.update(
        {
            "matcore.eig_hermitian.calls": first.calls("matcore.eig_hermitian") / n,
            "matcore.eig_hermitian.self_ms": self_ms("matcore.eig_hermitian"),
            "linalg.eigh.matrices": matrices / n,
            "linalg.eigh.single_calls": int((first.mask("linalg") & (first.sizes == 1)).sum()) / n,
            "linalg.eigh.matrices_per_call": matrices / linalg_calls if linalg_calls else 0.0,
            "matcore.rotate_stack.angles": first.size("matcore.rotate_stack") / n,
            "extremal.face.calls": first.calls("extremal.face") / n,
            "rangegeo.convex_hull.points_in": first.size("rangegeo.convex_hull") / n,
            "oracle.hull.kept_frac": (
                first.size("rangegeo.convex_hull", parent="oracle.hull") / hulled if hulled else 0.0
            ),
            "rangegeo.hausdorff.self_ms": self_ms("rangegeo.hausdorff"),
            "kipp3.classify.self_ms": self_ms("kipp3.classify"),
            "cli.stdout_bytes": stdout_bytes / (n * len(windows)),
            "trace.overhead_frac": walls[True] / walls[False] - 1.0,
            "spans": len(tracer),
            "traced_passes": len(windows),
        }
    )
    if any(not np.array_equal(w.ids, first.ids) for w in windows[1:]):
        print("warning: traced passes made different calls", file=sys.stderr)
    return out


def report(metrics: dict, units: dict, info: dict) -> None:
    width = max(map(len, units))
    for name, unit in units.items():
        effect = f"  -> {EXPECTED_EFFECT[name]}" if units is PER_LAYER and name in EXPECTED_EFFECT else ""
        print(f"{name:<{width}}  {metrics[name]:>14.6g}  {unit}{effect}")
    print("info: " + json.dumps(info, sort_keys=True))


def run(args, run_dir: Path) -> int:
    setup = []
    for r in range(SETUP_REPEATS):
        speed = PROBE_REF_S / statistics.median(speed_probe() for _ in range(5))
        t_import = import_seconds()
        directory = run_dir / f"setup{r}"
        directory.mkdir()
        t0 = time.perf_counter()
        queries = workloads.build(args.workload, args.seed, directory)  # the last build is used
        setup.append((t_import + time.perf_counter() - t0) * speed)
    cli = import_numrange()
    runner = Runner(cli, queries)
    runner.one_pass()  # untimed warm-up: first LAPACK calls, caches, lazy imports
    if args.trace:
        metrics = measure_traced(runner, args.seconds)
        units = PER_LAYER
    else:
        metrics = measure(runner, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    for msg in runner.failures:
        print(f"FAILED {msg}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "queries_per_pass": len(queries),
        "env": environment(),
        **{k: v for k, v in metrics.items() if k not in units},
    }
    report(metrics, units, info)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "numrange" / "__init__.py").is_file():
        print(f"error: no numrange source at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return run(args, run_dir)
    except (ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
