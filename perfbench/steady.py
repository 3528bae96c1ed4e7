"""Steadiness report: repeated benchmark runs against BENCHMARK.json bounds.

    python3 perfbench/steady.py --runs 10 [--trace 1] [--out FILE]

Runs ``perfbench/run.py`` once per seed (seeds 1 .. runs) for every
workload in BENCHMARK.json, one run at a time, and prints for every
end-to-end metric its median, quartiles and spread, the spread being the
interquartile distance over the median as ``statistics.quantiles(n=4)``
gives it.  A spread is "steady" below a third of the metric's bound.
``--out`` writes the same table as JSON, with the commit and environment,
as one point of the performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
    lines = res.stdout.strip().splitlines()
    info = next((json.loads(ln[len("info: "):]) for ln in lines if ln.startswith("info: ")), {})
    return json.loads(lines[-1]), info


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None  # a count that is 0 on this workload
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None and spread is not None:
        out["bound"] = bound
        out["status"] = "steady" if spread < bound / 3 else ("within bound" if spread <= bound else "too wide")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    doc = {"run_seconds": spec["run_seconds"], "runs": args.runs, "trace": args.trace, "workloads": {}}
    try:
        doc["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        doc["commit"] = None
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        runs: list[dict] = []
        t0 = time.perf_counter()
        for seed in range(1, args.runs + 1):
            result, info = run_once(spec["command"], workload, seed, spec["run_seconds"], args.trace)
            doc["env"] = info.pop("env", None)
            runs.append(info)
            failed += result["failed"]
            attempted += result["attempted"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {name: summarize(v, bounds[name]) for name, v in values.items()}
        doc["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": rows, "runs": runs}
        print(f"{workload}: {args.runs} runs in {time.perf_counter() - t0:.0f} s, {failed} of {attempted} queries failed")
        for name, row in rows.items():
            unit = next(m["unit"] for m in metrics if m["name"] == name)
            tail = "" if row["spread"] is None else f"  spread {row['spread']:.4f}"
            if "bound" in row:
                tail += f" / bound {row['bound']}  {row['status']}"
            print(f"  {name:<32} median {row['median']:>12.6g} {unit:<13} q1 {row['q1']:>12.6g}  q3 {row['q3']:>12.6g}{tail}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
