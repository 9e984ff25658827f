"""Run the benchmark over several seeds and summarise its steadiness.

    python3 perfbench/baseline.py --runs 10                 # all workloads
    python3 perfbench/baseline.py --runs 5 --workload infer_r4
    python3 perfbench/baseline.py --runs 10 --trace-runs 1 --out perfbench/BASELINE.json

Each run is one ``run.py`` process with seed 1, 2, ... and the
``run_seconds`` of BENCHMARK.json; runs go one after another. For every
end-to-end metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. With ``--out`` it writes all of this, the values of
every run, the per-layer metrics of ``--trace-runs`` traced runs and the
environment fingerprint to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("train_r2", "infer_r4", "denoise_b1")


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; the detail gets its wall time as ``wall_s``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    detail["wall_s"] = time.perf_counter() - t0
    return detail, json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    for name in args.workload or WORKLOAD_NAMES:
        per_metric: dict[str, list[float]] = {}
        walls: list[float] = []
        all_correct = True
        for k in range(args.runs):
            seed = 1 + k
            detail, result = _run(name, seed, seconds, 0)
            all_correct &= result["correct"]
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
            walls.append(detail["wall_s"])
            print(f"{name} seed={seed} wall={detail['wall_s']:.0f}s "
                  f"correct={result['correct']} " + " ".join(
                f"{m}={e['value']:.4g}" for m, e in result["metrics"].items()),
                flush=True)
            report.setdefault("env", detail["env"])
        stats = {m: summarise(v, bounds[m]) for m, v in per_metric.items()}
        traced = []
        for k in range(args.trace_runs):
            _, result = _run(name, 1 + k, seconds, 1)
            all_correct &= result["correct"]
            traced.append({m: e["value"] for m, e in result["metrics"].items()})
        report["workloads"][name] = {"correct": all_correct, "wall_s": walls,
                                     "end_to_end": stats, "per_layer": traced}
        for m, s in stats.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {m:<16} median={s['median']:.4g} spread={s['spread']:.4f} "
                  f"bound={s['bound']} {flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
