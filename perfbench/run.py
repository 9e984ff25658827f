"""rcnet benchmark harness.

    python3 perfbench/run.py --workload train_r2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Runs from the root of an rcnet source tree and imports rcnet from its
``src/``. BLAS is capped at one thread (``RCNET_THREADS=1``). The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics declared
in ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it holds the detail behind them (checks,
counts, environment). See perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from fingerprint import THREAD_VARS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_r2", "infer_r4", "denoise_b1")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _report(detail: dict) -> str:
    lines = [f"{detail['workload']} seed={detail['seed']} "
             f"trace={detail['trace']} ops={sum(detail['ops_per_step'].values())} "
             f"failed={detail['failed']}/{detail['attempted']}"]
    for name, entry in detail["documented"].items():
        value, unit = entry[0], entry[1]
        n = f"  (n={entry[2]})" if len(entry) > 2 else ""
        lines.append(f"  {name:<24} {value:12.4f} {unit}{n}")
    return "\n".join(lines)


def _run_one(args, benchmark: dict) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # loads numpy and rcnet, after the thread caps
    import rcnet
    if ROOT / "src" not in Path(rcnet.__file__).resolve().parents:
        print(f"error: rcnet imported from {rcnet.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    metrics, detail = measure.run(args.workload, args.seed, args.seconds,
                                  bool(args.trace), T_START, ROOT)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(names))} are not declared "
            f"in BENCHMARK.json or not measured")
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    print(_report(detail))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Run every workload in its own process and print their figures."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-2]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}:{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "rcnet" / "__init__.py").is_file():
        print(f"error: no rcnet sources under {ROOT / 'src'}; run the "
              f"benchmark from an rcnet source tree", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
