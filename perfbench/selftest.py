"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its smallest size (``--seconds 1``: one training
epoch, one round of steps), untraced and traced, and checks that

* BENCHMARK.json keeps to the benchmark's format;
* the result line has exactly the keys correct/attempted/failed/metrics,
  and ``failed`` is 0;
* every declared end-to-end (untraced) or per-layer (traced) metric is
  emitted with its declared unit, and nothing else;
* the detail line carries every documented workload metric with its unit;
* the traced train run's tape node counts per step repeat exactly across
  two runs with different seeds;
* without rcnet sources the harness exits non-zero without a result.

Takes about two minutes on a 2-core machine. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

DOCUMENTED = {
    "train_r2": {"train.img_per_s": "img/s", "train.iter_ms.p50": "ms",
                 "train.iter_ms.p90": "ms"},
    "infer_r4": {f"infer.img_per_s.s{s}": "img/s" for s in range(1, 5)},
    "denoise_b1": {"denoise.img_ms.p50": "ms", "denoise.img_ms.p90": "ms"},
}
DOCUMENTED_ALL = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1"}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        failures.append(what)


def check_benchmark_json(bench: dict) -> None:
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(bench["run_seconds"], int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(bench["workloads"]) <= 8
          and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                  and "\n" not in w["why"] for w in bench["workloads"]),
          "workloads: 2..8 entries of name and one-line why")
    names = [w["name"] for w in bench["workloads"]]
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in bench[kind]:
            names.append(m["name"])
            check(set(m) == keys and UNIT_RE.match(m["unit"]) is not None
                  and m["better"] in ("higher", "lower")
                  and (kind == "per_layer" or 0 < m["bound"] <= 0.25),
                  f"{kind} metric {m['name']} is well formed")
    check(all(NAME_RE.match(n) for n in names) and len(names) == len(set(names)),
          "names are valid and used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s present with the largest bound")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    what = f"{workload} trace={trace}"
    proc = run(workload, seed, trace)
    check(proc.returncode == 0, f"{what}: exit code 0")
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        return {}
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys")
    check(result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1 and detail["failed_frac"] == 0,
          f"{what}: correct, failed_frac = 0 ({result['attempted']} attempted)")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    check(emitted == declared, f"{what}: every declared metric with its unit")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in result["metrics"].values()), f"{what}: finite values")
    want = {**DOCUMENTED[workload], **DOCUMENTED_ALL}
    got = {k: v[1] for k, v in detail["documented"].items()}
    check(got == want, f"{what}: documented metrics with units")
    return detail


def check_missing_sources() -> None:
    """The benchmark alone, without rcnet, must fail without a result."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("denoise_b1", 1, 0, cwd=bare)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without rcnet sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_benchmark_json(bench)
    check_missing_sources()
    details = {(workload, trace): check_run(bench, workload, 1, trace)
               for workload in DOCUMENTED for trace in (0, 1)}
    first = details[("train_r2", 1)].get("tape_nodes_per_step", {})
    second = check_run(bench, "train_r2", 2, 1).get("tape_nodes_per_step", {})
    common = set(first) & set(second)
    check(bool(common) and all(first[s] == second[s] and len(first[s]) == 1
                               for s in common),
          f"tape nodes per step repeat across runs: {first} vs {second}")
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
