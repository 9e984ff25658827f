"""Run perfbench in alternating parent/change pairs and record the result.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload train_r2 --pairs 10 --first-seed 101 --out BENCH_18.json

``--parent`` and ``--change`` are the roots of two rcnet source trees. Pair
i runs ``perfbench/run.py --workload W --seed first_seed+i --trace 0`` in
both trees for the benchmark's ``run_seconds``, the parent first in even
pairs and the change first in odd ones, and keeps the last JSON line of
each run. The output file holds, per
workload, every pair, each side's median and quartiles of every end-to-end
metric and the number of pairs the change won on it, plus the parent's
environment fingerprint. Running it again with another workload adds that
workload to an existing file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# metrics of perfbench's end-to-end set where a lower value is better
LOWER_IS_BETTER = ("peak_rss_mb", "setup_s")


def run_once(tree: Path, workload: str, seed: int):
    """One untraced perfbench run in ``tree``: (result line, detail line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(pairs):
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        lower = name in LOWER_IS_BETTER
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": "lower" if lower else "higher",
                     "change_wins": wins, "pairs": len(pairs)}
        for side, values in sides.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[name][side] = {"median": statistics.median(values),
                               "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, fingerprint = [], None
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side], detail = run_once(trees[side], args.workload, seed)
            if side == "parent":
                fingerprint = detail["env"]
        pairs.append(pair)
        print(json.dumps({k: pair[k] for k in ("seed", "first")}
                         | {side: {m: v["value"]
                                   for m, v in pair[side]["metrics"].items()}
                            for side in ("parent", "change")}), flush=True)

    seconds = json.loads((trees["change"] / "BENCHMARK.json").read_text())[
        "run_seconds"]
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("workloads", {})[args.workload] = {
        "seconds": seconds, "pairs": pairs, "summary": summarize(pairs)}
    record["fingerprint"] = fingerprint
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
