"""Run perfbench in alternating parent/change pairs and record the result.

    python3 change/scripts/bench_pairs.py --parent parent --change change \\
        --workload train_r2 --pairs 10 --first-seed 101 --out BENCH_18.json

``--parent`` and ``--change`` are the roots of two rcnet source trees,
best sibling directories with names of equal length: ``peak_rss_mb``
moves with the length of the directory name alone, so the script exits 2
before running anything when the two resolved paths differ in length.
Pair i runs ``perfbench/run.py --workload W --seed first_seed+i --trace 0``
in both trees for the benchmark's ``run_seconds``, the parent first in
even pairs and the change first in odd ones, and keeps the last JSON line
of each run. The output file holds, per workload, every pair, each side's
median and quartiles of every end-to-end metric, the number of pairs the
change won on it, the relative change of the medians and whether that
change is within the metric's bound, plus the parent's environment
fingerprint. Which way is better and the bound of each metric are read
from the change tree's BENCHMARK.json. Running it again with another
workload adds that workload to an existing file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int):
    """One untraced perfbench run in ``tree``: (result line, detail line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(pairs, benchmark):
    """Per metric: each side's median and quartiles, the change's wins, and
    the relative change of the medians against the metric's ``bound`` in
    ``benchmark`` (a parsed BENCHMARK.json)."""
    rules = {m["name"]: m for m in benchmark["end_to_end"]}
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        better, bound = rules[name]["better"], rules[name]["bound"]
        # sign * (c - p) > 0: the change's value c is the better one
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"better": better, "bound": bound,
                     "change_wins": wins, "pairs": len(pairs)}
        for side, values in sides.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            out[name][side] = {"median": statistics.median(values),
                               "q1": q1, "q3": q3}
        rel = out[name]["change"]["median"] / out[name]["parent"]["median"] - 1
        out[name].update(rel_change=rel, within_bound=sign * rel >= -bound)
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
    if len(str(trees["parent"])) != len(str(trees["change"])):
        p.error("--parent and --change resolve to paths of different lengths "
                f"({trees['parent']}, {trees['change']}); peak_rss_mb moves "
                "with the directory name, so use names of equal length")
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
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

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.setdefault("workloads", {})[args.workload] = {
        "seconds": benchmark["run_seconds"], "pairs": pairs,
        "summary": summarize(pairs, benchmark)}
    record["fingerprint"] = fingerprint
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
