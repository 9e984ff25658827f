"""Run one workload and turn its timings, spans and checks into metrics.

End-to-end metrics come from an untraced run. With ``trace`` set, the run
is split in two halves of equal length: an untraced half, then a traced
half that yields the per-layer metrics; the tracing overhead is the
difference between the two halves' throughput.

Throughput at a step is the work done at that step over the time spent on
it (the mean operation time): on a shared machine whose speed changes in
episodes, it moves less from run to run than the median does. Figures for
the whole workload combine the per-step values with the workload's
nominal step mix (the configured step probabilities for training, equal
weights for the inference workloads), so that they do not move with the
step sequence a seed happens to draw.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import fingerprint
from rcnet import networks
from tracer import FUNCTIONAL_GROUPS, Tracer
from workloads import WORKLOADS, Check, Op

SETUP_REPS = 3
E2E_STEPS = (2, 3, 4)   # the steps every workload runs


def _mix(per_step: dict, n_ops: Counter, weights: dict) -> float:
    """Per-operation value at the nominal step mix, from per-step totals."""
    present = [s for s in weights if n_ops.get(s)]
    if not present:
        return 0.0
    total_w = sum(weights[s] for s in present)
    return sum(weights[s] * per_step.get(s, 0) / n_ops[s]
               for s in present) / total_w


def _step_totals(ops: list[Op]) -> tuple[dict[int, float], Counter]:
    """Seconds and number of the successful operations at each step."""
    total, n = defaultdict(float), Counter()
    for o in ops:
        if o.ok:
            total[o.step] += o.seconds
            n[o.step] += 1
    return total, n


def end_to_end(wl, ops: list[Op]) -> dict[str, float]:
    """Images per second at the nominal mix and at each step in E2E_STEPS."""
    total, n = _step_totals(ops)
    out = {}
    if n:
        out["img_per_s"] = wl.batch / _mix(total, n, wl.weights)
    out.update({f"img_per_s.s{s}": wl.batch * n[s] / total[s]
                for s in E2E_STEPS if n[s]})
    return out


def _step_median_ms(ops: list[Op]) -> dict[int, float]:
    times = defaultdict(list)
    for o in ops:
        if o.ok:
            times[o.step].append(1e3 * o.seconds)
    return {s: statistics.median(t) for s, t in sorted(times.items())}


def _pooled_ms(ops: list[Op]) -> dict:
    ms = [1e3 * o.seconds for o in ops if o.ok]
    if not ms:
        return {"p50": 0.0, "p90": 0.0, "n": 0}
    p50, p90 = np.percentile(ms, [50, 90])
    return {"p50": float(p50), "p90": float(p90), "n": len(ms)}


def documented_metrics(wl, ops: list[Op]) -> dict:
    """The workload's figures under the names the benchmark documents."""
    pooled = _pooled_ms(ops)
    if wl.name == "train_r2":
        return {"train.img_per_s": (end_to_end(wl, ops).get("img_per_s", 0.0),
                                    "img/s"),
                "train.iter_ms.p50": (pooled["p50"], "ms", pooled["n"]),
                "train.iter_ms.p90": (pooled["p90"], "ms", pooled["n"])}
    if wl.name == "infer_r4":
        total, n = _step_totals(ops)
        return {f"infer.img_per_s.s{s}": (
            wl.batch * n[s] / total[s] if n[s] else 0.0, "img/s")
            for s in wl.steps}
    return {"denoise.img_ms.p50": (pooled["p50"], "ms", pooled["n"]),
            "denoise.img_ms.p90": (pooled["p90"], "ms", pooled["n"])}


def layer_metrics(tracer: Tracer, wl, ops: list[Op]) -> dict[str, float]:
    """Per-layer metrics of the traced half: busy ms and exact counts per
    workload operation at the nominal step mix."""
    table = tracer.layer_table()
    n_ops = Counter(o.step for o in ops)

    def per_op(names, field=1, scale=1e3):
        per_step = defaultdict(float)
        for (name, s), row in table.items():
            if name in names:
                per_step[s] += row[field]
        return _mix(per_step, n_ops, wl.weights) * scale

    def counted(key, scale=1.0):
        per_step = {s: v for (k, s), v in tracer.counts.items() if k == key}
        return _mix(per_step, n_ops, wl.weights) * scale

    m: dict[str, float] = {}
    groups = defaultdict(set)
    for op, group in FUNCTIONAL_GROUPS.items():
        groups[group].add(f"functional.{op}")
    for group, names in groups.items():
        fwd = per_op(names)
        bwd = per_op({n + ".bwd" for n in names})
        m[f"functional.{group}.fwd_ms"] = fwd
        m[f"functional.{group}.bwd_ms"] = bwd
        if group in ("conv2d", "batchnorm2d"):
            m[f"functional.{group}.calls"] = per_op(names, field=0, scale=1)
        if group == "conv2d":
            m["functional.conv2d.gmac"] = counted("conv.macs", 1e-9)
            m["functional.conv2d.col_mb"] = counted("conv.col_bytes", 1e-6)
            busy_s = (fwd + bwd) / 1e3
            m["functional.conv2d.gflop_per_s"] = (
                counted("conv.flops", 1e-9) / busy_s if busy_s else 0.0)

    m["autodiff.backward.ms"] = per_op({"autodiff.backward"})
    m["autodiff.backward.self_ms"] = per_op({"autodiff.backward"}, field=2)
    m["autodiff.tape.nodes"] = _mix({s: sum(v) for s, v in tracer.tape_nodes.items()},
                                    n_ops, wl.weights)
    m["autodiff.tape.peak_mb"] = (
        _mix(wl.tape_peak_mb(), Counter(dict.fromkeys(wl.steps, 1)), wl.weights)
        if wl.trains else 0.0)

    m["rc.unroll.calls"] = per_op({"rc.unroll"}, field=0, scale=1)
    m["rc.unroll.ms"] = per_op({"rc.unroll"})
    m["layers.run_cell_body.calls"] = per_op({"layers.run_cell_body"},
                                             field=0, scale=1)
    m["layers.run_cell_body.ms"] = per_op({"layers.run_cell_body"})
    for s in range(1, 5):
        touched = tracer.bn_groups.get(s)
        m[f"rc.bn_groups_touched.s{s}"] = touched[0] if touched else 0
        row = table.get(("networks.forward", s))
        m[f"networks.forward.ms.s{s}"] = 1e3 * row[1] / row[0] if row else 0.0
    m["networks.forward.self_ms"] = per_op({"networks.forward"}, field=2)

    m["optim.sgd_step.ms"] = per_op({"optim.sgd_step"})
    m["optim.clip_grad_norm.ms"] = per_op({"optim.clip_grad_norm"})
    m["optim.global_grad_norm.ms"] = per_op({"optim.global_grad_norm"})

    m["training.iteration.ms"] = (1e3 * _mix(*_step_totals(ops), wl.weights)
                                  if wl.trains else 0.0)
    m["training.infer.ms"] = per_op({"training.infer"})

    n_builds = sum(1 for s in tracer.spans if s[0] == "config.build_datasets")
    m["data.generate.ms"] = tracer.total_span_ms("data.generate") / max(n_builds, 1)
    m["data.read_pgm.ms"] = per_op({"data.read_pgm"})
    m["data.write_pgm.ms"] = per_op({"data.write_pgm"})
    m["checkpoint.save.ms"] = tracer.mean_span_ms("checkpoint.save")
    m["checkpoint.load.ms"] = tracer.mean_span_ms("checkpoint.load")
    m["checkpoint.bytes"] = wl.checkpoint_bytes
    m["config.parse.ms"] = tracer.mean_span_ms("config.parse")
    m["config.build_datasets.ms"] = tracer.mean_span_ms("config.build_datasets")
    return m


def cross_checks(tracer: Tracer, wl, ops: list[Op]) -> list[Check]:
    """Exact counts from the traced half against their closed forms."""
    flops = networks.cost_report(wl.spec).flops_per_step
    n_ops = Counter(o.step for o in ops)
    result = []
    for s in sorted(n_ops):
        traced = (tracer.counts.get(("conv.macs", s), 0)
                  + tracer.counts.get(("linear.macs", s), 0))
        expected = flops[s] * wl.batch * n_ops[s]
        result.append(Check(f"macs.s{s}", traced == expected,
                            {"traced": traced, "cost_report": expected}))
        touched = sorted(set(tracer.bn_groups.get(s, [])))
        result.append(Check(f"bn_groups_touched.s{s}",
                            touched == [wl.bn_groups(s)],
                            {"traced": touched, "closed_form": wl.bn_groups(s)}))
        if wl.trains:
            nodes = sorted(set(tracer.tape_nodes.get(s, [])))
            result.append(Check(f"tape_nodes.s{s}", len(nodes) == 1,
                                {"per_iteration": nodes}))
    return result


def _count_failures(ops: list[Op], checks: list[Check]) -> tuple[int, int]:
    """(attempted, failed): workload operations plus run-level checks. An
    operation fails if it raised, gave a non-finite output or failed a
    check on its output."""
    failed_ops = {i for i, o in enumerate(ops) if not o.ok}
    failed_ops |= {c.op for c in checks if c.op is not None and not c.ok}
    run_checks = [c for c in checks if c.op is None]
    attempted = len(ops) + len(run_checks)
    failed = len(failed_ops) + sum(not c.ok for c in run_checks)
    return attempted, failed


def _check_summary(checks: list[Check]) -> dict:
    summary: dict[str, dict] = {}
    for c in checks:
        entry = summary.setdefault(c.name, {"n": 0, "failed": 0})
        entry["n"] += 1
        entry["failed"] += not c.ok
        if entry["n"] == 1:
            entry["value"] = c.value
    return summary


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
        root: Path) -> tuple[dict, dict]:
    """Run one workload. Returns (metrics, detail); ``detail`` holds the
    counts, checks and environment behind the metrics."""
    wl = WORKLOADS[name]()
    import_s = time.perf_counter() - t_start
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        setup_reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(work, seed)
            setup_reps.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
            untraced = wl.run(seconds / 2)
            tracer.phase = "timed"
            tracer.install()
            timed = wl.run(seconds / 2, tracer)
            tracer.phase = "check"
        else:
            untraced, timed = [], wl.run(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            checks = wl.checks()
        except Exception as e:  # a check that raises fails the run
            wl.errors.append(repr(e))
            checks = [Check("checks_raised", False, repr(e))]
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = untraced + timed
    plain_ops = untraced if trace else timed
    setup_s = import_s + statistics.median(setup_reps)
    env = fingerprint.collect(root)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup": {"import_s": import_s, "reps_s": setup_reps},
        "ops_per_step": dict(sorted(Counter(o.step for o in ops).items())),
        "op_ms": _pooled_ms(ops),
        "step_median_ms": _step_median_ms(ops),
        "errors": wl.errors,
        "env": env,
    }
    if tracer:
        checks += cross_checks(tracer, wl, timed)
        metrics = layer_metrics(tracer, wl, timed)
        plain, traced = end_to_end(wl, untraced), end_to_end(wl, timed)
        metrics["trace.overhead_pct"] = (
            100.0 * (plain["img_per_s"] / traced["img_per_s"] - 1.0)
            if plain.get("img_per_s") and traced.get("img_per_s") else 0.0)
        metrics["env.gemm_gflop_per_s"] = env["gemm_gflop_per_s"]
        detail["tape_nodes_per_step"] = {
            s: sorted(set(v)) for s, v in sorted(tracer.tape_nodes.items())}
        spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans"] = str(spans_path.relative_to(root))
    else:
        metrics = end_to_end(wl, timed)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb
    attempted, failed = _count_failures(ops, checks)
    detail["checks"] = _check_summary(checks)
    detail["attempted"], detail["failed"] = attempted, failed
    detail["failed_frac"] = failed / attempted
    detail["documented"] = {
        **documented_metrics(wl, plain_ops),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (failed / attempted, "1"),
    }
    return metrics, detail
