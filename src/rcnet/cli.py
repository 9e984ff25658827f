"""Command-line interface.

Commands: train, eval, infer, cost, expand-check, export-bn,
export-features. Exit codes: 0 success, 2 config error, 3 data error,
4 checkpoint error, 5 numerical-check failure.

RCNET_THREADS caps kernel-internal (BLAS) parallelism; it must take
effect before numpy is imported, so this module defers all heavy imports
into the command handlers.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                   "NUMEXPR_NUM_THREADS")


def _cap_threads(value: str) -> None:
    for var in THREAD_ENV_VARS:
        os.environ.setdefault(var, value)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rcnet",
        description="Recurrent-convolution networks with banked batch norm")
    p.add_argument("--deterministic", action="store_true",
                   help="cap kernel-internal parallelism to 1 thread")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a network from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--out-dir", default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--resume", default=None,
                   help="checkpoint to continue from (epoch granularity)")

    e = sub.add_parser("eval", help="evaluate a checkpoint on the config's test data")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--step", type=int, required=True)
    e.add_argument("--out-dir", default=".")

    i = sub.add_parser("infer", help="run one input file through a checkpoint")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--input", required=True)
    i.add_argument("--step", type=int, required=True)
    i.add_argument("--output", required=True)

    c = sub.add_parser("cost", help="parameter/depth/FLOP report for a config")
    c.add_argument("--config", required=True)
    c.add_argument("--out-dir", default=".")

    x = sub.add_parser("expand-check",
                       help="compare a checkpoint against its untied expansion")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--step", type=int, required=True)
    x.add_argument("--inputs", type=int, default=16)
    x.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("export-bn", help="dump every BN group to CSV")
    b.add_argument("--checkpoint", required=True)
    b.add_argument("--out", default="bn_export.csv")

    f = sub.add_parser("export-features",
                       help="dump a cell's per-step activations for one image")
    f.add_argument("--checkpoint", required=True)
    f.add_argument("--input", required=True)
    f.add_argument("--cell", required=True)
    f.add_argument("--step", type=int, required=True)
    f.add_argument("--out-dir", default=".")
    return p


def main(argv=None) -> int:
    env_threads = os.environ.get("RCNET_THREADS")
    if env_threads:
        _cap_threads(env_threads)
    args = _build_parser().parse_args(argv)
    if args.deterministic:
        _cap_threads("1")

    from .errors import (CheckpointError, ConfigError, DataError,
                         NumericalCheckError)
    handlers = {
        "train": cmd_train, "eval": cmd_eval, "infer": cmd_infer,
        "cost": cmd_cost, "expand-check": cmd_expand_check,
        "export-bn": cmd_export_bn, "export-features": cmd_export_features,
    }
    try:
        handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 4
    except NumericalCheckError as e:
        print(f"numerical check failed: {e}", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------
# handlers

def _load_config(path, seed=None, out_dir=None):
    from .config import parse_config
    cfg = parse_config(path)
    if seed is not None:
        cfg.train.seed = seed
    if out_dir is not None:
        cfg.output.dir = str(out_dir)
    return cfg


def cmd_train(args) -> None:
    from .checkpoint import restore_into, save_checkpoint
    from .config import build_datasets
    from .networks import build_network
    from .training import RngStreams, run_training

    cfg = _load_config(args.config, args.seed, args.out_dir)
    out_dir = Path(cfg.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved.ini").write_text(cfg.resolved_text())

    network = build_network(cfg.network,
                            rng=RngStreams(cfg.train.seed).init)
    train_set, test_set = build_datasets(cfg)
    # dataset sizes are taken as given (file lists are not second-guessed)
    print(f"data: train={len(train_set)} test={len(test_set)}")

    resume_state = None
    if args.resume:
        resume_state = restore_into(network, args.resume)
        if resume_state["rng"] is None:
            from .errors import CheckpointError
            raise CheckpointError(
                f"{args.resume}: no trainer state; cannot resume")

    log = run_training(network, train_set, test_set, cfg.train, cfg.regime,
                       resume_state=resume_state)

    log.write_metrics_csv(out_dir / "metrics.csv")
    log.write_eval_csv(out_dir / "eval.csv")

    last_iter = (log.iterations[-1].iteration if log.iterations
                 else (resume_state or {}).get("iteration", 0))
    trainer_state = {
        "iteration": last_iter,
        "epoch": cfg.train.epochs,
        "rng": log.final_rng_state,
    }
    save_checkpoint(out_dir / "last.ckpt", network, trainer_state)
    if cfg.output.save_best:
        # one checkpoint per run at desk scale: best == final weights,
        # kept under a stable name for downstream tooling
        save_checkpoint(out_dir / "best.ckpt", network, trainer_state)

    if log.epochs:
        last = log.epochs[-1]
        for s in sorted(last.metrics):
            print(f"metric={log.metric_name} step={s} "
                  f"value={last.metrics[s]:.6f}")
    print(f"wrote {out_dir}")


def _load_network(path, step: int):
    """Load a checkpoint and check that it can run unified step ``step``."""
    from .checkpoint import load_checkpoint
    from .errors import ConfigError

    network, _ = load_checkpoint(path)
    if not 1 <= step <= network.max_step:
        raise ConfigError(f"step {step} outside [1, {network.max_step}]")
    support = network.trained_support
    if support is not None and step not in support:
        raise ConfigError(
            f"step {step} outside the trained support {sorted(support)}")
    return network


def _load_input(path, spec):
    """Read a .pgm image or a [C,H,W]/[N,C,H,W] .rct tensor as a batch
    the network of ``spec`` can run."""
    from .data import read_pgm, read_rct
    from .errors import DataError

    in_path = Path(path)
    if in_path.suffix == ".pgm":
        x = read_pgm(in_path)[None, None, :, :]
    elif in_path.suffix == ".rct":
        x = read_rct(in_path)
        if x.ndim == 3:
            x = x[None]
    else:
        raise DataError(f"{in_path}: expected a .pgm or .rct input")
    if x.ndim != 4:
        raise DataError(f"{in_path}: expected [C,H,W] or [N,C,H,W] tensor, "
                        f"got shape {x.shape}")
    _, c, h, w = x.shape
    if c != spec.image_shape[0]:
        raise DataError(f"{in_path}: {c} channels, the network expects "
                        f"{spec.image_shape[0]}")
    if h % spec.size_multiple or w % spec.size_multiple:
        raise DataError(f"{in_path}: {h}x{w} image, arch '{spec.arch}' "
                        f"needs multiples of {spec.size_multiple}")
    return x


def cmd_eval(args) -> None:
    from .config import build_datasets
    from .errors import ConfigError
    from .training import TASKS

    network = _load_network(args.checkpoint, args.step)
    cfg = _load_config(args.config)
    if cfg.network.task != network.spec.task:
        raise ConfigError(f"{args.config} is a {cfg.network.task} config, "
                          f"the checkpoint a {network.spec.task} network")
    task = TASKS[network.spec.task]
    _, test_set = build_datasets(cfg)
    value = task.evaluate(network, test_set, args.step)
    print(f"metric={task.metric} step={args.step} value={value:.6f}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "eval.csv"
    new = not csv_path.exists()
    with open(csv_path, "a") as f:
        if new:
            f.write("metric,step,value\n")
        f.write(f"{task.metric},{args.step},{value!r}\n")


def cmd_infer(args) -> None:
    import numpy as np

    from .data import write_pgm, write_rct
    from .networks import step_cost
    from .training import infer

    network = _load_network(args.checkpoint, args.step)
    x = _load_input(args.input, network.spec)
    out = infer(network, x, args.step)
    flops, _, _ = step_cost(network, args.step)
    if network.spec.task == "classify":
        label = int(out.argmax(axis=1)[0])
        write_rct(args.output, out)
        print(f"infer step={args.step} flops={flops} label={label} "
              f"output={args.output}")
    else:
        if Path(args.input).suffix == ".pgm":
            write_pgm(args.output, np.clip(out[0, 0], 0, 255))
        else:
            write_rct(args.output, out)
        print(f"infer step={args.step} flops={flops} output={args.output}")


def cmd_cost(args) -> None:
    from .config import parse_config
    from .networks import cost_report

    cfg = parse_config(args.config)
    spec = cfg.network
    rep = cost_report(spec)
    steps = sorted(rep.flops_per_step)
    print(f"arch={spec.arch} bn_mode={spec.bn_mode} max_step={spec.max_step}")
    print(f"conv_params  {rep.conv_params}")
    print(f"bn_params    {rep.bn_params}")
    print(f"other_params {rep.other_params}")
    print(f"total_params {rep.total_params}")
    print(f"depth        {rep.unrolled_depth}")
    for s in steps:
        print(f"flops@{s}      {rep.flops_per_step[s]}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ["mode", "max_step", "conv_params", "bn_params", "total",
              "depth"] + [f"flops@{s}" for s in steps]
    row = [spec.bn_mode, str(spec.max_step), str(rep.conv_params),
           str(rep.bn_params), str(rep.total_params),
           str(rep.unrolled_depth)] + \
          [str(rep.flops_per_step[s]) for s in steps]
    with open(out_dir / "cost.csv", "w") as f:
        f.write(",".join(header) + "\n")
        f.write(",".join(row) + "\n")


def cmd_expand_check(args) -> None:
    import numpy as np

    from .errors import ConfigError, NumericalCheckError
    from .networks import expand_to_standard

    network = _load_network(args.checkpoint, args.step)
    try:
        expanded = expand_to_standard(network, args.step)
    except ValueError as e:  # a shared or BN-free network has no expansion
        raise ConfigError(str(e)) from e
    c, h, w = network.spec.image_shape
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.inputs, c, h, w)).astype(network.spec.dtype)
    if network.spec.task == "denoise":
        x = (x * 25.0 + 128.0).astype(network.spec.dtype)
    a = network.forward(x, args.step, training=False, update_stats=False).data
    b = expanded.forward(x, training=False).data
    dev = float(np.max(np.abs(a - b)))
    threshold = 1e-5 if network.spec.precision == "float32" else 1e-10
    status = "pass" if dev < threshold else "FAIL"
    print(f"expand-check step={args.step} max_abs_dev={dev:.3e} "
          f"threshold={threshold:.0e} {status}")
    if dev >= threshold:
        raise NumericalCheckError(
            f"expansion deviates by {dev:.3e} >= {threshold:.0e} at step "
            f"{args.step}")


def cmd_export_bn(args) -> None:
    from .checkpoint import load_checkpoint
    from .networks import bn_table

    network, _ = load_checkpoint(args.checkpoint)
    rows = bn_table(network)
    with open(args.out, "w") as f:
        f.write("module,step,index,slot,channel,gamma,beta,"
                "running_mean,running_var\n")
        for r in rows:
            f.write(",".join(map(str, r)) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_export_features(args) -> None:
    from .data import write_rct
    from .errors import ConfigError

    network = _load_network(args.checkpoint, args.step)
    if args.cell not in network.cells():
        raise ConfigError(
            f"no recurrent cell named '{args.cell}'; cells: "
            f"{sorted(network.cells())}")
    x = _load_input(args.input, network.spec)

    collected: list = []
    network.forward(x, args.step, training=False, update_stats=False,
                    collect_cell=args.cell, collect=collected)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, tensor in enumerate(collected, start=1):
        path = out_dir / f"features_{args.cell}_step{t}.rct"
        write_rct(path, tensor.data)
        print(f"wrote {path}")
