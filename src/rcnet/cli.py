"""Command-line interface.

Commands: train, eval, infer, cost, expand-check, export-bn,
export-features. Exit code 0 on success; an ``errors.RcnetError`` is
printed under its class's ``label`` and exits with its ``exit_code``.
``import rcnet`` has applied ``RCNET_THREADS`` before this module loads
numpy.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import build_datasets, parse_config
from .data import read_pgm, read_rct, write_pgm, write_rct
from .errors import (CheckpointError, ConfigError, DataError,
                     NumericalCheckError, RcnetError)
from .networks import (bn_table, build_network, cost_report,
                       expand_to_standard, step_cost)
from .training import (TASKS, RngStreams, check_batches, eval_slice_size,
                       infer, run_training)

# the first line of the eval command's eval.csv
EVAL_HEADER = "metric,step,value\n"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rcnet",
        description="Recurrent-convolution networks with banked batch norm")
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
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": cmd_train, "eval": cmd_eval, "infer": cmd_infer,
        "cost": cmd_cost, "expand-check": cmd_expand_check,
        "export-bn": cmd_export_bn, "export-features": cmd_export_features,
    }
    try:
        handlers[args.command](args)
    except OSError as e:
        # every reader maps its own OSError, so this one is a failed write
        error: RcnetError = ConfigError(f"cannot write output: {e}")
    except RcnetError as e:
        error = e
    else:
        return 0
    print(f"{error.label}: {error}", file=sys.stderr)
    return error.exit_code


# ---------------------------------------------------------------------------
# handlers

def cmd_train(args) -> None:
    """Train; a run refused before its first iteration writes nothing."""
    cfg = parse_config(args.config, seed=args.seed, out_dir=args.out_dir)
    resume_state = None
    if args.resume:
        network, resume_state = load_checkpoint(args.resume)
        if network.spec != cfg.network:
            raise CheckpointError(
                f"{args.resume}: checkpoint was written for a different "
                f"network spec ({asdict(network.spec)} != "
                f"{asdict(cfg.network)})")
        if resume_state["rng"] is None:
            raise CheckpointError(
                f"{args.resume}: no trainer state; cannot resume")
        if resume_state["optimizer"] != cfg.train.optimizer:
            raise CheckpointError(
                f"{args.resume}: checkpoint was trained with optimizer "
                f"'{resume_state['optimizer']}', the config sets "
                f"'{cfg.train.optimizer}'")
        if resume_state["epoch"] >= cfg.train.epochs:
            raise ConfigError(
                f"{args.config}: epochs = {cfg.train.epochs}, but "
                f"{args.resume} is already at epoch {resume_state['epoch']}; "
                f"nothing left to train")
    else:
        network = build_network(cfg.network,
                                rng=RngStreams(cfg.train.seed).init)
    train_set, test_set = build_datasets(cfg)
    try:
        check_batches(cfg.network, train_set, cfg.train.batch_size)
    except ConfigError as e:
        raise ConfigError(f"{args.config}: {e}") from e
    # dataset sizes are taken as given (file lists are not second-guessed)
    print(f"data: train={len(train_set)} test={len(test_set)}")

    out_dir = Path(cfg.output.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved.ini").write_text(cfg.resolved_text())
    log = run_training(network, train_set, test_set, cfg.train, cfg.regime,
                       resume_state=resume_state)

    log.write_metrics_csv(out_dir / "metrics.csv")
    log.write_eval_csv(out_dir / "eval.csv")
    trainer_state = {
        "iteration": log.iterations[-1].iteration,
        "epoch": cfg.train.epochs,
        "rng": log.final_rng_state,
        "optimizer": cfg.train.optimizer,
        "updates": log.final_updates,
    }
    save_checkpoint(out_dir / "last.ckpt", network, trainer_state)

    if log.epochs:
        last = log.epochs[-1]
        for s in sorted(last.metrics):
            print(f"metric={log.metric_name} step={s} "
                  f"value={last.metrics[s]:.6f}")
    print(f"wrote {out_dir}")


def _load_network(path, step: int):
    """Load a checkpoint and check that it can run unified step ``step``."""
    network, _ = load_checkpoint(path)
    network.check_serving_step(step)
    return network


def _load_input(path, spec):
    """Read a .pgm image or a [C,H,W]/[N,C,H,W] .rct tensor as a batch
    the network of ``spec`` can run."""
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
    if 0 in x.shape:
        raise DataError(f"{in_path}: empty input of shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataError(f"{in_path}: input holds non-finite values")
    _, c, h, w = x.shape
    if c != spec.image_shape[0]:
        raise DataError(f"{in_path}: {c} channels, the network expects "
                        f"{spec.image_shape[0]}")
    if h % spec.size_multiple or w % spec.size_multiple:
        raise DataError(f"{in_path}: {h}x{w} image, arch '{spec.arch}' "
                        f"needs multiples of {spec.size_multiple}")
    return x


def cmd_eval(args) -> None:
    network = _load_network(args.checkpoint, args.step)
    cfg = parse_config(args.config)
    spec, asked = network.spec, cfg.network
    if asked.task != spec.task:
        raise ConfigError(f"{args.config} is a {asked.task} config, "
                          f"the checkpoint a {spec.task} network")
    for what, want, have in (
            ("image_channels", asked.image_shape[0], spec.image_shape[0]),
            ("num_classes", asked.num_classes, spec.num_classes)):
        if want != have:
            raise ConfigError(f"{args.config} sets {what} = {want}, the "
                              f"checkpoint's network has {have}")
    out_dir = Path(args.out_dir)
    csv_path = out_dir / "eval.csv"
    new = not csv_path.exists()
    if not new:
        with open(csv_path, "rb") as f:
            if f.readline() != EVAL_HEADER.encode():
                raise ConfigError(
                    f"{csv_path}: first line is not "
                    f"'{EVAL_HEADER.strip()}'; not appending to it")
    task = TASKS[spec.task]
    _, test_set = build_datasets(cfg)
    value = task.evaluate(network, test_set, args.step)
    print(f"metric={task.metric} step={args.step} value={value:.6f}")

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "a") as f:
        if new:
            f.write(EVAL_HEADER)
        f.write(f"{task.metric},{args.step},{value!r}\n")


def cmd_infer(args) -> None:
    network = _load_network(args.checkpoint, args.step)
    x = _load_input(args.input, network.spec)
    # a denoiser's PGM input gives a PGM, any other input a .rct tensor
    pgm_out = (network.spec.task == "denoise"
               and Path(args.input).suffix == ".pgm")
    writes = ".pgm" if pgm_out else ".rct"
    suffix = Path(args.output).suffix
    if suffix != writes:
        raise ConfigError(
            f"--output {args.output}: this input gives a {writes} output, "
            f"not {suffix or 'a suffix-less name'}")
    out = infer(network, x, args.step)
    flops, _, _ = step_cost(network, args.step)
    if pgm_out:
        write_pgm(args.output, np.clip(out[0, 0], 0, 255))
    else:
        write_rct(args.output, out)
    label = ""
    if network.spec.task == "classify":
        label = f" label={int(out.argmax(axis=1)[0])}"
    print(f"infer step={args.step} flops={flops}{label} "
          f"output={args.output}")


def cmd_cost(args) -> None:
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
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.inputs < 1:
        raise ConfigError(f"--inputs must be >= 1, got {args.inputs}")
    network = _load_network(args.checkpoint, args.step)
    expanded = expand_to_standard(network, args.step)
    c, h, w = network.spec.image_shape
    dtype = network.spec.dtype
    rng = np.random.default_rng(args.seed)
    # one eval slice of inputs at a time; PCG64 draws the values of one
    # whole-batch call in chunks too
    size = eval_slice_size(network.spec, h, w)
    dev = 0.0
    for lo in range(0, args.inputs, size):
        x = rng.standard_normal(
            (min(size, args.inputs - lo), c, h, w)).astype(dtype)
        if network.spec.task == "denoise":
            x = (x * 25.0 + 128.0).astype(dtype)
        a, b = infer(network, x, args.step), infer(expanded, x, args.step)
        # np.maximum keeps a NaN deviation, which must fail the check
        dev = float(np.maximum(dev, np.max(np.abs(a - b))))
    threshold = 1e-5 if network.spec.precision == "float32" else 1e-10
    status = "pass" if dev < threshold else "FAIL"
    print(f"expand-check step={args.step} max_abs_dev={dev:.3e} "
          f"threshold={threshold:.0e} {status}")
    if dev >= threshold:
        raise NumericalCheckError(
            f"expansion deviates by {dev:.3e} >= {threshold:.0e} at step "
            f"{args.step}")


def cmd_export_bn(args) -> None:
    network, _ = load_checkpoint(args.checkpoint)
    rows = bn_table(network)
    with open(args.out, "w") as f:
        f.write("module,step,index,slot,channel,gamma,beta,"
                "running_mean,running_var\n")
        for r in rows:
            f.write(",".join(map(str, r)) + "\n")
    print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_export_features(args) -> None:
    network = _load_network(args.checkpoint, args.step)
    if args.cell not in network.cells():
        raise ConfigError(
            f"no recurrent cell named '{args.cell}'; cells: "
            f"{sorted(network.cells())}")
    x = _load_input(args.input, network.spec)

    collected: list = []
    network.forward(x, args.step, training=False, collect_cell=args.cell,
                    collect=collected)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, tensor in enumerate(collected, start=1):
        path = out_dir / f"features_{args.cell}_step{t}.rct"
        write_rct(path, tensor.data)
        print(f"wrote {path}")
