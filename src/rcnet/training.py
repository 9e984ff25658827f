"""Training (fixed-step, cost-adjustable, aggregated-loss), inference,
and evaluation metrics.

All regimes share one loop, :func:`run_training`. Randomness is split
into independent named streams (init/data/step/noise), so a
cost-adjustable run with a singleton step distribution consumes data and
noise randomness exactly like the fixed-step regime and produces a
bit-identical trajectory. What a task (classify or denoise) trains on,
minimizes and reports is its entry in :data:`TASKS`; the loop and the
evaluators do not branch on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import functional as F
from .autodiff import Tape, Tensor, backward
from .data import DenoiseEvalSet, LabeledDataset, psnr
from .errors import ConfigError, NumericalCheckError
from .networks import DENOISE_SCALE, Network, NetworkSpec
from .optim import OPTIMIZERS, SGD, Adam, clip_grad_norm, global_grad_norm
from .rc import StepDistribution


class RngStreams:
    """Independent deterministic RNG streams per concern."""

    NAMES = ("init", "data", "step", "noise")

    def __init__(self, seed: int):
        children = np.random.SeedSequence(seed).spawn(len(self.NAMES))
        for name, child in zip(self.NAMES, children):
            setattr(self, name, np.random.Generator(np.random.PCG64(child)))

    def state(self) -> dict:
        return {name: getattr(self, name).bit_generator.state
                for name in self.NAMES}

    def set_state(self, state: dict) -> None:
        for name in self.NAMES:
            getattr(self, name).bit_generator.state = state[name]


@dataclass
class TrainConfig:
    """The [train] settings: each field is the config key of its name,
    with its annotation's parser (int, float, bool or str) and default.
    ``momentum`` applies to ``optimizer = "sgd"`` only."""

    optimizer: str = "sgd"
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    shared_lr_scale: float = 0.5
    clip_max_norm: float = 5.0
    epochs: int = 2
    batch_size: int = 50
    step_distribution: StepDistribution = field(
        default_factory=lambda: StepDistribution.fixed(1))
    seed: int = 0
    eval_each_epoch: bool = True

    def __post_init__(self):
        # each check is stated so that a NaN fails it
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer '{self.optimizer}' "
                              f"(expected one of {tuple(OPTIMIZERS)})")
        if not self.lr >= 0:
            raise ConfigError(f"lr must be >= 0 (0 = dry run), got {self.lr}")
        if not 0.0 < self.shared_lr_scale <= 1.0:
            raise ConfigError(
                f"shared_lr_scale must be in (0, 1], got {self.shared_lr_scale}")
        if not self.clip_max_norm > 0:
            raise ConfigError(
                f"clip_max_norm must be positive, got {self.clip_max_norm}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class IterationRecord:
    iteration: int
    step: int            # sampled unified step; -1 for aggregated iterations
    loss: float
    grad_norm_pre: float
    grad_norm_post: float


@dataclass
class EpochRecord:
    epoch: int
    metrics: dict[int, float]  # unroll step -> metric


class RunLog:
    """Per-iteration and per-epoch records of one training run."""

    METRICS_HEADER = ("iteration", "step", "loss", "grad_norm_pre",
                      "grad_norm_post")

    def __init__(self, metric_name: str):
        self.metric_name = metric_name
        self.iterations: list[IterationRecord] = []
        self.epochs: list[EpochRecord] = []
        self.final_rng_state: dict | None = None  # for resumable checkpoints
        self.final_updates = 0  # optimizer updates, a resumed run's included

    def write_metrics_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(",".join(self.METRICS_HEADER) + "\n")
            for r in self.iterations:
                f.write(f"{r.iteration},{r.step},{r.loss!r},"
                        f"{r.grad_norm_pre!r},{r.grad_norm_post!r}\n")

    def write_eval_csv(self, path) -> None:
        steps = sorted({s for rec in self.epochs for s in rec.metrics})
        header = ["epoch"] + [f"{self.metric_name}@{s}" for s in steps]
        with open(path, "w") as f:
            f.write(",".join(header) + "\n")
            for rec in self.epochs:
                row = [str(rec.epoch)] + [repr(rec.metrics[s]) for s in steps]
                f.write(",".join(row) + "\n")


def _zero_grads(params) -> None:
    """Clear gradients before each backward; the loop owns this, not the
    optimizer, because an ``lr = 0`` dry run builds no optimizer."""
    for p in params:
        p.grad[...] = 0.0


def run_training(network: Network, train_set, test_set, cfg: TrainConfig,
                 regime: str, resume_state: dict | None = None) -> RunLog:
    """Train under ``regime`` (see :data:`REGIMES`), resuming at epoch
    granularity from ``resume_state`` when given. ``aggregated`` forwards
    at every support step and optimizes the probability-weighted loss sum
    in one update; the other two forward at one step drawn per iteration."""
    dist = cfg.step_distribution
    check_regime(regime, network.spec.bn_mode, dist, network.spec.max_step)
    aggregated = regime == "aggregated"
    task = TASKS[network.spec.task]

    rngs = RngStreams(cfg.seed)
    params = network.parameters()
    log = RunLog(task.metric)
    iteration = 0
    start_epoch = 0
    if resume_state is not None:
        rngs.set_state(resume_state["rng"])
        iteration = int(resume_state["iteration"])
        start_epoch = int(resume_state["epoch"])
        log.final_updates = int(resume_state.get("updates", 0))
    opt = None  # lr == 0: dry run, no updates
    if cfg.lr > 0 and cfg.optimizer == "adam":
        opt = Adam(params, cfg.lr, cfg.weight_decay, cfg.shared_lr_scale,
                   updates=log.final_updates)
    elif cfg.lr > 0:
        opt = SGD(params, cfg.lr, cfg.momentum, cfg.weight_decay,
                  cfg.shared_lr_scale)

    for epoch in range(start_epoch, cfg.epochs):
        inputs, targets = train_set.epoch(rngs.data, rngs.noise)
        n = len(inputs)
        order = rngs.data.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            xb = inputs[idx].astype(network.spec.dtype, copy=False)
            target = targets[idx]

            with Tape() as tape:
                if aggregated:
                    step_rec = -1
                    loss = None
                    for s, prob in zip(dist.support, dist.probs):
                        out = network.forward(xb, s, training=True)
                        term = F.scale(task.loss(out, target), prob)
                        loss = term if loss is None else F.add(loss, term)
                else:
                    step_rec = dist.sample(rngs.step)
                    out = network.forward(xb, step_rec, training=True)
                    loss = task.loss(out, target)
            _zero_grads(params)
            backward(tape, loss)
            pre = clip_grad_norm(params, cfg.clip_max_norm)
            iteration += 1
            value = float(loss.data)
            if not np.isfinite([value, pre]).all():
                raise NumericalCheckError(
                    f"training diverged at iteration {iteration}, step "
                    f"{step_rec}: loss {value!r}, pre-clip gradient norm "
                    f"{pre!r}")
            post = global_grad_norm(params)
            if opt is not None:
                opt.step()
                log.final_updates += 1
            log.iterations.append(IterationRecord(
                iteration, step_rec, value, pre, post))

        if cfg.eval_each_epoch and test_set is not None:
            log.epochs.append(EpochRecord(epoch + 1, {
                s: task.evaluate(network, test_set, s) for s in dist.support}))

    network.trained_support = list(dist.support)
    log.final_rng_state = rngs.state()
    return log


REGIMES = ("fixed", "cost_adjustable", "aggregated")


def check_regime(regime: str, bn_mode: str, dist: StepDistribution,
                 max_step: int) -> None:
    """Raise ConfigError unless ``regime`` can train a ``bn_mode`` network
    unrolled up to ``max_step`` with steps drawn from ``dist``."""
    if regime not in REGIMES:
        raise ConfigError(f"unknown regime '{regime}' (expected one of "
                         f"{REGIMES})")
    if regime == "fixed" and not dist.is_singleton:
        raise ConfigError(
            f"regime 'fixed' needs a singleton step distribution, got "
            f"support {list(dist.support)}")
    if regime != "fixed" and bn_mode != "double_independent":
        raise ConfigError(f"regime '{regime}' requires bn_mode "
                         f"'double_independent', got '{bn_mode}'")
    if dist.support[-1] > max_step:
        raise ConfigError(f"step support {list(dist.support)} exceeds "
                         f"max_step {max_step}")


def check_batches(spec: NetworkSpec, train_set, batch_size: int) -> None:
    """Raise ConfigError if a training batch would give a BN layer fewer
    values per channel than the 2 that train mode needs. The smallest
    map is the training frame over ``spec.size_multiple``; the smallest
    batch is the last one of an epoch."""
    if spec.bn_mode == "none":
        return
    h, w = (side // spec.size_multiple for side in train_set.frame)
    batch = len(train_set) % batch_size or batch_size
    if batch * h * w < 2:
        raise ConfigError(
            f"a training batch of {batch} image(s) leaves batch norm "
            f"{batch * h * w} value(s) per channel on its {h}x{w} maps; "
            f"train mode needs at least 2")


def train_cost_adjustable(network: Network, train_set, test_set,
                          cfg: TrainConfig,
                          resume_state: dict | None = None) -> RunLog:
    """One sampled unified step per iteration; only the BN groups that
    step touches see forward passes or running-stat updates."""
    return run_training(network, train_set, test_set, cfg, "cost_adjustable",
                        resume_state)


# ---------------------------------------------------------------------------
# inference and metrics

# bytes of stem output per eval forward: the stem output is the widest
# activation of every arch, so an eval pass holds a few times this, not
# a multiple of the batch
EVAL_SLICE_BYTES = 2 << 20


def eval_slice_size(spec: NetworkSpec, h: int, w: int) -> int:
    """Images per eval forward at ``h`` x ``w``: as many as keep the stem
    output within EVAL_SLICE_BYTES."""
    per_image = spec.widths[0] * h * w * np.dtype(spec.dtype).itemsize
    return max(1, EVAL_SLICE_BYTES // per_image)


def _eval_slices(network: Network, inputs, step: int):
    """Eval-mode forwards of ``inputs`` (an [N,C,H,W] array or a list of
    [C,H,W] images) at ``step``, as many images per forward as keep the
    stem output within EVAL_SLICE_BYTES; yields each slice's first index
    and outputs. The eval forward is batch-invariant, so the outputs
    have the bits of one forward of the whole batch."""
    if len(inputs) == 0:
        raise ValueError("cannot run an eval forward on an empty batch")
    size = eval_slice_size(network.spec, *np.shape(inputs[0])[-2:])
    for lo in range(0, len(inputs), size):
        xb = np.asarray(inputs[lo:lo + size], dtype=network.spec.dtype)
        yield lo, network.forward(xb, step, training=False).data


def infer(network: Network, x, step: int) -> np.ndarray:
    """Eval-mode forward of the batch ``x`` at ``step``, which must be one
    the network serves (see :meth:`Network.check_serving_step`)."""
    network.check_serving_step(step)
    slices = _eval_slices(network, x, step)
    _, first = next(slices)
    if len(first) == len(x):
        return first
    out = np.empty((len(x),) + first.shape[1:], first.dtype)
    out[:len(first)] = first
    for lo, y in slices:
        out[lo:lo + len(y)] = y
    return out


def _evaluate(network: Network, inputs, score, step: int) -> float:
    """Mean per-item score of the eval-mode forwards of ``inputs`` at
    ``step``; ``score(outputs, lo)`` scores the items from index ``lo``
    on."""
    return float(np.mean(np.concatenate(
        [score(out, lo) for lo, out in _eval_slices(network, inputs, step)])))


def evaluate_classification(network: Network, dataset: LabeledDataset,
                            step: int) -> float:
    """Misclassified fraction in [0, 1] over the dataset."""
    def wrong(logits, lo):
        return logits.argmax(axis=1) != dataset.labels[lo:lo + len(logits)]
    return _evaluate(network, dataset.images, wrong, step)


def evaluate_denoise(network: Network, eval_set: DenoiseEvalSet,
                     step: int) -> float:
    """Mean per-image PSNR (dB) of the clipped prediction vs clean."""
    def image_psnr(preds, lo):
        return [psnr(np.clip(pred, 0.0, DENOISE_SCALE), pair.clean)
                for pred, pair in zip(preds, eval_set.pairs[lo:])]
    return _evaluate(network, [p.noisy for p in eval_set.pairs], image_psnr,
                     step)


def noisy_input_psnr(eval_set: DenoiseEvalSet) -> float:
    """Mean PSNR of the raw noisy inputs against their clean images."""
    return float(np.mean([psnr(np.clip(p.noisy, 0.0, DENOISE_SCALE), p.clean)
                          for p in eval_set.pairs]))


class Task(NamedTuple):
    metric: str         # eval.csv column prefix and the printed metric name
    loss: Callable      # (network output, target batch) -> scalar Tensor
    evaluate: Callable  # (network, test set, step) -> metric value


# what training and evaluation do for each NetworkSpec.task; the losses
# look up ``F`` on every call, so a wrapped op is seen
TASKS = {
    "classify": Task(
        metric="err", evaluate=evaluate_classification,
        loss=lambda logits, labels: F.softmax_cross_entropy(logits, labels)),
    "denoise": Task(
        metric="psnr", evaluate=evaluate_denoise,
        loss=lambda pred, clean: F.mse_loss(
            pred, Tensor(clean.astype(pred.dtype, copy=False)))),
}
