"""The three rcnet benchmark workloads.

Each workload is driven by one closed-loop client: the next operation
starts when the previous one has returned. rcnet is used only through its
public library functions, and it receives only the inputs generated here
from the workload seed.

* ``train_r2``: cost-adjustable training of the README example config; one
  operation is one training iteration (batch 50).
* ``infer_r4``: eval-mode ``infer`` of an r4 network at every unified step
  1..4; one operation is one batch of 128 images at one step.
* ``denoise_b1``: the ``rcnet infer`` path of an r3 denoiser; one operation
  is one request: ``read_pgm`` -> ``infer`` -> clip -> ``write_pgm``.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

from rcnet import autodiff, checkpoint, config, data, functional, networks, optim, training

EXPANSION_TOLERANCE = 1e-5   # float32 expansion-equivalence gate


class Op(NamedTuple):
    """One timed workload operation."""

    step: int
    seconds: float
    ok: bool


class Check(NamedTuple):
    """One output check. ``op`` is the index of the operation it verifies,
    or None for a check on the run as a whole."""

    name: str
    ok: bool
    value: object
    op: int | None = None


TRAIN_INI = """\
[network]
arch = r2
bn_mode = double_independent
max_step = 4
widths = 16,64
image_size = 16
num_classes = 3

[train]
lr = 0.05
momentum = 0.9
epochs = 1
batch_size = 50
regime = cost_adjustable
step_support = 2,3,4
step_probs = 0.2,0.3,0.5
seed = {seed}
eval_each_epoch = false

[data]
kind = synthetic_classify
samples = 2000
test_samples = 500

[output]
dir = {out}
"""

# bn_momentum = 1 makes one training-mode forward per step set the running
# statistics to that batch's statistics (calibration of an untrained net).
INFER_INI = """\
[network]
arch = r4
bn_mode = double_independent
max_step = 4
widths = 16,32,64,128
image_size = 32
num_classes = 10
bn_momentum = 1.0

[train]
seed = {seed}

[data]
kind = synthetic_classify
samples = 16
test_samples = 512
"""

DENOISE_INI = """\
[network]
arch = r3
bn_mode = double_independent
max_step = 4
widths = 16,16,16
image_channels = 1
image_size = 48
bn_momentum = 1.0

[train]
regime = cost_adjustable
step_support = 2,3,4
seed = {seed}

[data]
kind = synthetic_denoise
count = 1
test_count = 32
sigma = 25.0
"""


def _parse(work: Path, name: str, text: str):
    path = work / f"{name}.ini"
    path.write_text(text)
    return config.parse_config(path)


class TrainR2:
    """Cost-adjustable r2 training, continued epoch by epoch through
    ``run_training``'s resume state, so the timed iterations are those of
    one uninterrupted ``rcnet train`` run."""

    name = "train_r2"
    steps = (2, 3, 4)
    weights = {2: 0.2, 3: 0.3, 4: 0.5}     # the config's step_probs
    batch = 50
    trains = True
    max_heldout_error = 0.25               # chance is 2/3 with 3 classes

    @staticmethod
    def bn_groups(step: int) -> int:
        return 4 * step + 1

    def setup(self, work: Path, seed: int) -> None:
        cfg = _parse(work, self.name,
                     TRAIN_INI.format(seed=seed, out=work / "train_out"))
        train_set, test_set = config.build_datasets(cfg)
        network = networks.build_network(
            cfg.network, rng=training.RngStreams(cfg.train.seed).init)
        self.cfg, self.spec = cfg, cfg.network
        self.network, self.train_set, self.test_set = network, train_set, test_set
        # warm up on a spare network so the trained one follows `rcnet train`
        self.spare = networks.build_network(cfg.network, seed=seed)
        for s in self.steps:
            self._spare_iteration(s)
        self.resume_state = None
        self.epochs_done = 0
        self.errors: list[str] = []

    def _spare_iteration(self, step: int) -> None:
        """Forward and backward of the first batch on the spare network."""
        xb = self.train_set.images[:self.batch]
        yb = self.train_set.labels[:self.batch]
        with autodiff.Tape() as tape:
            loss = functional.softmax_cross_entropy(
                self.spare.forward(xb, step, training=True), yb)
        autodiff.backward(tape, loss)

    def tape_peak_mb(self) -> dict[int, float]:
        """Peak traced memory (tracemalloc) of one forward and backward at
        each step, above the level before the forward."""
        peaks = {}
        tracemalloc.start()
        try:
            for s in self.steps:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                self._spare_iteration(s)
                peaks[s] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
        finally:
            tracemalloc.stop()
        return peaks

    def run(self, seconds: float, tracer=None) -> list[Op]:
        """Train whole epochs until ``seconds`` have passed (at least one).

        The iteration clock is one timestamp after each ``SGD.step``, the
        last call of every iteration.
        """
        stamps: list[float] = []
        inner = optim.SGD.step

        def step_and_stamp(opt):
            inner(opt)
            stamps.append(time.perf_counter())
            if tracer is not None:
                tracer.begin_op()

        ops: list[Op] = []
        optim.SGD.step = step_and_stamp
        try:
            t_end = time.perf_counter() + seconds
            while not ops or time.perf_counter() < t_end:
                self.cfg.train.epochs = self.epochs_done + 1
                stamps.clear()
                stamps.append(time.perf_counter())
                try:
                    log = training.run_training(
                        self.network, self.train_set, self.test_set,
                        self.cfg.train, self.cfg.regime,
                        resume_state=self.resume_state)
                except Exception as e:  # an iteration raised: count it, stop
                    self.errors.append(repr(e))
                    ops.append(Op(0, math.nan, False))
                    break
                for rec, dt in zip(log.iterations, np.diff(stamps)):
                    ok = all(map(math.isfinite, (rec.loss, rec.grad_norm_pre,
                                                 rec.grad_norm_post)))
                    ops.append(Op(rec.step, float(dt), ok))
                self.epochs_done += 1
                self.resume_state = {"rng": log.final_rng_state,
                                     "iteration": log.iterations[-1].iteration,
                                     "epoch": self.epochs_done}
        finally:
            optim.SGD.step = inner
        return ops

    def checks(self) -> list[Check]:
        """Save the checkpoint as `rcnet train` does, reload it, and bound
        the held-out error at every support step."""
        out_dir = Path(self.cfg.output.dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "last.ckpt"
        checkpoint.save_checkpoint(path, self.network, self.resume_state)
        self.checkpoint_bytes = path.stat().st_size
        reloaded, _ = checkpoint.load_checkpoint(path)
        result = []
        for s in self.steps:
            err = training.evaluate_classification(reloaded, self.test_set, s)
            result.append(Check(f"heldout_error.s{s}",
                                err < self.max_heldout_error, err))
        return result


class _Requests:
    """Closed-loop request client shared by the two inference workloads.

    Steps come in rounds: each round is a seeded shuffle of every step, so
    each step gets the same number of operations.
    """

    trains = False

    def _start(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 7])
        self.n_ops = 0
        self.kept: dict[int, tuple[int, np.ndarray]] = {}
        self.errors: list[str] = []

    def run(self, seconds: float, tracer=None) -> list[Op]:
        ops: list[Op] = []
        t_end = time.perf_counter() + seconds
        while not ops or time.perf_counter() < t_end:
            for step in self.rng.permutation(self.steps):
                step, i = int(step), self.n_ops
                self.n_ops += 1
                if tracer is not None:
                    tracer.begin_op(step)
                t0 = time.perf_counter()
                try:
                    out = self.request(i, step)
                except Exception as e:  # a failed request is counted, not fatal
                    self.errors.append(repr(e))
                    ops.append(Op(step, math.nan, False))
                    continue
                dt = time.perf_counter() - t0
                ops.append(Op(step, dt, self.verify(i, out)))
                self.kept.setdefault(step, (i, out))
        return ops

    def verify(self, i: int, out: np.ndarray) -> bool:
        """Check one request's output, outside its timed interval."""
        return bool(np.isfinite(out).all())

    def _expansion_checks(self, inputs_of, rows: int | None = None) -> list[Check]:
        """Compare one kept output per step (its first ``rows`` images)
        with the untied expansion."""
        result = []
        for step, (i, out) in sorted(self.kept.items()):
            expanded = networks.expand_to_standard(self.network, step)
            ref = expanded.forward(inputs_of(i)[:rows]).data
            dev = float(np.max(np.abs(out[:rows] - ref)))
            result.append(Check(f"expansion.s{step}",
                                dev < EXPANSION_TOLERANCE, dev, op=i))
        return result


class InferR4(_Requests):
    """Eval-mode r4 inference at every unified step, batches of 128.

    Set-up builds the network, calibrates its BN running statistics with
    one training-mode forward per step, and saves and reloads it through
    ``checkpoint``.
    """

    name = "infer_r4"
    steps = (1, 2, 3, 4)
    weights = {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}
    batch = 128
    checked_rows = 32   # of a batch; keeps the check short

    @staticmethod
    def bn_groups(step: int) -> int:
        return 8 * step + 9

    def setup(self, work: Path, seed: int) -> None:
        cfg = _parse(work, self.name, INFER_INI.format(seed=seed))
        calib, pool = config.build_datasets(cfg)
        network = networks.build_network(
            cfg.network, rng=training.RngStreams(seed).init)
        for s in self.steps:
            network.forward(calib.images, s, training=True)
        path = work / f"{self.name}.ckpt"
        checkpoint.save_checkpoint(path, network)
        self.checkpoint_bytes = path.stat().st_size
        self.network, _ = checkpoint.load_checkpoint(path)
        self.spec = self.network.spec
        self._start(seed)
        order = self.rng.permutation(len(pool))
        self.batches = [np.ascontiguousarray(pool.images[order[k:k + self.batch]])
                        for k in range(0, len(pool), self.batch)]
        training.infer(self.network, self.batches[0], self.steps[0])  # warm-up

    def request(self, i: int, step: int) -> np.ndarray:
        return training.infer(self.network, self.batches[i % len(self.batches)],
                              step)

    def checks(self) -> list[Check]:
        return self._expansion_checks(
            lambda i: self.batches[i % len(self.batches)], self.checked_rows)


class DenoiseB1(_Requests):
    """Batch-1 r3 denoising, one PGM file in and one out per request.

    Request i denoises input file i mod 32 into that input's output file,
    so a run rewrites 32 files rather than creating thousands (whose
    creation cost grows with the directory and adds noise).
    """

    name = "denoise_b1"
    steps = (2, 3, 4)
    weights = {2: 1 / 3, 3: 1 / 3, 4: 1 / 3}
    batch = 1

    @staticmethod
    def bn_groups(step: int) -> int:
        return 3 * step

    def setup(self, work: Path, seed: int) -> None:
        cfg = _parse(work, self.name, DENOISE_INI.format(seed=seed))
        _, pool = config.build_datasets(cfg)
        network = networks.build_network(
            cfg.network, rng=training.RngStreams(seed).init)
        calib = np.stack([p.noisy for p in pool.pairs[:4]])
        for s in self.steps:
            network.forward(calib, s, training=True)
        network.trained_support = list(self.steps)
        path = work / f"{self.name}.ckpt"
        checkpoint.save_checkpoint(path, network)
        self.checkpoint_bytes = path.stat().st_size
        self.network, _ = checkpoint.load_checkpoint(path)
        self.spec = self.network.spec
        self._start(seed)
        self.inputs = [work / f"in_{k:02d}.pgm" for k in range(len(pool))]
        self.outputs = [work / f"out_{k:02d}.pgm" for k in range(len(pool))]
        for path, pair in zip(self.inputs, pool.pairs):
            data.write_pgm(path, pair.noisy[0])
        self.image_shape = data.read_pgm(self.inputs[0]).shape
        self.readbacks: list[Check] = []
        for s in self.steps:  # warm-up
            self.request(0, s)

    def request(self, i: int, step: int) -> np.ndarray:
        k = i % len(self.inputs)
        img = data.read_pgm(self.inputs[k])
        out = training.infer(self.network, img[None, None], step)
        data.write_pgm(self.outputs[k], np.clip(out[0, 0], 0, 255))
        return out

    def verify(self, i: int, out: np.ndarray) -> bool:
        """Finite output, and the PGM just written reads back at the input
        size."""
        shape = data.read_pgm(self.outputs[i % len(self.outputs)]).shape
        self.readbacks.append(Check("pgm_readback", shape == self.image_shape,
                                    list(shape), op=i))
        return bool(np.isfinite(out).all()) and shape == self.image_shape

    def checks(self) -> list[Check]:
        return self.readbacks + self._expansion_checks(
            lambda i: data.read_pgm(self.inputs[i % len(self.inputs)])[None, None])


WORKLOADS = {w.name: w for w in (TrainR2, InferR4, DenoiseB1)}
