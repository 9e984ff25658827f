"""Span tracer for the rcnet benchmark.

The tracer wraps public functions of the rcnet modules from the outside
(nothing under ``src/`` changes) and records one span per call: name,
start, end, parent span, the unified step and operation it belongs to,
and the benchmark phase (``setup``, ``timed`` or ``check``). Spans are
kept in memory and written out when the run ends. A span's self time is
its duration minus the time covered by its direct child spans.

Alongside the spans it keeps exact counts for the timed phase, per
unified step: conv/linear multiply-accumulates, computed im2col bytes,
conv FLOPs, the BN groups each forward touches, and tape nodes per
backward.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from rcnet import checkpoint, config, data, functional, networks, optim, rc, training

# functional op -> per-layer group; everything outside the first three is "other"
FUNCTIONAL_GROUPS = {
    "conv2d": "conv2d", "batchnorm2d": "batchnorm2d", "avgpool2d": "avgpool2d",
    "relu": "other", "add": "other", "scale": "other", "global_avgpool": "other",
    "linear": "other", "invpool": "other", "invpool_inverse": "other",
    "softmax_cross_entropy": "other", "mse_loss": "other",
}

# span fields
NAME, START, END, PARENT, CHILD, STEP, OP, PHASE = range(8)


class Tracer:
    """Records spans around rcnet's public functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.step = 0
        self.op = -1
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.bn_groups: dict[int, list[int]] = defaultdict(list)
        self.tape_nodes: dict[int, list[int]] = defaultdict(list)
        self._stack: list[int] = []
        self._forward_groups: set | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin_op(self, step: int | None = None) -> None:
        """Start a new workload operation (optionally at a known step)."""
        self.op += 1
        if step is not None:
            self.step = step

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0,
                           self.step, self.op, self.phase])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[END] = t1
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += t1 - span[START]

    def _count(self, key: str, value: int) -> None:
        if self.phase == "timed" and value:
            self.counts[(key, self.step)] += value

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return wrapped

    # -- special wrappers -------------------------------------------------

    def _conv2d(self, fn):
        def conv2d(*args, **kwargs):
            idx = self._enter("functional.conv2d")
            try:
                y = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            weight = args[1] if len(args) > 1 else kwargs["weight"]
            mac = y.data.size * weight.data[0].size   # N*O*Ho*Wo * C*kH*kW
            self._count("conv.macs", mac)
            self._count("conv.flops", 2 * mac)
            self._count("conv.col_bytes",
                        mac // weight.shape[0] * y.data.itemsize)
            return y
        return conv2d

    def _linear(self, fn):
        def linear(x, weight, bias):
            idx = self._enter("functional.linear")
            try:
                y = fn(x, weight, bias)
            finally:
                self._exit(idx)
            self._count("linear.macs", y.data.size * x.shape[1])
            return y
        return linear

    def _batchnorm2d(self, fn):
        def batchnorm2d(x, group, *args, **kwargs):
            if self._forward_groups is not None:
                self._forward_groups.add(id(group))
            idx = self._enter("functional.batchnorm2d")
            try:
                return fn(x, group, *args, **kwargs)
            finally:
                self._exit(idx)
        return batchnorm2d

    def _record(self, fn):
        """Wrap each recorded backward closure in a ``<op>.bwd`` span."""
        def record(output, inputs, backward_fn):
            if not self._stack:
                return fn(output, inputs, backward_fn)
            name = self.spans[self._stack[-1]][NAME] + ".bwd"
            flops = 0
            if name == "functional.conv2d.bwd":
                x, w = inputs[0], inputs[1]
                mac = output.data.size * w.data[0].size
                flops = 2 * mac * (int(x.requires_grad) + int(w.requires_grad))

            def timed_backward(g):
                idx = self._enter(name)
                try:
                    return backward_fn(g)
                finally:
                    self._exit(idx)
                    self._count("conv.flops", flops)
            return fn(output, inputs, timed_backward)
        return record

    def _forward(self, fn):
        def forward(net, x, step, *args, **kwargs):
            self.step = step
            self._forward_groups = groups = set()
            idx = self._enter("networks.forward")
            try:
                return fn(net, x, step, *args, **kwargs)
            finally:
                self._exit(idx)
                self._forward_groups = None
                if self.phase == "timed":
                    self.bn_groups[step].append(len(groups))
        return forward

    def _backward(self, fn):
        def backward(tape, loss):
            nodes = len(tape.nodes)
            idx = self._enter("autodiff.backward")
            try:
                return fn(tape, loss)
            finally:
                self._exit(idx)
                if self.phase == "timed":
                    self.tape_nodes[self.step].append(nodes)
        return backward

    # -- install / uninstall ----------------------------------------------

    def _patch(self, obj, attr: str, make) -> None:
        orig = getattr(obj, attr)
        self._patches.append((obj, attr, orig))
        setattr(obj, attr, make(orig))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for op in FUNCTIONAL_GROUPS:
            if op == "conv2d":
                make = self._conv2d
            elif op == "linear":
                make = self._linear
            elif op == "batchnorm2d":
                make = self._batchnorm2d
            else:
                make = (lambda name: lambda fn: self._span(name, fn))(
                    f"functional.{op}")
            self._patch(functional, op, make)
        self._patch(functional, "record", self._record)
        self._patch(networks.Network, "forward", self._forward)
        self._patch(training, "backward", self._backward)
        plain = [
            (networks, "unroll", "rc.unroll"),
            (rc, "run_cell_body", "layers.run_cell_body"),
            (optim.SGD, "step", "optim.sgd_step"),
            (training, "clip_grad_norm", "optim.clip_grad_norm"),
            (training, "global_grad_norm", "optim.global_grad_norm"),
            (training, "infer", "training.infer"),
            (data, "read_pgm", "data.read_pgm"),
            (data, "write_pgm", "data.write_pgm"),
            (data, "make_synthetic_classification", "data.generate"),
            (data, "make_synthetic_textures", "data.generate"),
            (data, "make_denoise_eval_set", "data.generate"),
            (config, "parse_config", "config.parse"),
            (config, "build_datasets", "config.build_datasets"),
            (checkpoint, "save_checkpoint", "checkpoint.save"),
            (checkpoint, "load_checkpoint", "checkpoint.load"),
        ]
        for obj, attr, name in plain:
            self._patch(obj, attr,
                        (lambda n: lambda fn: self._span(n, fn))(name))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def write_spans(self, path) -> None:
        """One JSON array per span: name, start and duration in
        microseconds from the first span, parent index, step, op, phase."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s[NAME], round((s[START] - t0) * 1e6, 1),
                                    round((s[END] - s[START]) * 1e6, 1),
                                    s[PARENT], s[STEP], s[OP], s[PHASE]]))
                f.write("\n")

    # -- aggregation ------------------------------------------------------

    def layer_table(self):
        """Timed-phase totals per (name, step): count, seconds, self seconds."""
        table: dict[tuple[str, int], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0])
        for s in self.spans:
            if s[PHASE] != "timed":
                continue
            row = table[(s[NAME], s[STEP])]
            dur = s[END] - s[START]
            row[0] += 1
            row[1] += dur
            row[2] += dur - s[CHILD]
        return table

    def mean_span_ms(self, name: str) -> float:
        """Mean duration of every span with this name, any phase."""
        durs = [s[END] - s[START] for s in self.spans if s[NAME] == name]
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

    def total_span_ms(self, name: str) -> float:
        return 1e3 * sum(s[END] - s[START] for s in self.spans
                         if s[NAME] == name)
