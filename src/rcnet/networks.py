"""Network assembly and structural accounting.

Three architectures are built here, each a list of named stages whose
recurrent cells are ``rc.RcCell`` objects run through ``unroll``:

* ``r2`` -- classifier: stem -> cell(w) -> invpool -> cell(4w) -> head,
  pre-activation residual cells that average-pool after step ceil(s/2).
* ``r3`` -- denoiser: stem -> three conv-BN-ReLU cells -> 3x3 conv head,
  residual output (prediction = input + residual).
* ``r4`` -- classifier: four transition+cell groups (widths doubling up
  to 512) with non-recurrent downsampling transitions, as in a 34-layer
  residual network whose repeated blocks are replaced by recurrent cells.

Also houses the untied-expansion oracle, the BN export table, and the
parameter/depth/FLOP report, all derived from the built network: each
stage names and addresses its own BN groups and unties itself, and the
report counts the parameters and a traced forward of the network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autodiff import Parameter, Tape, Tensor
from .errors import ConfigError
from .layers import (BnGroup, CellBody, ClassifierHead, ConvLayer, Module,
                     PoolModule, bn_relu, init_weights)
from .rc import BN_MODES, BnBank, RcCell, unroll

TASK_BY_ARCH = {"r2": "classify", "r3": "denoise", "r4": "classify"}
DENOISE_SCALE = 255.0  # images stay on the 0-255 scale; see forward()


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description sufficient to rebuild a network and to
    count its parameters, depth, and FLOPs."""

    arch: str
    task: str
    bn_mode: str
    max_step: int
    widths: tuple[int, ...]
    image_shape: tuple[int, int, int]  # (C, H, W)
    num_classes: int | None = None
    precision: str = "float32"
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        object.__setattr__(self, "image_shape",
                           tuple(int(v) for v in self.image_shape))
        if self.arch not in TASK_BY_ARCH:
            raise ConfigError(f"unknown arch '{self.arch}'")
        if self.bn_mode not in BN_MODES:
            raise ConfigError(f"unknown bn_mode '{self.bn_mode}'")
        if self.max_step < 1:
            raise ConfigError(f"max_step must be >= 1, got {self.max_step}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be >= 1, got {self.widths}")
        if not self.bn_eps >= 0:
            raise ConfigError(f"bn_eps must be >= 0, got {self.bn_eps}")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ConfigError(
                f"bn_momentum must be in [0, 1], got {self.bn_momentum}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32/float64, got "
                             f"'{self.precision}'")
        if self.task != TASK_BY_ARCH[self.arch]:
            raise ConfigError(f"arch '{self.arch}' implies task "
                             f"'{TASK_BY_ARCH[self.arch]}', got '{self.task}'")
        if self.arch == "r2":
            if len(self.widths) != 2 or self.widths[1] != 4 * self.widths[0]:
                raise ConfigError(
                    f"r2 needs widths (w, 4w) because invpool quadruples "
                    f"channels; got {self.widths}")
        elif self.arch == "r3":
            if len(self.widths) != 3 or len(set(self.widths)) != 1:
                raise ConfigError(f"r3 needs three equal widths, got {self.widths}")
        else:
            if len(self.widths) != 4:
                raise ConfigError(f"r4 needs four widths, got {self.widths}")
        if self.task == "classify":
            if not self.num_classes or self.num_classes < 2:
                raise ConfigError("classification needs num_classes >= 2")
        if len(self.image_shape) != 3 or any(v < 1 for v in self.image_shape):
            raise ConfigError(f"bad image_shape {self.image_shape}")
        _, h, w = self.image_shape
        if h % self.size_multiple or w % self.size_multiple:
            raise ConfigError(
                f"arch '{self.arch}' halves H and W three times, so the image "
                f"size must be a multiple of {self.size_multiple}; got {h}x{w}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64

    @property
    def size_multiple(self) -> int:
        """Image H and W must divide by this: r2 and r4 halve them three
        times, r3 keeps the resolution."""
        return 1 if self.arch == "r3" else 8


# ---------------------------------------------------------------------------
# pipeline stages

class TransitionModule(Module):
    """Non-recurrent pre-activation block between cell groups.

    Width changes and 2x downsampling happen here: an average pool, then
    stride-1 convs with k//2 padding that keep the pooled H x W (the
    shortcut pools and projects with a 1x1 conv). ``bn1`` and ``bn2``
    are the non-recurrent banks over the input and output channels.
    """

    bank_names = ("bn1", "bn2")

    def __init__(self, bn1, bn2, downsample: bool, dtype):
        in_ch, out_ch = bn1.channels, bn2.channels
        self.downsample = downsample
        self.bn1, self.bn2 = bn1, bn2
        self.conv1 = Parameter(np.zeros((out_ch, in_ch, 3, 3), dtype))
        self.conv2 = Parameter(np.zeros((out_ch, out_ch, 3, 3), dtype))
        self.proj = (Parameter(np.zeros((out_ch, in_ch, 1, 1), dtype))
                     if in_ch != out_ch else None)

    def apply(self, x, step, training):
        h = bn_relu(x, self.bn1.select(step), training)
        if self.downsample:
            h = F.avgpool2d(h)
        if self.proj is not None:
            shortcut = F.conv2d(h, self.proj)
        elif self.downsample:
            shortcut = F.avgpool2d(x)
        else:
            shortcut = x
        m = F.conv2d(h, self.conv1)
        m = bn_relu(m, self.bn2.select(step), training)
        m = F.conv2d(m, self.conv2)
        return F.add(shortcut, m)

    def named_parameters(self, prefix):
        yield from self._bn_parameters(prefix)
        yield f"{prefix}.conv1.weight", self.conv1
        yield f"{prefix}.conv2.weight", self.conv2
        if self.proj is not None:
            yield f"{prefix}.proj.weight", self.proj


# ---------------------------------------------------------------------------
# networks

class Network:
    """Ordered module pipeline; recurrent modules unroll the unified step."""

    def __init__(self, spec: NetworkSpec, modules: list):
        self.spec = spec
        self.modules = modules  # list of (name, module)
        self.trained_support: list[int] | None = None

    def forward(self, x, step: int, training: bool,
                collect_cell: str | None = None,
                collect: list | None = None) -> Tensor:
        """Run the pipeline at unified step ``step``.

        Train mode folds each batch's statistics into the running
        statistics of every BN group the step touches; eval mode reads
        them and changes nothing. Denoise networks return the full
        prediction ``input + 255 * f(input / 255)`` on the 0-255 scale, so
        a zeroed head reproduces the input exactly.
        """
        if not 1 <= step <= self.spec.max_step:
            raise ValueError(f"step {step} outside [1, {self.spec.max_step}]")
        dtype = self.spec.dtype
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=dtype))
        elif x.dtype != dtype:
            x = Tensor(x.data.astype(dtype))
        denoise = self.spec.task == "denoise"
        x0 = x
        h = Tensor(x.data * dtype(1.0 / DENOISE_SCALE)) if denoise else x
        for name, mod in self.modules:
            if mod.recurrent:
                cl = collect if collect_cell == name else None
                h = unroll(mod, h, step, training, collect=cl)
            else:
                h = mod.apply(h, step, training)
        if denoise:
            h = F.add(x0, F.scale(h, DENOISE_SCALE))
        return h

    def check_serving_step(self, step: int) -> None:
        """Raise ConfigError unless ``step`` lies in [1, max_step] and, once
        the network is trained, in its trained support."""
        if not 1 <= step <= self.spec.max_step:
            raise ConfigError(f"step {step} outside [1, {self.spec.max_step}]")
        support = self.trained_support
        if support is not None and step not in support:
            raise ConfigError(
                f"step {step} outside the trained support {sorted(support)}")

    def named_parameters(self) -> dict[str, Parameter]:
        out: dict[str, Parameter] = {}
        for name, mod in self.modules:
            for pname, p in mod.named_parameters(name):
                out[pname] = p
        return out

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())

    def named_bn_groups(self) -> dict[str, BnGroup]:
        out: dict[str, BnGroup] = {}
        for name, mod in self.modules:
            for gname, _, g in mod.named_bn_groups(name):
                out[gname] = g
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for gname, g in self.named_bn_groups().items():
            out[f"{gname}.running_mean"] = g.running_mean
            out[f"{gname}.running_var"] = g.running_var
        return out

    def cells(self) -> dict[str, RcCell]:
        return {name: mod for name, mod in self.modules if mod.recurrent}


class ExpandedNetwork(Network):
    """Untied standard feedforward network produced by expansion. It has
    no recurrent modules, so it runs the pipeline at step 1; a given
    ``step`` must be the one it was untied at, its trained support."""

    def forward(self, x, step: int | None = None,
                training: bool = False) -> Tensor:
        if step is not None:
            self.check_serving_step(step)
        return super().forward(x, 1, training)


# ---------------------------------------------------------------------------
# builders

def build_network(spec: NetworkSpec, seed: int = 0,
                  rng: np.random.Generator | None = None) -> Network:
    """Allocate a network and draw its weights from ``rng``/``seed``."""
    network = allocate_network(spec)
    init_weights(network.parameters(),
                 np.random.default_rng(seed) if rng is None else rng)
    return network


def allocate_network(spec: NetworkSpec) -> Network:
    """The network ``spec`` describes, with zero conv and linear weights;
    ``parameters()`` lists them in the order ``build_network`` draws them."""
    return {"r2": _build_r2, "r3": _build_r3, "r4": _build_r4}[spec.arch](spec)


def _bank(spec: NetworkSpec, channels: int, slots: int = 1,
          unrolled: bool = False, step_free: bool = False) -> BnBank:
    """The BN bank of one layer under ``spec.bn_mode``; a ``step_free``
    layer sees the same input statistics at every unified step and gets
    a shared bank."""
    mode = "shared" if step_free and spec.bn_mode != "none" else spec.bn_mode
    return BnBank(mode, spec.max_step, slots, channels, spec.dtype,
                  spec.bn_eps, spec.bn_momentum, unrolled)


def _make_cell(spec: NetworkSpec, kind: str, width: int,
               pool_after_half: bool = False) -> RcCell:
    body = CellBody.create(kind, width, spec.dtype)
    bank = _bank(spec, width, body.bn_slots, unrolled=True)
    return RcCell(body, bank, pool_after_half)


def _build_r2(spec: NetworkSpec) -> Network:
    c = spec.image_shape[0]
    w1, w2 = spec.widths
    mods = [
        ("stem", ConvLayer(c, w1, spec.dtype)),
        ("cell1", _make_cell(spec, "preact_resblock", w1,
                             pool_after_half=True)),
        ("invpool", PoolModule("invpool")),
        ("cell2", _make_cell(spec, "preact_resblock", w2,
                             pool_after_half=True)),
        ("head", ClassifierHead(_bank(spec, w2), spec.num_classes,
                                spec.dtype)),
    ]
    return Network(spec, mods)


def _build_r3(spec: NetworkSpec) -> Network:
    c = spec.image_shape[0]
    w = spec.widths[0]
    mods: list = [("stem", ConvLayer(c, w, spec.dtype))]
    for i in range(1, 4):
        mods.append((f"cell{i}", _make_cell(spec, "conv_bn_relu", w)))
    mods.append(("head", ConvLayer(w, c, spec.dtype)))
    return Network(spec, mods)


def _build_r4(spec: NetworkSpec) -> Network:
    c = spec.image_shape[0]
    widths = spec.widths
    mods: list = [("stem", ConvLayer(c, widths[0], spec.dtype))]
    in_ch = widths[0]
    for i, w in enumerate(widths, start=1):
        # the first transition follows the stem: fixed input statistics.
        # At max_step 1 the transitions are shared too, which keeps their
        # checkpoint names (trans<i>.bn1, not trans<i>.bn1.s1).
        fixed = i == 1 or spec.max_step == 1
        mods.append((f"trans{i}", TransitionModule(
            _bank(spec, in_ch, step_free=fixed),
            _bank(spec, w, step_free=fixed),
            downsample=i > 1, dtype=spec.dtype)))
        mods.append((f"cell{i}", _make_cell(spec, "preact_resblock", w)))
        in_ch = w
    mods.append(("head", ClassifierHead(_bank(spec, widths[-1]),
                                        spec.num_classes, spec.dtype)))
    return Network(spec, mods)


# ---------------------------------------------------------------------------
# expansion oracle

def expand_to_standard(network: Network, step: int) -> ExpandedNetwork:
    """Untie an RC network into the standard feedforward network that an
    ``step``-step unroll computes: ``step`` value-copies of each cell's
    conv weights with the step-j BN groups installed at depth j, and the
    step's group selected in every per-step BN layer.

    Rejected for shared BN (one set of running statistics cannot serve
    every depth), BN-free networks (no per-step groups to install) and
    unserved steps. Nothing is aliased with the source network.
    """
    spec = network.spec
    if spec.bn_mode not in ("independent", "double_independent"):
        raise ConfigError(
            f"expansion requires per-step BN groups; bn_mode "
            f"'{spec.bn_mode}' cannot be expanded")
    network.check_serving_step(step)
    expanded = ExpandedNetwork(spec, [(name + suffix, m)
                                      for name, mod in network.modules
                                      for suffix, m in mod.untie(step)])
    expanded.trained_support = [step]
    return expanded


# ---------------------------------------------------------------------------
# BN export

def bn_table(network: Network) -> list[tuple]:
    """One row per (module, address step, address index, slot, channel)
    over every BN group in the network: cell banks plus transition/head
    groups. Step/index are 0 where not applicable (shared groups, the
    index of non-bank groups)."""
    rows: list[tuple] = []
    for name, mod in network.modules:
        for _, (step, index, slot), group in mod.named_bn_groups(name):
            for ch in range(group.channels):
                rows.append((name, step, index, slot, ch,
                             repr(float(group.gamma.data[ch])),
                             repr(float(group.beta.data[ch])),
                             repr(float(group.running_mean[ch])),
                             repr(float(group.running_var[ch]))))
    return rows


# ---------------------------------------------------------------------------
# cost accounting

@dataclass
class CostReport:
    """Structural accounting of the network a NetworkSpec builds.

    ``bn_params`` counts learned scalars only (gamma/beta: 2C per group);
    running statistics are buffers. ``other_params`` is the linear
    classifier; ``conv_params`` is everything else. ``flops_per_step``
    counts conv/linear multiply-accumulates per image; BN/ReLU/pool costs
    are excluded (they are a very small proportion of the total).
    ``unrolled_depth`` counts 3x3-conv and linear layers at max_step;
    1x1 projection shortcuts are not counted, as in ResNet-34.
    """

    conv_params: int
    bn_params: int
    other_params: int
    total_params: int
    unrolled_depth: int
    flops_per_step: dict[int, int]


def step_cost(network: Network, step: int) -> tuple[int, int, int]:
    """(MACs per image, depth, linear-layer parameters) at unified step
    ``step``, counted over the conv/linear applications that a batch-1
    eval forward on zeros records."""
    spec = network.spec
    with Tape() as tape:
        network.forward(np.zeros((1,) + spec.image_shape, spec.dtype), step,
                        training=False)
    macs = depth = 0
    linear: dict[int, int] = {}
    for out, inputs, _ in tape.nodes:
        params = [t for t in inputs if isinstance(t, Parameter)]
        if not params or params[0].data.ndim < 2:
            continue
        weight = params[0]
        macs += out.size * weight.data[0].size
        if weight.data.ndim == 2:
            linear.update((id(p), p.size) for p in params)
        if weight.data.ndim == 2 or weight.shape[-1] > 1:
            depth += 1
    return macs, depth, sum(linear.values())


def cost_report(spec: NetworkSpec) -> CostReport:
    """Count parameters, unrolled depth, and per-step conv/linear MACs of
    the network ``spec`` builds, which need its shapes, not its values."""
    network = allocate_network(spec)
    costs = {s: step_cost(network, s) for s in range(1, spec.max_step + 1)}
    _, depth, other = costs[spec.max_step]
    total = sum(p.size for p in network.parameters())
    bn = sum(2 * g.channels for g in network.named_bn_groups().values())
    return CostReport(conv_params=total - bn - other, bn_params=bn,
                      other_params=other, total_params=total,
                      unrolled_depth=depth,
                      flops_per_step={s: c[0] for s, c in costs.items()})
