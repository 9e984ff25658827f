"""Layer blocks: batch-norm parameter groups, shared-weight cell bodies,
the pipeline-stage protocol, and the conv, pooling and classifier stages
around the cells.

Cell bodies keep input and output channel counts equal so they can be
applied repeatedly; the two supported kinds are the pre-activation
residual block (2 convs, 2 BN slots) and conv-BN-ReLU (1 conv, 1 slot).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autodiff import Parameter

CELL_BN_SLOTS = {"preact_resblock": 2, "conv_bn_relu": 1}


def he_conv(rng: np.random.Generator, out_ch: int, in_ch: int, k: int,
            dtype, is_shared: bool = False) -> Parameter:
    """3x3/1x1 conv weight from N(0, 2/fan_in)."""
    std = math.sqrt(2.0 / (in_ch * k * k))
    w = rng.normal(0.0, std, size=(out_ch, in_ch, k, k))
    return Parameter(w.astype(dtype), is_shared=is_shared)


def he_linear(rng: np.random.Generator, out_features: int, in_features: int,
              dtype) -> Parameter:
    std = math.sqrt(2.0 / in_features)
    w = rng.normal(0.0, std, size=(out_features, in_features))
    return Parameter(w.astype(dtype))


@dataclass
class BnGroup:
    """One batch-normalization parameter set for C channels.

    ``use_count`` is a diagnostics counter bumped on every application;
    it is not serialized.
    """

    gamma: Parameter
    beta: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    use_count: int = 0

    @property
    def channels(self) -> int:
        return self.gamma.size

    @staticmethod
    def create(channels: int, dtype=np.float32, eps: float = 1e-5,
               momentum: float = 0.1) -> "BnGroup":
        return BnGroup(
            gamma=Parameter(np.ones(channels, dtype=dtype)),
            beta=Parameter(np.zeros(channels, dtype=dtype)),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            eps=eps,
            momentum=momentum,
        )

    def copy(self) -> "BnGroup":
        """Value copy with fresh parameters (nothing aliased)."""
        g = BnGroup(
            gamma=Parameter(self.gamma.data.copy()),
            beta=Parameter(self.beta.data.copy()),
            running_mean=self.running_mean.copy(),
            running_var=self.running_var.copy(),
            eps=self.eps,
            momentum=self.momentum,
        )
        return g


@dataclass
class CellBody:
    """Shared convolutional weights applied once per unroll step."""

    kind: str
    convs: list[Parameter]
    channels: int

    @property
    def bn_slots(self) -> int:
        return CELL_BN_SLOTS[self.kind]

    @staticmethod
    def create(kind: str, channels: int, rng: np.random.Generator,
               dtype) -> "CellBody":
        if kind not in CELL_BN_SLOTS:
            raise ValueError(f"unknown cell kind '{kind}'")
        n_convs = 2 if kind == "preact_resblock" else 1
        convs = [he_conv(rng, channels, channels, 3, dtype, is_shared=True)
                 for _ in range(n_convs)]
        return CellBody(kind=kind, convs=convs, channels=channels)

    def copy_untied(self) -> "CellBody":
        """Independent value copy; copies are not marked shared."""
        convs = [Parameter(w.data.copy()) for w in self.convs]
        return CellBody(kind=self.kind, convs=convs, channels=self.channels)


def bn(x, groups, training: bool, slot: int = 0):
    """Normalize ``x`` with ``groups[slot]``, the groups a bank's
    ``select`` returned; the identity when that is None (mode 'none')."""
    if groups is None:
        return x
    return F.batchnorm2d(x, groups[slot], training)


def run_cell_body(body: CellBody, x, bn_groups, training: bool):
    """One traversal of the cell body.

    ``bn_groups`` supplies exactly ``body.bn_slots`` groups; ``None`` runs
    the normalization-free variant (each BN slot becomes the identity).
    """
    if bn_groups is not None and len(bn_groups) != body.bn_slots:
        raise ValueError(
            f"cell body '{body.kind}' needs {body.bn_slots} BN groups, "
            f"got {len(bn_groups)}")

    if body.kind == "preact_resblock":
        h = F.relu(bn(x, bn_groups, training))
        h = F.conv2d(h, body.convs[0])
        h = F.relu(bn(h, bn_groups, training, slot=1))
        h = F.conv2d(h, body.convs[1])
        return F.add(x, h)
    h = F.conv2d(x, body.convs[0])
    return F.relu(bn(h, bn_groups, training))


class Module:
    """One stage of a network pipeline.

    ``named_bn_groups(prefix)`` yields ``(name, (step, index, slot), group)``
    for every BN group the stage owns, with step/index 0 where not
    applicable. ``untie(step)`` returns the ``(name suffix, module)``
    stages of the standard feedforward network that this stage computes
    at unified step ``step``; nothing is aliased with the source.

    A non-recurrent stage's BN layers are the ``BnBank`` attributes in
    ``bank_names``; the k-th one's group is ``<prefix>.<attr>[.s<s>]``
    at address ``(s, 0, k)``.
    """

    recurrent = False
    bank_names: tuple[str, ...] = ()

    def named_parameters(self, prefix):
        return iter(())

    def named_bn_groups(self, prefix):
        for k, name in enumerate(self.bank_names):
            bank = getattr(self, name)
            for (s, _), groups in zip(bank.address_labels(), bank.groups):
                yield (f"{prefix}.{name}" + (f".s{s}" if s else ""),
                       (s, 0, k), groups[0])

    def untie(self, step: int) -> list:
        # deep copy with every bank replaced by its one-address copy
        memo = {id(getattr(self, n)): getattr(self, n).untie(step)
                for n in self.bank_names}
        return [("", copy.deepcopy(self, memo))]

    def _bn_parameters(self, prefix):
        for name, _, g in self.named_bn_groups(prefix):
            yield f"{name}.gamma", g.gamma
            yield f"{name}.beta", g.beta


class PoolModule(Module):
    """Parameter-free resampling by the named ``functional`` op: the 2x2
    ``avgpool2d`` or the channel-quadrupling ``invpool``."""

    def __init__(self, op: str):
        self.op = op

    def apply(self, x, step, training):
        return getattr(F, self.op)(x)


class ConvLayer(Module):
    """Single biased 3x3 convolution: the stem lifting image channels to
    the cell width, or the denoise head mapping it back."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator, dtype):
        self.weight = he_conv(rng, out_channels, in_channels, 3, dtype)
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))

    def apply(self, x, step, training):
        return F.conv2d(x, self.weight, self.bias)

    def named_parameters(self, prefix):
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


class ClassifierHead(Module):
    """BN + ReLU + global average pool + linear classifier.

    ``bn`` is the non-recurrent bank over the input channels: one group
    per unified step in cost-adjustable networks (the input statistics
    depend on how far the upstream cell was unrolled).
    """

    bank_names = ("bn",)

    def __init__(self, bank, num_classes: int, rng: np.random.Generator,
                 dtype):
        self.bn = bank
        self.weight = he_linear(rng, num_classes, bank.channels, dtype)
        self.bias = Parameter(np.zeros(num_classes, dtype=dtype))

    def apply(self, x, step, training):
        h = F.relu(bn(x, self.bn.select(step), training))
        h = F.global_avgpool(h)
        return F.linear(h, self.weight, self.bias)

    def named_parameters(self, prefix):
        yield from self._bn_parameters(prefix)
        yield f"{prefix}.linear.weight", self.weight
        yield f"{prefix}.linear.bias", self.bias
