"""Recurrent-convolution core: BN banks addressed by (unified step,
unroll index), the recurrent cell stage, the unroll loop, and unified
step sampling.

One step is drawn per training iteration and applied to every recurrent
cell; banks therefore only ever need the lower-triangular addresses
(j <= s <= max_step).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import functional as F
from .errors import ConfigError
from .layers import BnGroup, CellBody, Module, PoolModule, run_cell_body

# Per mode, whether a BN layer's input statistics depend on the unified
# step s and on the unroll index j; None = no normalization.
ADDRESS_RULE = {"none": None, "shared": (0, 0), "independent": (0, 1),
                "double_independent": (1, 1)}
BN_MODES = tuple(ADDRESS_RULE)


class BnBank:
    """Addressable collection of BN groups for one BN layer.

    An address keeps only the coordinates of ``(s, j)`` (unified step,
    unroll index; 1-based, ``j <= s <= max_step``) that the layer's input
    statistics depend on, and the rest are 0. A non-recurrent layer after
    a cell (``unrolled=False``) has no unroll index:

    ====================  ==========  ===================
    mode                  cell bank   non-recurrent layer
    ====================  ==========  ===================
    shared                (0, 0)      (0, 0)
    independent           (0, j)      (0, 0)
    double_independent    (s, j)      (s, 0)
    none                  no groups   no groups
    ====================  ==========  ===================

    Addresses are numbered in (s, j) order, so a double-independent cell
    bank puts ``(s, j)`` at ``s*(s-1)/2 + (j-1)`` and checkpoints are
    layout-stable. Each address holds ``slots`` groups, one per BN layer
    of the cell body traversal.
    """

    def __init__(self, mode: str, max_step: int, slots: int, channels: int,
                 dtype=np.float32, eps: float = 1e-5, momentum: float = 0.1,
                 unrolled: bool = True):
        if mode not in BN_MODES:
            raise ValueError(f"unknown BN mode '{mode}'")
        if max_step < 1:
            raise ValueError(f"max_step must be >= 1, got {max_step}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.mode = mode
        self.max_step = max_step
        self.slots = slots
        self.channels = channels
        rule = ADDRESS_RULE[mode]
        self._keep = (rule[0], rule[1] * unrolled) if rule else (0, 0)
        self._labels = sorted({self._label(s, j) for s in range(1, max_step + 1)
                               for j in range(1, s + 1)}) if rule else []
        self.groups = [
            [BnGroup.create(channels, dtype, eps, momentum) for _ in range(slots)]
            for _ in self._labels
        ]

    def _label(self, step: int, index: int) -> tuple[int, int]:
        return step * self._keep[0], index * self._keep[1]

    @property
    def n_addresses(self) -> int:
        return len(self._labels)

    @property
    def n_groups(self) -> int:
        return self.n_addresses * self.slots

    def _check(self, step: int, index: int) -> None:
        if not 1 <= index <= step <= self.max_step:
            raise ValueError(
                f"invalid bank address: step={step}, index={index}, "
                f"max_step={self.max_step} (need 1 <= index <= step <= max_step)")

    def address(self, step: int, index: int) -> int:
        """Linear address of (step, index) under this bank's rule."""
        self._check(step, index)
        return self._labels.index(self._label(step, index))

    def select(self, step: int, index: int = 1):
        """Groups for one body traversal; None in 'none' mode. Pure lookup."""
        if not self.groups:
            self._check(step, index)
            return None
        return self.groups[self.address(step, index)]

    def address_labels(self) -> list[tuple[int, int]]:
        """(step_label, index_label) per linear address; 0 = not applicable."""
        return list(self._labels)

    def address_name(self, addr: int) -> str:
        """``s<s>j<j>`` without the 0 coordinates; ``shared`` if both are 0."""
        s, j = self._labels[addr]
        return (f"s{s}" if s else "") + (f"j{j}" if j else "") or "shared"

    def untie(self, step: int, index: int = 1) -> "BnBank":
        """One-address bank holding copies of the groups at (step, index)."""
        groups = self.select(step, index)
        bank = BnBank("shared" if groups else "none", 1, self.slots,
                      self.channels)
        bank.groups = [copy.deepcopy(groups)] if groups else []
        return bank


@dataclass
class RcCell(Module):
    """The recurrent pipeline stage, run by :func:`unroll`: a shared-weight
    cell body, its BN bank, and the pooling rule.

    With ``pool_after_half`` set, a 2x2 average pool runs immediately
    after step ceil(s/2) of an s-step unroll.
    """

    recurrent = True

    body: CellBody
    bank: BnBank
    pool_after_half: bool = False

    def pool_at(self, steps: int) -> int:
        """Unroll depth after which an ``steps``-step unroll pools; 0 = never."""
        return (steps + 1) // 2 if self.pool_after_half else 0

    def __post_init__(self):
        if self.bank.mode != "none" and self.bank.slots != self.body.bn_slots:
            raise ValueError(
                f"bank has {self.bank.slots} slots per step but body "
                f"'{self.body.kind}' needs {self.body.bn_slots}")
        if self.bank.channels != self.body.channels:
            raise ValueError(
                f"bank channels {self.bank.channels} != body channels "
                f"{self.body.channels}")

    def named_parameters(self, prefix):
        for q, w in enumerate(self.body.convs):
            yield f"{prefix}.conv{q}.weight", w
        yield from self._bn_parameters(prefix)

    def named_bn_groups(self, prefix):
        bank = self.bank
        for addr, (s, j) in enumerate(bank.address_labels()):
            aname = bank.address_name(addr)
            for slot, g in enumerate(bank.groups[addr]):
                yield f"{prefix}.bank.{aname}.slot{slot}", (s, j, slot), g

    def untie(self, step: int) -> list:
        """One one-step cell per depth j, holding value copies of the conv
        weights, not marked shared, and of the step-j BN groups, plus the
        pool the unroll runs after depth ``pool_at(step)``."""
        mods: list = []
        for j in range(1, step + 1):
            body = copy.deepcopy(self.body)
            for w in body.convs:
                w.is_shared = False
            depth = RcCell(body, self.bank.untie(step, j))
            mods.append((f".depth{j}", depth))
            if j == self.pool_at(step):
                mods.append((f".pool{j}", PoolModule("avgpool2d")))
        return mods


def unroll(cell: RcCell, x, steps: int, training: bool,
           collect: list | None = None):
    """Apply the cell body ``steps`` times, selecting BN groups per step.

    ``collect``, if given, receives each step's output tensor (after the
    pooling that step triggers, when the rule is active).
    """
    if not 1 <= steps <= cell.bank.max_step:
        raise ValueError(
            f"unroll steps {steps} outside [1, {cell.bank.max_step}]")
    pool_at = cell.pool_at(steps)
    h = x
    for j in range(1, steps + 1):
        groups = cell.bank.select(steps, j)
        h = run_cell_body(cell.body, h, groups, training)
        if j == pool_at:
            h = F.avgpool2d(h)
        if collect is not None:
            collect.append(h)
    return h


@dataclass(frozen=True)
class StepDistribution:
    """Discrete distribution over unified unrolling steps."""

    support: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(int(s) for s in self.support))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if not self.support:
            raise ConfigError("step distribution needs a non-empty support")
        if len(self.support) != len(self.probs):
            raise ConfigError(
                f"support/probs length mismatch: {len(self.support)} vs "
                f"{len(self.probs)}")
        if list(self.support) != sorted(set(self.support)):
            raise ConfigError(f"support must be sorted distinct ints, got "
                             f"{self.support}")
        if self.support[0] < 1:
            raise ConfigError(f"steps must be >= 1, got {self.support}")
        # stated so that NaN probabilities fail
        if not all(p > 0 for p in self.probs):
            raise ConfigError(f"probabilities must be positive, got {self.probs}")
        if not abs(sum(self.probs) - 1.0) <= 1e-9:
            raise ConfigError(
                f"probabilities sum to {sum(self.probs)!r}, not 1")

    @staticmethod
    def fixed(step: int) -> "StepDistribution":
        return StepDistribution((step,), (1.0,))

    @property
    def is_singleton(self) -> bool:
        return len(self.support) == 1

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one unified step; applied to every recurrent cell this iteration."""
        return int(rng.choice(self.support, p=self.probs))
