"""Recurrent-convolution core: BN banks addressed by (unified step,
unroll index), the unroll loop, and unified step sampling.

One step is drawn per training iteration and applied to every recurrent
cell; banks therefore only ever need the lower-triangular addresses
(j <= s <= max_step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .layers import BnGroup, CellBody, run_cell_body

BN_MODES = ("none", "shared", "independent", "double_independent")


class BnBank:
    """Addressable collection of BN groups for one cell.

    Group selection for unified step ``s`` and unroll index ``j``
    (1-based, ``j <= s <= max_step``):

    ========================  =======================================
    shared                    the single group
    independent               group ``j``
    double_independent        group ``(s, j)``; linear index
                              ``s*(s-1)/2 + (j-1)`` over the lower
                              triangle, so checkpoints are layout-stable
    none                      no groups (normalization-free cells)
    ========================  =======================================

    Each address holds ``slots`` groups, one per BN layer of the cell
    body traversal.
    """

    def __init__(self, mode: str, max_step: int, slots: int, channels: int,
                 dtype=np.float32, eps: float = 1e-5, momentum: float = 0.1):
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
        self.groups = [
            [BnGroup.create(channels, dtype, eps, momentum) for _ in range(slots)]
            for _ in range(self.n_addresses)
        ]

    @property
    def n_addresses(self) -> int:
        return len(self.address_labels())

    @property
    def n_groups(self) -> int:
        return self.n_addresses * self.slots

    def _check(self, step: int, index: int) -> None:
        if not 1 <= index <= step <= self.max_step:
            raise ValueError(
                f"invalid bank address: step={step}, index={index}, "
                f"max_step={self.max_step} (need 1 <= index <= step <= max_step)")

    def address(self, step: int, index: int) -> int:
        """Linear address of (step, index) under this bank's mode."""
        self._check(step, index)
        if self.mode == "shared":
            return 0
        if self.mode == "independent":
            return index - 1
        if self.mode == "double_independent":
            return step * (step - 1) // 2 + (index - 1)
        raise ValueError("bank mode 'none' has no addresses")

    def select(self, step: int, index: int):
        """Groups for one body traversal; None in 'none' mode. Pure lookup."""
        if self.mode == "none":
            self._check(step, index)
            return None
        return self.groups[self.address(step, index)]

    def address_labels(self):
        """(step_label, index_label) per linear address; 0 = not applicable."""
        if self.mode == "shared":
            return [(0, 0)]
        if self.mode == "independent":
            return [(0, j) for j in range(1, self.max_step + 1)]
        if self.mode == "double_independent":
            return [(s, j) for s in range(1, self.max_step + 1)
                    for j in range(1, s + 1)]
        return []

    def address_name(self, addr: int) -> str:
        s, j = self.address_labels()[addr]
        if self.mode == "shared":
            return "shared"
        if self.mode == "independent":
            return f"j{j}"
        return f"s{s}j{j}"


@dataclass
class RcCell:
    """A shared-weight cell body, its BN bank, and the pooling rule.

    With ``pool_after_half`` set, a 2x2 average pool runs immediately
    after step ceil(s/2) of an s-step unroll.
    """

    body: CellBody
    bank: BnBank
    pool_after_half: bool = False

    def __post_init__(self):
        if self.bank.mode != "none" and self.bank.slots != self.body.bn_slots:
            raise ValueError(
                f"bank has {self.bank.slots} slots per step but body "
                f"'{self.body.kind}' needs {self.body.bn_slots}")
        if self.bank.channels != self.body.channels:
            raise ValueError(
                f"bank channels {self.bank.channels} != body channels "
                f"{self.body.channels}")


def unroll(cell: RcCell, x, steps: int, training: bool,
           update_stats: bool = True, collect: list | None = None):
    """Apply the cell body ``steps`` times, selecting BN groups per step.

    ``collect``, if given, receives each step's output tensor (after the
    pooling that step triggers, when the rule is active).
    """
    if not 1 <= steps <= cell.bank.max_step:
        raise ValueError(
            f"unroll steps {steps} outside [1, {cell.bank.max_step}]")
    pool_at = (steps + 1) // 2 if cell.pool_after_half else 0
    h = x
    for j in range(1, steps + 1):
        groups = cell.bank.select(steps, j)
        h = run_cell_body(cell.body, h, groups, training, update_stats)
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
            raise ValueError("step distribution needs a non-empty support")
        if len(self.support) != len(self.probs):
            raise ValueError(
                f"support/probs length mismatch: {len(self.support)} vs "
                f"{len(self.probs)}")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support must be sorted distinct ints, got "
                             f"{self.support}")
        if self.support[0] < 1:
            raise ValueError(f"steps must be >= 1, got {self.support}")
        if any(p <= 0 for p in self.probs):
            raise ValueError(f"probabilities must be positive, got {self.probs}")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError(
                f"probabilities sum to {sum(self.probs)!r}, not 1")

    @staticmethod
    def fixed(step: int) -> "StepDistribution":
        return StepDistribution((step,), (1.0,))

    @property
    def is_singleton(self) -> bool:
        return len(self.support) == 1

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.support, p=self.probs))


def sample_step(dist: StepDistribution, rng: np.random.Generator) -> int:
    """Draw one unified step; applied to every recurrent cell this iteration."""
    return dist.sample(rng)
