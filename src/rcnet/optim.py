"""SGD with momentum and Adam, a learning-rate scale for shared weights,
and global gradient-norm clipping.

Each update rule declares its per-parameter buffers in ``STATE`` (name ->
dtype; None = the parameter's own). They live in ``Parameter.state``, so
they outlive the optimizer, and a checkpoint stores each as
``<parameter>.<name>``.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Parameter


def state_buffers(p: Parameter, rule) -> dict[str, np.ndarray]:
    """``p``'s buffers for the update rule ``rule`` (one with ``STATE``).
    One already there (a checkpoint loaded it) is kept; a missing one (the
    checkpoint stored none) is created as zeros in ``p.state``."""
    for key, dtype in rule.STATE.items():
        if key not in p.state:
            p.state[key] = np.zeros(p.shape, dtype or p.dtype)
    return {key: p.state[key] for key in rule.STATE}


class _UpdateRule:
    """The settings every rule checks, and a parameter's step size: ``lr``,
    or ``lr * shared_lr_scale`` when it is shared across unroll steps.
    Weight decay is added to the raw gradient, so it acts on every
    parameter each step (including BN groups that the sampled steps never
    touch; group-isolation guarantees assume weight_decay = 0)."""

    def __init__(self, params, lr: float, weight_decay: float,
                 shared_lr_scale: float):
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not weight_decay >= 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        if not 0.0 < shared_lr_scale <= 1.0:
            raise ValueError(
                f"shared_lr_scale must be in (0, 1], got {shared_lr_scale}")
        self.params: list[Parameter] = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.shared_lr_scale = float(shared_lr_scale)

    def _lr(self, p: Parameter) -> float:
        return self.lr * (self.shared_lr_scale if p.is_shared else 1.0)


class SGD(_UpdateRule):
    """Momentum SGD; the ``momentum`` buffer has the parameter's dtype."""

    STATE = {"momentum": None}

    def __init__(self, params, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, shared_lr_scale: float = 1.0):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        super().__init__(params, lr, weight_decay, shared_lr_scale)
        self.momentum = float(momentum)

    def step(self) -> None:
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + p.dtype.type(self.weight_decay) * p.data
            if self.momentum:
                buf = state_buffers(p, self)["momentum"]
                buf *= p.dtype.type(self.momentum)
                buf += g
                g = buf
            p.data -= p.dtype.type(self._lr(p)) * g


class Adam(_UpdateRule):
    """Adam (Kingma & Ba, arXiv:1412.6980) with float64 moments: a step
    moves a parameter by its step size times the bias-corrected
    m / (sqrt(v) + eps). ``updates`` is the number of steps already taken,
    for the bias correction of a resumed run."""

    STATE = {"adam_m": np.float64, "adam_v": np.float64}
    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params, lr: float, weight_decay: float = 0.0,
                 shared_lr_scale: float = 1.0, updates: int = 0):
        super().__init__(params, lr, weight_decay, shared_lr_scale)
        self.t = int(updates)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETAS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad.astype(np.float64)
            if self.weight_decay:
                g += self.weight_decay * p.data
            m, v = state_buffers(p, self).values()
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= (self._lr(p) / c1 * m
                       / (np.sqrt(v / c2) + self.EPS)).astype(p.dtype)


# the update rule of each [train] optimizer, by name
OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def global_grad_norm(params) -> float:
    """Global L2 norm over all parameter gradients."""
    total = 0.0
    for p in params:
        g = p.grad.ravel()
        total += float(np.dot(g, g))
    return math.sqrt(total)


def clip_grad_norm(params, max_norm: float) -> float:
    """Jointly rescale all gradients when the global L2 norm exceeds
    ``max_norm``; returns the pre-clip norm.

    The 1e-12 relative slack makes clipping idempotent: re-clipping a
    just-clipped set is a bitwise no-op despite rounding in the
    recomputed norm.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = list(params)
    norm = global_grad_norm(params)
    if norm > max_norm * (1.0 + 1e-12):
        for p in params:
            p.grad *= p.dtype.type(max_norm / norm)
    return norm
