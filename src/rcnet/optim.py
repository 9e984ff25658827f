"""SGD with momentum, per-parameter learning-rate scaling, and global
gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Parameter


class SGD:
    """Momentum SGD; each step moves a parameter by lr * lr_scale.

    Weight decay is added to the raw gradient before the momentum update,
    so it acts on every parameter each step (including BN groups that the
    sampled steps never touch; group-isolation guarantees assume
    weight_decay = 0).
    """

    def __init__(self, params, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        self.params: list[Parameter] = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)

    def step(self) -> None:
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + p.dtype.type(self.weight_decay) * p.data
            if self.momentum:
                p.momentum_buf *= p.dtype.type(self.momentum)
                p.momentum_buf += g
                g = p.momentum_buf
            p.data -= p.dtype.type(self.lr * p.lr_scale) * g


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
