"""SGD with momentum and Adam, a learning-rate scale for shared weights,
and global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Parameter


class SGD:
    """Momentum SGD; each step moves a parameter by ``lr``, or by
    ``lr * shared_lr_scale`` when it is shared across unroll steps.

    Weight decay is added to the raw gradient before the momentum update,
    so it acts on every parameter each step (including BN groups that the
    sampled steps never touch; group-isolation guarantees assume
    weight_decay = 0).
    """

    def __init__(self, params, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, shared_lr_scale: float = 1.0):
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if not weight_decay >= 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        if not 0.0 < shared_lr_scale <= 1.0:
            raise ValueError(
                f"shared_lr_scale must be in (0, 1], got {shared_lr_scale}")
        self.params: list[Parameter] = list(params)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.shared_lr_scale = float(shared_lr_scale)

    def step(self) -> None:
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + p.dtype.type(self.weight_decay) * p.data
            if self.momentum:
                p.momentum_buf *= p.dtype.type(self.momentum)
                p.momentum_buf += g
                g = p.momentum_buf
            scale = self.shared_lr_scale if p.is_shared else 1.0
            p.data -= p.dtype.type(self.lr * scale) * g


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) with bias correction; each step
    moves a parameter by ``lr`` times its bias-corrected m / (sqrt(v) +
    eps), or by ``lr * shared_lr_scale`` times that when it is shared
    across unroll steps.

    The first and second moments are float64 and live on the parameters
    (``adam_m``, ``adam_v``), as SGD's momentum does, so a checkpoint holds
    them; ``updates`` is the number of steps already taken, for the bias
    correction of a resumed run. Weight decay is added to the raw gradient,
    as in SGD.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params, lr: float, weight_decay: float = 0.0,
                 shared_lr_scale: float = 1.0, updates: int = 0):
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
        self.t = int(updates)
        for p in self.params:
            adam_moments(p)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETAS
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad.astype(np.float64)
            if self.weight_decay:
                g += self.weight_decay * p.data
            p.adam_m *= b1
            p.adam_m += (1.0 - b1) * g
            p.adam_v *= b2
            p.adam_v += (1.0 - b2) * (g * g)
            scale = self.shared_lr_scale if p.is_shared else 1.0
            p.data -= (self.lr * scale / c1 * p.adam_m
                       / (np.sqrt(p.adam_v / c2) + self.EPS)).astype(p.dtype)


def adam_moments(p: Parameter) -> tuple[np.ndarray, np.ndarray]:
    """``p``'s Adam moments, set to float64 zeros the first time."""
    if p.adam_m is None:
        p.adam_m, p.adam_v = np.zeros(p.shape), np.zeros(p.shape)
    return p.adam_m, p.adam_v


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
