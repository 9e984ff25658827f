"""Reverse-mode automatic differentiation over dense numpy tensors.

Every differentiable op records one node on the active :class:`Tape`.
Construction order is a topological order, so replaying the tape backwards
propagates adjoints by plain accumulation; a parameter used at several
graph sites (shared convolution weights in an unrolled cell) receives the
sum of all per-site gradients.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """Dense row-major n-d value; float32 or float64.

    Wraps the given array without copying when it is already contiguous,
    so freshly computed op outputs are never duplicated.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in SUPPORTED_DTYPES:
            raise TypeError(
                f"unsupported dtype {arr.dtype}; tensors are float32 or float64"
            )
        if not arr.flags.c_contiguous:
            # note: np.ascontiguousarray would promote 0-d scalars to 1-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Learnable tensor with gradient and momentum accumulators.

    ``lr_scale`` rescales the optimizer step for this parameter alone;
    weights shared across unroll steps default to 0.5, everything else
    to 1.0.
    """

    __slots__ = ("grad", "momentum_buf", "is_shared", "lr_scale")

    def __init__(self, data, dtype=None, is_shared: bool = False,
                 lr_scale: float | None = None):
        super().__init__(data, dtype)
        if lr_scale is None:
            lr_scale = 0.5 if is_shared else 1.0
        if not 0.0 < lr_scale <= 1.0:
            raise ValueError(f"lr_scale must be in (0, 1], got {lr_scale}")
        self.requires_grad = True
        self.grad = np.zeros_like(self.data)
        self.momentum_buf = np.zeros_like(self.data)
        self.is_shared = bool(is_shared)
        self.lr_scale = float(lr_scale)

    def __repr__(self) -> str:
        return (f"Parameter(shape={tuple(self.shape)}, shared={self.is_shared}, "
                f"lr_scale={self.lr_scale})")


# One node per op: (output, inputs, backward_fn). backward_fn maps the
# output adjoint to one gradient per input (None = not required).
BackwardFn = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]

_ACTIVE_TAPE: Optional["Tape"] = None


class Tape:
    """Operation record of one forward pass, in construction order."""

    def __init__(self):
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], BackwardFn]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already recording")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self.nodes)


def recording() -> bool:
    return _ACTIVE_TAPE is not None


def record(output: Tensor, inputs: Sequence[Tensor], backward_fn: BackwardFn) -> None:
    """Append one op node to the active tape; no-op when none is active."""
    if _ACTIVE_TAPE is not None and output.requires_grad:
        _ACTIVE_TAPE.nodes.append((output, tuple(inputs), backward_fn))


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(parameter) into every reachable Parameter.

    ``loss`` must be a scalar. Parameters keep whatever was already in
    ``.grad``; the training loop clears them with
    ``training._zero_grads`` between iterations.
    """
    if loss.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {tuple(loss.shape)}")
    adjoints: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    for output, inputs, backward_fn in reversed(tape.nodes):
        out_grad = adjoints.pop(id(output), None)
        if out_grad is None:
            continue
        input_grads = backward_fn(out_grad)
        for tensor, grad in zip(inputs, input_grads):
            if grad is None:
                continue
            if isinstance(tensor, Parameter):
                tensor.grad += grad
            elif tensor.requires_grad:
                prev = adjoints.get(id(tensor))
                adjoints[id(tensor)] = grad if prev is None else prev + grad
