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

    def __init__(self, data):
        arr = np.asarray(data)
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

    def __repr__(self) -> str:
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Learnable tensor with a gradient accumulator.

    ``grad`` is created as zeros on first use, so a network that only
    runs forward passes holds no gradients. ``is_shared`` marks weights
    shared across unroll steps; the optimizer scales their step by its
    ``shared_lr_scale``. ``state`` maps the name of each optimizer buffer
    to its array; the update rules in ``optim`` declare and create them.
    A deep copy holds a copy of the value and keeps ``is_shared``, with no
    gradient and no state.
    """

    __slots__ = ("_grad", "is_shared", "state")

    def __init__(self, data, is_shared: bool = False):
        super().__init__(data)
        self.requires_grad = True
        self._grad: Optional[np.ndarray] = None
        self.is_shared = bool(is_shared)
        self.state: dict[str, np.ndarray] = {}

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def __deepcopy__(self, memo) -> "Parameter":
        return Parameter(self.data.copy(), self.is_shared)

    def __repr__(self) -> str:
        return f"Parameter(shape={tuple(self.shape)}, shared={self.is_shared})"


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
