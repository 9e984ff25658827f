"""Differentiable tensor ops: convolution, batch normalization, pooling,
invertible space-to-depth, linear maps and losses.

All kernels are plain numpy in NCHW layout. Convolution runs at stride 1
with k//2 zero padding, so it keeps H x W; networks downsample by pooling
(:func:`avgpool2d`, :func:`invpool`), never by a strided convolution. It
uses cross-correlation semantics (no kernel flip) and BLAS matmul.

:func:`conv2d` has one kernel, ``_conv_shifted``, with three uses:

- The forward, taped or not, runs ``kh`` GEMMs over ``kw`` width-shifted
  copies of the input, a partial im2col (Anderson et al.,
  arXiv:1709.03395; Vasudevan et al., arXiv:1704.04428). The copies sit in
  a zeroed ``[m, c, kw, h + 2*ph, w]`` buffer whose padding rows and
  shifted-out columns stay zero, so kernel row ``i`` reads rows ``i`` to
  ``i + h`` of it in place as a strided ``(c*kw, h*w)`` matrix: there is no
  ``np.pad`` and no ``kh``-fold column copy. Each image's output comes from
  the same GEMMs whatever the batch, so its bits do not depend on the
  batch, and a taped forward has the bits of an untaped one.
- The input gradient is the same kernel applied to the output gradient,
  with the weight flipped in both spatial axes and its ``o`` and ``c``
  axes swapped.
- The weight gradient refills the same shifted buffer from the input, one
  chunk at a time, and adds the chunk's ``kh`` products
  ``g @ rows_i^T`` into a ``[kh, o, c*kw]`` sum.

The tape keeps the input itself, not a padded copy or columns
(recomputation in place of storage, as in Chen et al., arXiv:1604.06174).
Every use works one chunk of images at a time, about ``_COL_CHUNK_BYTES``
of shifted copies per chunk, so each chunk is still in L2 when the GEMM
reads it; no buffer holds the whole batch's columns.

:func:`batchnorm2d` is one per-channel affine map ``x*sc + (beta - mu*sc)``,
``sc = gamma/sqrt(var + eps)``, in train and eval (Ioffe & Szegedy,
arXiv:1502.03167); the modes differ only in where ``mu`` and ``var`` come
from. Its backward needs only the per-channel sums of ``g`` and ``g*x``,
accumulated in float64, so the tape keeps ``x`` and no normalized copy.
With ``relu=True`` it also clamps its output at 0 in place, as one op
(the fused BN + activation of Rota Bulo et al., arXiv:1712.02616): the
backward masks ``g`` with ``output > 0``, so the tape keeps ``x`` and the
clamped output, and no pre-ReLU copy or mask. :func:`relu` alone likewise
reads its mask from its output.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Parameter, Tensor, record, recording


def _out(data, *inputs) -> Tensor:
    """``data`` as the output of an op on ``inputs``; it requires a
    gradient when the op records a backward."""
    y = Tensor(data)
    y.requires_grad = recording() and any(
        t.requires_grad for t in inputs if t is not None)
    return y


def _check_same_dtype(op: str, *tensors) -> None:
    dtypes = {t.dtype for t in tensors if t is not None}
    if len(dtypes) > 1:
        raise ValueError(f"{op}: mixed dtypes {sorted(map(str, dtypes))}")


# ---------------------------------------------------------------------------
# convolution

# Shifted-copy bytes per conv chunk. 256 KiB fits in the L2 of current
# server cores (256 KiB to 2 MiB) with room left for the GEMM's packed
# weight and output panels; a chunk holds at least one image.
_COL_CHUNK_BYTES = 256 * 1024


def _shifted_rows(x: np.ndarray, kh: int, kw: int):
    """Yield ``(b0, b1, rows)`` for each chunk of images ``x[b0:b1]`` of
    ``x`` [n,c,h,w]: ``rows`` [b1-b0, c*kw, (h+2*ph)*w] holds ``kw``
    width-shifted, zero-padded copies of the chunk, so kernel row ``i``
    reads ``rows[..., i*w : i*w + h*w]`` in place. One buffer serves every
    chunk; it is refilled after the consumer is done with it."""
    n, c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    chunk = min(n, max(1, _COL_CHUNK_BYTES // (c * kw * (h + 2 * ph) * w
                                               * x.itemsize)))
    # buf[:, :, j, ph + r, q] = x[:, :, r, q + j - pw]; the rest stays 0
    buf = np.zeros((chunk, c, kw, h + 2 * ph, w), dtype=x.dtype)
    rows = buf.reshape(chunk, c * kw, (h + 2 * ph) * w)
    for b0 in range(0, n, chunk):
        b1 = min(b0 + chunk, n)
        m = b1 - b0
        for j in range(kw):
            d = j - pw
            buf[:m, :, j, ph:ph + h, max(0, -d):w - max(0, d)] = \
                x[b0:b1, :, :, max(0, d):w + min(0, d)]
        yield b0, b1, rows[:m]


def _conv_shifted(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation of ``x`` [n,c,h,w] with
    ``weight`` [o,c,kh,kw] as ``kh`` GEMMs over ``kw`` width-shifted copies
    of ``x``; returns [n,o,h*w]."""
    n, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    hw = h * w
    wrows = [weight[:, :, i].reshape(o, c * kw) for i in range(kh)]
    out = np.empty((n, o, hw), dtype=x.dtype)
    part = None
    for b0, b1, rows in _shifted_rows(x, kh, kw):
        m = b1 - b0
        np.matmul(wrows[0], rows[:, :, :hw], out=out[b0:b1])
        if part is None and kh > 1:  # the first chunk is the largest
            part = np.empty((m, o, hw), dtype=x.dtype)
        for i in range(1, kh):
            np.matmul(wrows[i], rows[:, :, i * w:i * w + hw], out=part[:m])
            out[b0:b1] += part[:m]
    return out


def _conv_weight_grad(x: np.ndarray, g: np.ndarray, kh: int,
                      kw: int) -> np.ndarray:
    """Weight gradient [o,c,kh,kw] of a conv2d of ``x`` [n,c,h,w] whose
    output has the gradient ``g`` [n,o,h,w]: per chunk of ``x``'s shifted
    rows, kernel row ``i`` adds ``g_chunk @ rows_i^T`` into a [kh, o, c*kw]
    sum."""
    n, c, h, w = x.shape
    o = g.shape[1]
    hw = h * w
    gm = g.reshape(n, o, hw)
    acc = np.zeros((kh, o, c * kw), dtype=x.dtype)
    for b0, b1, rows in _shifted_rows(x, kh, kw):
        for i in range(kh):
            acc[i] += np.matmul(
                gm[b0:b1], rows[:, :, i * w:i * w + hw].transpose(0, 2, 1)
            ).sum(axis=0)
    return np.ascontiguousarray(
        acc.reshape(kh, o, c, kw).transpose(1, 2, 0, 3))


def conv2d(x: Tensor, weight: Parameter, bias: Parameter | None = None) -> Tensor:
    """Cross-correlate ``x`` [N,C,H,W] with ``weight`` [O,C,kH,kW] at
    stride 1, zero-padded by kH//2 rows and kW//2 columns, so the output
    keeps H x W. Kernel extents must be odd.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-d input/weight, got {x.shape} and {weight.shape}")
    _check_same_dtype("conv2d", x, weight, bias)
    n, c, h, w = x.shape
    o, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(
            f"conv2d channel mismatch: input {tuple(x.shape)} vs weight "
            f"{tuple(weight.shape)}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    if bias is not None and bias.shape != (o,):
        raise ValueError(
            f"conv2d bias shape {tuple(bias.shape)} != ({o},)")
    out = _conv_shifted(x.data, weight.data).reshape(n, o, h, w)
    if bias is not None:
        out += bias.data.reshape(1, o, 1, 1)
    y = _out(out, x, weight, bias)
    if not y.requires_grad:
        return y

    need_x, need_w = x.requires_grad, weight.requires_grad
    need_b = bias is not None and bias.requires_grad

    def bwd(g):
        gw = gb = gx = None
        if need_w:
            gw = _conv_weight_grad(x.data, g, kh, kw)
        if need_b:
            gb = g.sum(axis=(0, 2, 3))
        if need_x:
            # the input gradient is a convolution of g with the weight
            # flipped in both spatial axes, o and c swapped
            flipped = np.ascontiguousarray(
                weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            gx = _conv_shifted(g, flipped).reshape(n, c, h, w)
        return (gx, gw, gb) if bias is not None else (gx, gw)

    inputs = (x, weight, bias) if bias is not None else (x, weight)
    record(y, inputs, bwd)
    return y


# ---------------------------------------------------------------------------
# batch normalization

def batchnorm2d(x: Tensor, group, training: bool,
                relu: bool = False) -> Tensor:
    """Per-channel batch normalization with the group's scale/shift,
    followed by a ReLU when ``relu`` is set.

    Train mode normalizes by the batch mean and biased variance and folds
    them into the running statistics with the group's momentum. Eval mode
    normalizes by the running statistics and never changes them. Both then
    run one affine map and one backward.
    """
    if x.data.ndim != 4:
        raise ValueError(f"batchnorm2d expects [N,C,H,W], got {tuple(x.shape)}")
    n, c, h, w = x.shape
    if group.channels != c:
        raise ValueError(
            f"batchnorm2d channel mismatch: input has {c} channels, "
            f"group has {group.channels}")
    gamma, beta = group.gamma, group.beta
    _check_same_dtype("batchnorm2d", x, gamma, beta)
    group.use_count += 1

    m = n * h * w
    if training:
        if m < 2:
            raise ValueError(
                "batchnorm2d: train mode needs at least 2 values per channel "
                f"(got N*H*W = {m})")
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        mom = group.momentum
        group.running_mean *= 1.0 - mom
        group.running_mean += mom * mu
        group.running_var *= 1.0 - mom
        group.running_var += mom * var
    else:
        # copied for the backward: a train-mode forward updates the running
        # statistics in place
        mu, var = group.running_mean.copy(), group.running_var
    invstd = 1.0 / np.sqrt(var + x.dtype.type(group.eps))
    sc = gamma.data * invstd
    out = x.data * sc.reshape(1, c, 1, 1)
    out += (beta.data - mu * sc).reshape(1, c, 1, 1)
    if relu:
        np.maximum(out, 0, out=out)
    y = _out(out, x, gamma, beta)

    if y.requires_grad:
        need_x = x.requires_grad

        def bwd(g):
            if relu:
                # a fresh array, so the scaling below may overwrite it
                g = g * (out > 0)
            g3, x3 = g.reshape(n, c, h * w), x.data.reshape(n, c, h * w)
            sum_g = np.einsum("nci->c", g3, dtype=np.float64)
            sum_gx = np.einsum("nci,nci->c", g3, x3, dtype=np.float64)
            dgamma = (sum_gx - mu * sum_g) * invstd
            dx = None
            if need_x:
                dx = np.multiply(g, sc.reshape(1, c, 1, 1),
                                 out=g if relu else None)
                if training:
                    # the batch statistics' own gradient: x*k1 + k0
                    k1 = -sc * dgamma * invstd / m
                    k0 = -sc * sum_g / m - mu * k1
                    dx += x.data * k1.astype(x.dtype).reshape(1, c, 1, 1)
                    dx += k0.astype(x.dtype).reshape(1, c, 1, 1)
            return dx, dgamma.astype(x.dtype), sum_g.astype(x.dtype)

        record(y, (x, gamma, beta), bwd)
    return y


# ---------------------------------------------------------------------------
# elementwise / pooling / reshaping

def relu(x: Tensor) -> Tensor:
    y = _out(np.maximum(x.data, 0), x)
    if y.requires_grad:
        def bwd(g):
            # y > 0 exactly where x > 0: the tape keeps y, so no mask
            return (g * (y.data > 0),)

        record(y, (x,), bwd)
    return y


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; shapes must match exactly (no broadcasting)."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {tuple(a.shape)} vs {tuple(b.shape)}")
    _check_same_dtype("add", a, b)
    y = _out(a.data + b.data, a, b)
    if y.requires_grad:
        na, nb = a.requires_grad, b.requires_grad

        def bwd(g):
            return (g if na else None, g if nb else None)

        record(y, (a, b), bwd)
    return y


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar."""
    c = x.dtype.type(c)
    y = _out(x.data * c, x)
    if y.requires_grad:
        def bwd(g):
            return (g * c,)

        record(y, (x,), bwd)
    return y


def avgpool2d(x: Tensor) -> Tensor:
    """2x2 stride-2 average pooling; spatial extents must be even."""
    if x.data.ndim != 4:
        raise ValueError(f"avgpool2d expects [N,C,H,W], got {tuple(x.shape)}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"avgpool2d: odd spatial extents {h}x{w}")
    # two pairwise adds: the bits of reshape(...).mean(axis=(3, 5)) when
    # the output is at least 2 wide
    d = x.data
    out = (d[:, :, 0::2, 0::2] + d[:, :, 0::2, 1::2]) \
        + (d[:, :, 1::2, 0::2] + d[:, :, 1::2, 1::2])
    out *= x.dtype.type(0.25)
    y = _out(out, x)
    if y.requires_grad:
        def bwd(g):
            gq = g * x.dtype.type(0.25)
            dx = np.empty((n, c, h, w), dtype=g.dtype)
            dx.reshape(n, c, h // 2, 2, w // 2, 2)[...] = \
                gq[:, :, :, None, :, None]
            return (dx,)

        record(y, (x,), bwd)
    return y


def global_avgpool(x: Tensor) -> Tensor:
    """[N,C,H,W] -> [N,C] spatial mean."""
    if x.data.ndim != 4:
        raise ValueError(f"global_avgpool expects [N,C,H,W], got {tuple(x.shape)}")
    n, c, h, w = x.shape
    y = _out(x.data.mean(axis=(2, 3)), x)
    if y.requires_grad:
        inv = x.dtype.type(1.0 / (h * w))

        def bwd(g):
            return (np.broadcast_to((g * inv)[:, :, None, None],
                                    (n, c, h, w)).copy(),)

        record(y, (x,), bwd)
    return y


def linear(x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    """[N,D] x [K,D]^T + [K] -> [N,K]."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ValueError(
            f"linear expects 2-d input/weight, got {x.shape} and {weight.shape}")
    _check_same_dtype("linear", x, weight, bias)
    n, d = x.shape
    k, dw = weight.shape
    if dw != d or bias.shape != (k,):
        raise ValueError(
            f"linear shape mismatch: input {tuple(x.shape)}, weight "
            f"{tuple(weight.shape)}, bias {tuple(bias.shape)}")
    # one [1,D] x [D,K] product per row, so a row's bits do not depend on
    # the batch it is in
    out = np.matmul(x.data[:, None, :], weight.data.T)[:, 0]
    y = _out(out + bias.data, x, weight, bias)
    if y.requires_grad:
        need_x = x.requires_grad

        def bwd(g):
            dx = g @ weight.data if need_x else None
            return dx, g.T @ x.data, g.sum(axis=0)

        record(y, (x, weight, bias), bwd)
    return y


def _space_to_depth(a: np.ndarray) -> np.ndarray:
    n, c, h, w = a.shape
    return a.reshape(n, c, h // 2, 2, w // 2, 2) \
            .transpose(0, 1, 3, 5, 2, 4).reshape(n, 4 * c, h // 2, w // 2)


def _depth_to_space(a: np.ndarray) -> np.ndarray:
    n, c4, ho, wo = a.shape
    c = c4 // 4
    return a.reshape(n, c, 2, 2, ho, wo) \
            .transpose(0, 1, 4, 2, 5, 3).reshape(n, c, 2 * ho, 2 * wo)


def invpool(x: Tensor) -> Tensor:
    """Invertible 2x2 space-to-depth: [N,C,H,W] -> [N,4C,H/2,W/2].

    Output channel 4c+k holds the k-th 2x2-decimated copy of input
    channel c, phases in row-major order. Parameter-free and exactly
    inverted by :func:`invpool_inverse`.
    """
    if x.data.ndim != 4:
        raise ValueError(f"invpool expects [N,C,H,W], got {tuple(x.shape)}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"invpool: odd spatial extents {h}x{w}")
    y = _out(_space_to_depth(x.data), x)
    if y.requires_grad:
        def bwd(g):
            return (_depth_to_space(g),)

        record(y, (x,), bwd)
    return y


def invpool_inverse(x: Tensor) -> Tensor:
    """Exact inverse of :func:`invpool`: [N,4C,H,W] -> [N,C,2H,2W]."""
    if x.data.ndim != 4:
        raise ValueError(f"invpool_inverse expects [N,C,H,W], got {tuple(x.shape)}")
    if x.shape[1] % 4:
        raise ValueError(
            f"invpool_inverse: channel count {x.shape[1]} not divisible by 4")
    y = _out(_depth_to_space(x.data), x)
    if y.requires_grad:
        def bwd(g):
            return (_space_to_depth(g),)

        record(y, (x,), bwd)
    return y


# ---------------------------------------------------------------------------
# losses

def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax(logits) [N,K] against int labels [N].

    Softmax is computed with max subtraction for stability.
    """
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be [N,K], got {tuple(logits.shape)}")
    lab = np.asarray(labels)
    n, k = logits.shape
    if lab.shape != (n,) or not np.issubdtype(lab.dtype, np.integer):
        raise ValueError(f"labels must be {n} integers, got shape {lab.shape} "
                         f"dtype {lab.dtype}")
    if lab.min() < 0 or lab.max() >= k:
        raise ValueError(
            f"label out of range [0, {k}): min={lab.min()}, max={lab.max()}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    se = ez.sum(axis=1, keepdims=True)
    nll = np.log(se[:, 0]) - z[np.arange(n), lab]
    y = _out(np.asarray(nll.mean(), dtype=logits.dtype), logits)
    if y.requires_grad:
        def bwd(g):
            p = ez / se
            p[np.arange(n), lab] -= 1.0
            p *= logits.dtype.type(float(g) / n)
            return (p,)

        record(y, (logits,), bwd)
    return y


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    if pred.shape != target.shape:
        raise ValueError(
            f"mse_loss shape mismatch: {tuple(pred.shape)} vs {tuple(target.shape)}")
    _check_same_dtype("mse_loss", pred, target)
    diff = pred.data - target.data
    y = _out(np.asarray((diff * diff).mean(), dtype=pred.dtype), pred, target)
    if y.requires_grad:
        np_, nt = pred.requires_grad, target.requires_grad

        def bwd(g):
            d = diff * pred.dtype.type(2.0 * float(g) / diff.size)
            return (d if np_ else None, -d if nt else None)

        record(y, (pred, target), bwd)
    return y
