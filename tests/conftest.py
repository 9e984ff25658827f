"""Shared test helpers: finite-difference gradient checking and tiny
network/dataset factories."""

import struct
from pathlib import Path

from rcnet.cli import _cap_threads

# The suite runs on one BLAS thread, as `RCNET_THREADS=1` runs do. The cap
# only takes effect before numpy loads, and ``rcnet.cli`` imports no numpy.
_cap_threads("1")
import numpy as np  # noqa: E402
import pytest

from rcnet.autodiff import Parameter, Tape, Tensor, backward
from rcnet.networks import NetworkSpec, build_network
from rcnet.training import RngStreams


def finite_difference_check(build_loss, params, h=1e-5, floor=1e-3):
    """Max relative error between analytic and central-difference grads.

    ``build_loss`` recomputes the scalar loss from the current parameter
    values; it must be pure (no running-stat updates). All tensors should
    be double precision. The error for element i is
    |a_i - n_i| / max(|a_i|, |n_i|, floor), so elements with healthy
    gradients are checked relatively and near-zero ones absolutely.
    """
    for p in params:
        p.grad[...] = 0.0
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(build_loss().data)
            flat[i] = orig - h
            fm = float(build_loss().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric),
                                                floor)
            worst = max(worst, err)
    return worst


def rand_param(rng, shape, scale=1.0, offset=0.0, dtype=np.float64):
    return Parameter((rng.standard_normal(shape) * scale + offset)
                     .astype(dtype))


def mse_projection(out, target_arr):
    """Asymmetric scalar functional of an op output for FD checks."""
    from rcnet import functional as F
    return F.mse_loss(out, Tensor(target_arr))


def small_r2_spec(bn_mode="independent", max_step=3, widths=(8, 32),
                  image=8, classes=3, precision="float32"):
    return NetworkSpec(arch="r2", task="classify", bn_mode=bn_mode,
                       max_step=max_step, widths=widths,
                       image_shape=(3, image, image), num_classes=classes,
                       precision=precision)


def small_r3_spec(bn_mode="independent", max_step=2, width=8, image=16,
                  precision="float32"):
    return NetworkSpec(arch="r3", task="denoise", bn_mode=bn_mode,
                       max_step=max_step, widths=(width,) * 3,
                       image_shape=(1, image, image), precision=precision)


def build_seeded(spec, seed=0):
    return build_network(spec, rng=RngStreams(seed).init)


def param_checksums(net):
    out = {}
    for name, p in net.named_parameters().items():
        out[name] = p.data.tobytes()
    for name, b in net.named_buffers().items():
        out[name] = b.tobytes()
    return out


def poison_checkpoint(src, dst, name, value=float("nan")):
    """Copy checkpoint ``src`` to ``dst`` with the first element of
    tensor ``name`` replaced by ``value``."""
    raw = bytearray(Path(src).read_bytes())
    nbytes = name.encode("utf-8")
    at = raw.index(struct.pack("<H", len(nbytes)) + nbytes) + 2 + len(nbytes)
    at += 1 + 4 * raw[at]                     # rank byte, then the dims
    raw[at:at + 4] = struct.pack("<f", value)
    Path(dst).write_bytes(bytes(raw))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
