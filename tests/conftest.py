"""Shared test helpers: finite-difference gradient checking, tiny
network/dataset factories and a file-mutation strategy for fuzzing."""

import os
import struct
from pathlib import Path

# The suite runs on one BLAS thread, as `RCNET_THREADS=1` runs do.
# `import rcnet` applies the cap, which only takes effect before numpy loads.
os.environ.setdefault("RCNET_THREADS", "1")
import rcnet  # noqa: E402,F401
import numpy as np  # noqa: E402
import pytest
from hypothesis import strategies as st

from rcnet.autodiff import Parameter, Tape, Tensor, backward
from rcnet.networks import NetworkSpec, build_network
from rcnet.training import RngStreams


def finite_difference_check(build_loss, params, h=1e-5, floor=1e-3):
    """Max relative error between analytic and central-difference grads.

    ``build_loss`` recomputes the scalar loss from the current parameter
    values; the loss must depend on the parameters only (a train-mode BN
    forward may move running statistics it does not read). All tensors
    should be double precision. The error for element i is
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


def checkpoint_records(raw: bytes):
    """Checkpoint bytes ``raw`` split into the bytes before the tensor
    count and a list of (name, record bytes), one per stored tensor."""
    hlen, = struct.unpack_from("<Q", raw, 12)
    at = 20 + hlen
    count, = struct.unpack_from("<Q", raw, at)
    at += 8
    records = []
    for _ in range(count):
        start = at
        nlen, = struct.unpack_from("<H", raw, at)
        name = raw[at + 2:at + 2 + nlen].decode("utf-8")
        at += 2 + nlen
        ndim = raw[at]
        shape = struct.unpack_from(f"<{ndim}I", raw, at + 1)
        at += 1 + 4 * ndim
        itemsize = 8 if name.endswith((".adam_m", ".adam_v")) else 4
        at += itemsize * int(np.prod(shape))
        records.append((name, raw[start:at]))
    return raw[:20 + hlen], records


def tensor_record(name: str, arr) -> bytes:
    """One stored float32 tensor record, as a save writes it."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    nbytes = name.encode("utf-8")
    return (struct.pack("<H", len(nbytes)) + nbytes
            + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape)
            + arr.tobytes())


def join_checkpoint(head: bytes, records) -> bytes:
    """Checkpoint bytes from ``head`` and (name, record bytes) pairs, the
    inverse of :func:`checkpoint_records`."""
    return head + struct.pack("<Q", len(records)) \
        + b"".join(record for _, record in records)


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """``blob`` after one to three bit flips, insertions of 1-8 random
    bytes, or truncations."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "insert", "truncate")))
        if kind == "flip" and blob:
            i = draw(st.integers(0, len(blob) - 1))
            bit = 1 << draw(st.integers(0, 7))
            blob = blob[:i] + bytes([blob[i] ^ bit]) + blob[i + 1:]
        elif kind == "insert":
            i = draw(st.integers(0, len(blob)))
            blob = blob[:i] + draw(st.binary(min_size=1, max_size=8)) \
                + blob[i:]
        else:
            blob = blob[:draw(st.integers(0, len(blob)))]
    return blob


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
