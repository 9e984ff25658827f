"""Checkpoint serialization.

Layout (all little-endian):

    magic   8 bytes  b"RCNETCKP"
    version u32
    hlen    u64      header length in bytes
    header  hlen     canonical JSON: format_version, spec, iteration,
                     epoch, trained_support, rng, optimizer, updates
    count   u64      number of tensors
    per tensor:
        nlen u16, name utf-8, ndim u8, dims u32*ndim, data

Tensor names are sorted, and the header JSON is canonical
(sorted keys, no whitespace), so save -> load -> save is byte-identical.
The payload is float32, except the optimizer buffers that ``optim``
declares float64 (Adam's moments): double-precision networks are a
verification mode and are refused rather than silently truncated. Each
parameter's optimizer state is the buffers that the header
``optimizer``'s update rule declares in its ``STATE``, stored as
``<name>.<key>``; Adam's bias correction restarts from the header's
``updates``. Non-finite values are refused on save and on load. A save
writes ``<path>.tmp`` and renames it over ``path``, so an interrupted
save leaves the previous file intact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import CheckpointError, NumericalCheckError
from .networks import ExpandedNetwork, Network, NetworkSpec, build_network
from .optim import OPTIMIZERS, state_buffers
from .training import RngStreams

MAGIC = b"RCNETCKP"
FORMAT_VERSION = 1

_EMPTY_TRAINER_STATE = {"iteration": 0, "epoch": 0, "rng": None,
                        "optimizer": "sgd", "updates": 0}
_FLOAT64_SUFFIXES = tuple(f".{key}" for rule in OPTIMIZERS.values()
                          for key, dtype in rule.STATE.items()
                          if dtype == np.float64)


def _stored_dtype(name: str) -> str:
    return "<f8" if name.endswith(_FLOAT64_SUFFIXES) else "<f4"


def _tensor_table(network: Network,
                  optimizer: str = "sgd") -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    for name, p in network.named_parameters().items():
        table[name] = p.data
        for key, buf in state_buffers(p, OPTIMIZERS[optimizer]).items():
            table[f"{name}.{key}"] = buf
    table.update(network.named_buffers())
    return table


def _first_non_finite(table: dict[str, np.ndarray]) -> str | None:
    return next((name for name in sorted(table)
                 if not np.isfinite(table[name]).all()), None)


def save_checkpoint(path, network: Network,
                    trainer_state: dict | None = None) -> None:
    if network.spec.precision != "float32":
        raise CheckpointError(
            "checkpoints store float32 tensors; a "
            f"{network.spec.precision} network cannot be checkpointed")
    if isinstance(network, ExpandedNetwork):
        raise CheckpointError(
            f"not writing {path}: an untied expansion cannot be "
            f"checkpointed; its spec rebuilds the recurrent network")
    state = {**_EMPTY_TRAINER_STATE, **(trainer_state or {})}
    _check_optimizer(state["optimizer"], f"not writing {path}: trainer_state")
    header = {
        "format_version": FORMAT_VERSION,
        "spec": asdict(network.spec),
        "iteration": int(state["iteration"]),
        "epoch": int(state["epoch"]),
        "trained_support": network.trained_support,
        "rng": state["rng"],
        "optimizer": state["optimizer"],
        "updates": int(state["updates"]),
    }
    hbytes = json.dumps(header, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    table = _tensor_table(network, state["optimizer"])
    bad = _first_non_finite(table)
    if bad is not None:
        raise NumericalCheckError(
            f"tensor '{bad}' has non-finite values; not writing {path}")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            f.write(struct.pack("<Q", len(hbytes)))
            f.write(hbytes)
            f.write(struct.pack("<Q", len(table)))
            for name in sorted(table):
                arr = np.ascontiguousarray(table[name],
                                           dtype=_stored_dtype(name))
                nbytes = name.encode("utf-8")
                f.write(struct.pack("<H", len(nbytes)))
                f.write(nbytes)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _unpack(fmt: str, data: bytes, offset: int, path, what: str) -> tuple:
    if offset + struct.calcsize(fmt) > len(data):
        raise CheckpointError(f"{path}: truncated {what} at byte {offset}")
    return struct.unpack_from(fmt, data, offset)


def _read_header(data: bytes, path) -> tuple[dict, int]:
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version, = _unpack("<I", data, 8, path, "format version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} != supported {FORMAT_VERSION}")
    hlen, = _unpack("<Q", data, 12, path, "header length")
    if 20 + hlen > len(data):
        raise CheckpointError(f"{path}: corrupt header (length {hlen})")
    try:
        header = json.loads(data[20:20 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header JSON ({e})") from e
    return header, 20 + hlen


def _read_tensors(data: bytes, offset: int, path) -> dict[str, np.ndarray]:
    count, = _unpack("<Q", data, offset, path, "tensor count")
    offset += 8
    table: dict[str, np.ndarray] = {}
    for _ in range(count):
        nlen, = _unpack("<H", data, offset, path, "tensor name length")
        offset += 2
        try:
            name = data[offset:offset + nlen].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: corrupt tensor name ({e})") from e
        offset += nlen
        ndim, = _unpack("<B", data, offset, path, f"rank of tensor '{name}'")
        offset += 1
        shape = _unpack(f"<{ndim}I", data, offset, path,
                        f"shape of tensor '{name}'")
        offset += 4 * ndim
        dtype = np.dtype(_stored_dtype(name))
        nbytes = dtype.itemsize * math.prod(shape)
        raw = data[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(
                f"{path}: truncated payload for tensor '{name}'")
        offset += nbytes
        table[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return table


def _install(network: Network, table: dict[str, np.ndarray], path,
             optimizer: str = "sgd") -> None:
    expected = _tensor_table(network, optimizer)
    unknown = sorted(set(table) - set(expected))
    if unknown:
        raise CheckpointError(
            f"{path}: checkpoint contains unknown tensor '{unknown[0]}' "
            f"({len(unknown)} unknown in total)")
    missing = sorted(set(expected) - set(table))
    if missing:
        raise CheckpointError(
            f"{path}: checkpoint is missing tensor '{missing[0]}' "
            f"({len(missing)} missing in total)")
    for name, dst in expected.items():
        src = table[name]
        if src.shape != dst.shape:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {src.shape}, spec "
                f"expects {dst.shape}")
        dst[...] = src


def _check_optimizer(optimizer, where: str) -> None:
    """Raise CheckpointError unless ``optimizer`` names an update rule."""
    names = tuple(OPTIMIZERS)
    if optimizer not in names:  # a tuple: a JSON list is unhashable
        raise CheckpointError(f"{where} optimizer must be one of {names}, "
                              f"got {optimizer!r}")


def _check_header_state(header: dict, max_step: int, path) -> None:
    """Raise CheckpointError unless the header's trainer state and trained
    support have the types and ranges that training writes."""
    for key in ("iteration", "epoch", "updates"):
        value = header.get(key, 0)
        if type(value) is not int or value < 0:
            raise CheckpointError(
                f"{path}: header {key} must be an integer >= 0, got {value!r}")
    _check_optimizer(header.get("optimizer", "sgd"), f"{path}: header")
    rng = header.get("rng")
    if rng is not None:
        try:
            RngStreams(0).set_state(rng)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CheckpointError(
                f"{path}: header rng is missing a stream or holds an "
                f"invalid one ({e!r})") from e
    support = header.get("trained_support")
    if support is not None and not (
            isinstance(support, list) and support
            and all(type(s) is int and 1 <= s <= max_step for s in support)
            and len(set(support)) == len(support)):
        raise CheckpointError(
            f"{path}: header trained_support must be null or a non-empty "
            f"list of distinct steps in [1, {max_step}], got {support!r}")


def load_checkpoint(path) -> tuple[Network, dict]:
    """Rebuild the stored network; returns (network, trainer_state)."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    header, offset = _read_header(data, path)
    try:
        spec = NetworkSpec(**header["spec"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid network spec in header ({e})") \
            from e
    _check_header_state(header, spec.max_step, path)
    table = _read_tensors(data, offset, path)
    del data  # the table holds copies; free the file before the build
    bad = _first_non_finite(table)
    if bad is not None:
        raise CheckpointError(f"{path}: tensor '{bad}' has non-finite values")
    network = build_network(spec, seed=0)
    _install(network, table, path, header.get("optimizer", "sgd"))
    network.trained_support = header.get("trained_support")
    return network, {k: header.get(k, v)
                     for k, v in _EMPTY_TRAINER_STATE.items()}
