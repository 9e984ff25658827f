"""Checkpoint serialization.

Layout (all little-endian):

    magic   8 bytes  b"RCNETCKP"
    version u32
    hlen    u64      header length in bytes
    header  hlen     canonical JSON: format_version, spec, iteration,
                     epoch, trained_support, rng
    count   u64      number of tensors
    per tensor:
        nlen u16, name utf-8, ndim u8, dims u32*ndim, float32 data

Tensor names are sorted, and the header JSON is canonical
(sorted keys, no whitespace), so save -> load -> save is byte-identical.
The payload is float32: double-precision networks are a verification
mode and are refused rather than silently truncated. Non-finite values
are refused on save and on load. A save writes ``<path>.tmp`` and
renames it over ``path``, so an interrupted save leaves the previous
file intact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError, NumericalCheckError
from .networks import Network, NetworkSpec, build_network

MAGIC = b"RCNETCKP"
FORMAT_VERSION = 1

_EMPTY_TRAINER_STATE = {"iteration": 0, "epoch": 0, "rng": None}


def _tensor_table(network: Network) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    for name, p in network.named_parameters().items():
        table[name] = p.data
        table[f"{name}.momentum"] = p.momentum_buf
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
    state = dict(_EMPTY_TRAINER_STATE)
    if trainer_state:
        state.update(trainer_state)
    header = {
        "format_version": FORMAT_VERSION,
        "spec": network.spec.to_dict(),
        "iteration": int(state["iteration"]),
        "epoch": int(state["epoch"]),
        "trained_support": network.trained_support,
        "rng": state["rng"],
    }
    hbytes = json.dumps(header, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    table = _tensor_table(network)
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
                arr = np.ascontiguousarray(table[name], dtype="<f4")
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
        n = math.prod(shape)
        raw = data[offset:offset + 4 * n]
        if len(raw) != 4 * n:
            raise CheckpointError(
                f"{path}: truncated payload for tensor '{name}'")
        offset += 4 * n
        table[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if offset != len(data):
        raise CheckpointError(f"{path}: {len(data) - offset} trailing bytes")
    return table


def _install(network: Network, table: dict[str, np.ndarray], path) -> None:
    expected = _tensor_table(network)
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


def _read_checkpoint(path) -> tuple[NetworkSpec, dict[str, np.ndarray], dict]:
    """(stored spec, tensor table, header) of a checkpoint file."""
    data = Path(path).read_bytes()
    header, offset = _read_header(data, path)
    try:
        spec = NetworkSpec.from_dict(header["spec"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: invalid network spec in header ({e})") \
            from e
    table = _read_tensors(data, offset, path)
    bad = _first_non_finite(table)
    if bad is not None:
        raise CheckpointError(f"{path}: tensor '{bad}' has non-finite values")
    return spec, table, header


def _restore(network: Network, table: dict[str, np.ndarray], header: dict,
             path) -> dict:
    _install(network, table, path)
    network.trained_support = header.get("trained_support")
    return {"iteration": header.get("iteration", 0),
            "epoch": header.get("epoch", 0),
            "rng": header.get("rng")}


def load_checkpoint(path) -> tuple[Network, dict]:
    """Rebuild the stored network; returns (network, trainer_state)."""
    spec, table, header = _read_checkpoint(path)
    network = build_network(spec, seed=0)
    return network, _restore(network, table, header, path)


def restore_into(network: Network, path) -> dict:
    """Load a checkpoint into an existing network; the stored spec must
    match the network's spec exactly."""
    stored, table, header = _read_checkpoint(path)
    if stored != network.spec:
        raise CheckpointError(
            f"{path}: checkpoint was written for a different network spec "
            f"({stored.to_dict()} != {network.spec.to_dict()})")
    return _restore(network, table, header, path)
