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

Tensor names ascend strictly (a repeated or out-of-order name is refused
on load), and the header JSON is canonical (sorted keys, no whitespace),
so save -> load -> save is byte-identical. The payload is float32, except
the optimizer buffers that ``optim`` declares float64 (Adam's moments):
double-precision networks are a verification mode and are refused rather
than silently truncated. Each parameter's optimizer state is the buffers
that the header ``optimizer``'s update rule declares in its ``STATE``,
stored as ``<name>.<key>``; a buffer the network does not hold is written
as zeros without being created, so a save leaves its network as it was.
Adam's bias correction restarts from the header's ``updates``. Non-finite
values are refused on save and on load. A save writes ``<path>.tmp`` and
renames it over ``path``, so an interrupted save leaves the previous file
intact. A load builds the network from the header, then streams each
tensor from the file straight into its array: it holds neither the file
nor a table of copies, and checks every length it reads against the
bytes left in the file before it allocates anything.
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


def _tensor_table(network: Network, optimizer: str = "sgd",
                  create: bool = False) -> dict[str, np.ndarray]:
    """Every tensor a checkpoint of ``network`` stores, by name; missing
    optimizer buffers are created only when ``create`` (a load reads into
    them)."""
    table: dict[str, np.ndarray] = {}
    for name, p in network.named_parameters().items():
        table[name] = p.data
        for key, buf in state_buffers(p, OPTIMIZERS[optimizer],
                                      create).items():
            table[f"{name}.{key}"] = buf
    table.update(network.named_buffers())
    return table


def _first_non_finite(table: dict[str, np.ndarray]) -> str | None:
    return next((name for name in sorted(table)
                 if not np.isfinite(table[name]).all()), None)


def save_checkpoint(path, network: Network,
                    trainer_state: dict | None = None) -> None:
    """Write ``network`` and ``trainer_state`` to ``path``. An optimizer
    buffer the network does not hold is written as zeros; the save creates
    none, so it leaves the network as it was."""
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
                f.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Source:
    """A checkpoint file read front to back. Every read is checked against
    the bytes left, so a length field that overstates the file raises
    CheckpointError before anything is allocated for it."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.size = f.seek(0, os.SEEK_END)
        self.pos = f.seek(0)

    def _take(self, n: int, what: str) -> int:
        if n > self.size - self.pos:
            raise CheckpointError(
                f"{self.path}: truncated {what} at byte {self.pos}")
        self.pos += n
        return n

    def read(self, n: int, what: str) -> bytes:
        return self.f.read(self._take(n, what))

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def readinto(self, arr: np.ndarray, what: str) -> None:
        n = self._take(arr.nbytes, what)
        if self.f.readinto(arr) != n:
            raise CheckpointError(f"{self.path}: {what} ends early")

    def skip(self, n: int, what: str) -> None:
        self.f.seek(self._take(n, what), os.SEEK_CUR)


def _read_header(src: _Source) -> dict:
    if src.read(min(8, src.size), "magic") != MAGIC:
        raise CheckpointError(f"{src.path}: not a checkpoint file (bad magic)")
    version, = src.unpack("<I", "format version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{src.path}: format version {version} != "
                              f"supported {FORMAT_VERSION}")
    hlen, = src.unpack("<Q", "header length")
    if hlen > src.size - src.pos:
        raise CheckpointError(f"{src.path}: corrupt header (length {hlen})")
    try:
        return json.loads(src.read(hlen, "header").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{src.path}: corrupt header JSON ({e})") from e


def _read_tensors(src: _Source, expected: dict[str, np.ndarray]) -> None:
    """Read each stored tensor into its array in ``expected``; raise
    CheckpointError unless the records name exactly the expected tensors,
    in ascending order, with their shapes and finite values, and end the
    file."""
    path = src.path
    count, = src.unpack("<Q", "tensor count")
    seen: set[str] = set()
    unknown: set[str] = set()
    last = ""
    for _ in range(count):
        nlen, = src.unpack("<H", "tensor name length")
        try:
            name = src.read(nlen, "tensor name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: corrupt tensor name ({e})") from e
        ndim, = src.unpack("<B", f"rank of tensor '{name}'")
        shape = src.unpack(f"<{ndim}I", f"shape of tensor '{name}'")
        dtype = np.dtype(_stored_dtype(name))
        what = f"payload of tensor '{name}'"
        dst = expected.get(name)
        if dst is None:  # reported once every record is read
            unknown.add(name)
            src.skip(dtype.itemsize * math.prod(shape), what)
            continue
        if name in seen:
            raise CheckpointError(f"{path}: tensor '{name}' is stored twice")
        if name < last:
            raise CheckpointError(
                f"{path}: tensor '{name}' is out of order: it follows "
                f"'{last}', and names must ascend")
        if shape != dst.shape:
            raise CheckpointError(
                f"{path}: tensor '{name}' has shape {shape}, spec "
                f"expects {dst.shape}")
        if dst.dtype == dtype and dst.flags.c_contiguous:
            src.readinto(dst, what)
        else:  # a header spec that is not float32, or a big-endian host
            stored = np.empty(shape, dtype)
            src.readinto(stored, what)
            dst[...] = stored
        if not np.isfinite(dst).all():
            raise CheckpointError(f"{path}: tensor '{name}' has non-finite "
                                  f"values")
        seen.add(name)
        last = name
    if src.pos != src.size:
        raise CheckpointError(f"{path}: {src.size - src.pos} trailing bytes")
    if unknown:
        raise CheckpointError(
            f"{path}: checkpoint contains unknown tensor '{min(unknown)}' "
            f"({len(unknown)} unknown in total)")
    missing = sorted(set(expected) - seen)
    if missing:
        raise CheckpointError(
            f"{path}: checkpoint is missing tensor '{missing[0]}' "
            f"({len(missing)} missing in total)")


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
        with open(path, "rb") as f:
            return _load(_Source(f, path))
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e


def _load(src: _Source) -> tuple[Network, dict]:
    header = _read_header(src)
    try:
        spec = NetworkSpec(**header["spec"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(
            f"{src.path}: invalid network spec in header ({e})") from e
    _check_header_state(header, spec.max_step, src.path)
    network = build_network(spec, seed=0)
    _read_tensors(src, _tensor_table(network, header.get("optimizer", "sgd"),
                                     create=True))
    network.trained_support = header.get("trained_support")
    return network, {k: header.get(k, v)
                     for k, v in _EMPTY_TRAINER_STATE.items()}
