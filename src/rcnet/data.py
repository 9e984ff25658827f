"""Datasets and image I/O.

CIFAR-10 binary shards (3073-byte records: 1 label byte + 3072 pixel
bytes, channel-planar R,G,B), synthetic classification/texture
generators, Gaussian noise pairs, PSNR, binary PGM (P5), and a minimal
framed raw-float32 tensor format (".rct").
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

CIFAR_RECORD_BYTES = 3073
CIFAR_TRAIN_SHARDS = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_SHARDS = ["test_batch.bin"]
PSNR_CAP_DB = 99.0


@dataclass
class LabeledDataset:
    """Images [N,C,H,W] scaled to [0,1] with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or len(self.images) == 0:
            raise DataError(f"images must be non-empty [N,C,H,W], got "
                            f"{self.images.shape}")
        if self.labels.shape != (len(self.images),):
            raise DataError("labels/images length mismatch")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataError(
                f"labels outside [0, {self.num_classes}): "
                f"min={self.labels.min()}, max={self.labels.max()}")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def frame(self) -> tuple[int, int]:
        """H x W of the images one epoch trains on."""
        return self.images.shape[2:]

    def epoch(self, data_rng, noise_rng):
        """One epoch's (inputs, targets): the stored images and labels."""
        return self.images, self.labels


@dataclass
class DenoisePair:
    """Clean/noisy image pair on the 0-255 scale; noisy is unclipped."""

    clean: np.ndarray   # [C,H,W]
    noisy: np.ndarray   # [C,H,W]


@dataclass
class DenoiseSet:
    """Training-side denoise data: clean images only.

    The trainer draws fresh noise every epoch from its own seeded
    stream, so pairs are never stored. With ``patch_size`` set (and
    smaller than both image sides), each epoch trains on one random crop
    per image instead of the full frame.
    """

    clean: np.ndarray   # [N,C,H,W] in [0, 255]
    sigma: float
    patch_size: int | None = None

    def __len__(self) -> int:
        return len(self.clean)

    @property
    def frame(self) -> tuple[int, int]:
        """H x W of the images one epoch trains on: the crop, if any."""
        hh, ww = self.clean.shape[2:]
        p = self.patch_size
        return (p, p) if p is not None and p < min(hh, ww) else (hh, ww)

    def epoch(self, data_rng, noise_rng):
        """One epoch's (noisy, clean): the crops draw every top, then every
        left, from ``data_rng``; fresh noise comes from ``noise_rng``."""
        clean = self.clean
        n, _, hh, ww = clean.shape
        ph, pw = self.frame
        if (ph, pw) != (hh, ww):
            tops = data_rng.integers(0, hh - ph + 1, size=n)
            lefts = data_rng.integers(0, ww - pw + 1, size=n)
            clean = np.stack([c[:, t:t + ph, l:l + pw]
                              for c, t, l in zip(clean, tops, lefts)])
        noise = noise_rng.standard_normal(clean.shape, dtype=np.float32)
        return clean + np.float32(self.sigma) * noise, clean


@dataclass
class DenoiseEvalSet:
    """Evaluation-side denoise data: pairs with frozen noise, all of one
    [C,H,W] shape (the evaluator forwards them stacked)."""

    pairs: list[DenoisePair]

    def __len__(self) -> int:
        return len(self.pairs)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format

def load_cifar10(path, split: str = "train") -> LabeledDataset:
    """Load CIFAR-10 binary shards from a directory (standard shard
    names) or a single ``.bin`` file."""
    p = Path(path)
    if p.is_dir():
        names = CIFAR_TRAIN_SHARDS if split == "train" else CIFAR_TEST_SHARDS
        shards = [p / n for n in names]
        missing = [str(s) for s in shards if not s.exists()]
        if missing:
            raise DataError(f"missing CIFAR shards: {missing}")
    elif p.exists():
        shards = [p]
    else:
        raise DataError(f"no such CIFAR path: {p}")

    images, labels = [], []
    for shard in shards:
        try:
            buf = np.fromfile(shard, dtype=np.uint8)
        except OSError as e:
            raise DataError(f"cannot read CIFAR shard {shard}: {e}") from e
        if buf.size == 0 or buf.size % CIFAR_RECORD_BYTES:
            raise DataError(
                f"truncated CIFAR shard {shard}: {buf.size} bytes is not a "
                f"positive multiple of {CIFAR_RECORD_BYTES} (trailing record "
                f"starts at byte offset "
                f"{buf.size - buf.size % CIFAR_RECORD_BYTES})")
        rec = buf.reshape(-1, CIFAR_RECORD_BYTES)
        lab = rec[:, 0].astype(np.int64)
        if lab.max(initial=0) > 9:
            raise DataError(
                f"CIFAR shard {shard} has label byte {lab.max()} > 9")
        images.append(rec[:, 1:].reshape(-1, 3, 32, 32)
                      .astype(np.float32) / 255.0)
        labels.append(lab)
    return LabeledDataset(np.concatenate(images), np.concatenate(labels),
                          num_classes=10)


# ---------------------------------------------------------------------------
# synthetic generators

def make_synthetic_classification(num_classes: int, samples: int,
                                  image_size: int, seed,
                                  channels: int = 3,
                                  noise: float = 0.15) -> LabeledDataset:
    """Class-conditional oriented gratings with random phase.

    The random phase makes every class zero-mean on raw pixels, so a
    linear probe on pixels stays near chance while small conv filters
    separate the orientations easily. Deterministic per seed; labels are
    round-robin, so the histogram is exactly uniform when
    ``samples % num_classes == 0``.
    """
    if num_classes < 2 or samples < 1 or image_size < 4:
        raise DataError("need num_classes >= 2, samples >= 1, image_size >= 4")
    rng = np.random.default_rng(seed)
    labels = np.arange(samples, dtype=np.int64) % num_classes
    angles = np.pi * labels / num_classes
    phases = rng.uniform(0.0, 2.0 * np.pi, size=samples)
    amps = rng.uniform(0.3, 0.6, size=samples)

    yy, xx = np.mgrid[0:image_size, 0:image_size].astype(np.float64)
    cycles = 3.0
    shape = (channels, image_size, image_size)
    imgs = np.empty((samples, *shape), dtype=np.float32)
    # about 1 MiB of float64 noise at a time; the noise is drawn chunk
    # after chunk, which gives the numbers of one draw of the whole set
    chunk = max(1, (1 << 20) // (8 * math.prod(shape)))
    for lo in range(0, samples, chunk):
        part = slice(lo, lo + chunk)
        proj = (np.cos(angles[part])[:, None, None] * xx[None]
                + np.sin(angles[part])[:, None, None] * yy[None])
        pattern = amps[part, None, None] * np.sin(
            2.0 * np.pi * cycles * proj / image_size
            + phases[part, None, None])
        noisy = rng.standard_normal((len(proj), *shape))
        noisy *= noise
        noisy += 0.5 + pattern[:, None, :, :]
        imgs[part] = np.clip(noisy, 0.0, 1.0, out=noisy)
    return LabeledDataset(imgs, labels, num_classes=num_classes)


def make_synthetic_textures(count: int, size: int, seed) -> np.ndarray:
    """Smooth grayscale textures [count,1,size,size] in [0, 255]:
    mixtures of low-frequency oriented sinusoids over a random offset."""
    if count < 1 or size < 8:
        raise DataError("need count >= 1, size >= 8")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    out = np.empty((count, 1, size, size), dtype=np.float32)
    for i in range(count):
        img = np.full((size, size), rng.uniform(90.0, 160.0))
        for _ in range(3):
            theta = rng.uniform(0.0, np.pi)
            freq = rng.uniform(1.0, 3.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(15.0, 40.0)
            proj = np.cos(theta) * xx + np.sin(theta) * yy
            img = img + amp * np.sin(2.0 * np.pi * freq * proj / size + phase)
        out[i, 0] = np.clip(img, 0.0, 255.0)
    return out


# ---------------------------------------------------------------------------
# noise and PSNR

def add_gaussian_noise(clean: np.ndarray, sigma: float,
                       rng: np.random.Generator) -> DenoisePair:
    """i.i.d. zero-mean Gaussian noise on the 0-255 scale, unclipped."""
    if sigma <= 0:
        raise DataError(f"sigma must be positive, got {sigma}")
    clean = np.asarray(clean, dtype=np.float32)
    if clean.ndim != 3:
        raise DataError(f"clean image must be [C,H,W], got {clean.shape}")
    noisy = clean + sigma * rng.standard_normal(clean.shape, dtype=np.float32)
    return DenoisePair(clean=clean, noisy=noisy)


def make_denoise_eval_set(clean: np.ndarray, sigma: float,
                          seed) -> DenoiseEvalSet:
    """Freeze one noisy counterpart per clean image for evaluation."""
    rng = np.random.default_rng(seed)
    pairs = [add_gaussian_noise(img, sigma, rng) for img in clean]
    return DenoiseEvalSet(pairs=pairs)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10*log10(255^2 / MSE) in dB, capped at 99 (exact matches included)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(255.0 * 255.0 / mse))


# ---------------------------------------------------------------------------
# PGM (binary, P5)

def read_pgm(path) -> np.ndarray:
    """Read an 8-bit (maxval 255) binary PGM into a float32 [H,W] array."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from e
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary (P5) PGM file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        # int() refuses digit strings past 4300 digits with a ValueError
        if not token.isdigit() or len(token) > 9:
            raise DataError(f"{path}: malformed PGM header near byte {start}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: PGM maxval {maxval} not supported "
                        f"(8-bit PGMs have maxval 255)")
    pos += 1  # single whitespace after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise DataError(
            f"{path}: expected {width * height} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8) \
        .reshape(height, width).astype(np.float32)


def write_pgm(path, image: np.ndarray) -> None:
    """Write a [H,W] array (values clipped/rounded to 0..255) as P5."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise DataError(f"PGM image must be [H,W], got {img.shape}")
    u8 = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    h, w = u8.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(u8.tobytes())


def load_pgm_folder(path) -> np.ndarray:
    """Stack every ``*.pgm`` in a directory (sorted by name) into
    [N,1,H,W] float32 on the 0-255 scale; all images must share a size."""
    p = Path(path)
    files = sorted(p.glob("*.pgm"))
    if not files:
        raise DataError(f"no .pgm files in {p}")
    imgs = [read_pgm(f) for f in files]
    shapes = {im.shape for im in imgs}
    if len(shapes) > 1:
        raise DataError(f"{p}: mixed image sizes {sorted(shapes)}")
    return np.stack(imgs)[:, None, :, :]


# ---------------------------------------------------------------------------
# framed raw float32 tensors

RCT_MAGIC = b"RCT0"


def write_rct(path, array: np.ndarray) -> None:
    """Raw little-endian float32 dump with a minimal shape header."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as f:
        f.write(RCT_MAGIC)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.tobytes())


def read_rct(path) -> np.ndarray:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read tensor {path}: {e}") from e
    if data[:4] != RCT_MAGIC:
        raise DataError(f"{path}: not a raw tensor (RCT0) file")
    if len(data) < 8:
        raise DataError(f"{path}: truncated header ({len(data)} bytes)")
    ndim, = struct.unpack_from("<I", data, 4)
    if ndim > 8:
        raise DataError(f"{path}: implausible rank {ndim}")
    offset = 8 + 4 * ndim
    if len(data) < offset:
        raise DataError(f"{path}: truncated shape of a rank-{ndim} tensor")
    shape = struct.unpack_from(f"<{ndim}I", data, 8)
    count = math.prod(shape)
    payload = data[offset:]
    if len(payload) != 4 * count:
        raise DataError(
            f"{path}: expected {4 * count} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
