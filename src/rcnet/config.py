"""Experiment configuration: a strict line-based sections/key=value
format (INI dialect, no interpolation). Unknown sections or keys are
rejected so typos never pass silently; every key has a default except
dataset paths.

A key whose text does not parse is reported here; a parsed value out of
range is rejected by the dataclass or check that takes it, which raises
``ConfigError`` itself. ``parse_config`` only prefixes the config path.

The parsed section -> key -> value table is the one description of a run:
CLI overrides replace their keys in it, the values derived from other
keys are written into it, the run's objects are built from it, and
``resolved.ini`` prints it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .data import (DenoiseSet, load_cifar10, load_pgm_folder,
                   make_denoise_eval_set, make_synthetic_classification,
                   make_synthetic_textures)
from .errors import ConfigError, DataError
from .networks import TASK_BY_ARCH, NetworkSpec
from .rc import StepDistribution
from .training import TrainConfig, check_regime

# data kind -> the task (NetworkSpec.task) whose train and test sets it builds
DATA_KINDS = {"synthetic_classify": "classify", "cifar10": "classify",
              "synthetic_denoise": "denoise", "pgm_folder": "denoise"}

# defaults applied when regime = cost_adjustable leaves the step keys
# untouched: higher probability on larger steps
CA_DEFAULT_SUPPORT = (2, 3, 4)
CA_DEFAULT_PROBS = (0.2, 0.3, 0.5)


def _parse_int(v): return int(v)
def _parse_str(v): return v.strip()


def _parse_float(v):
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: '{v.strip()}'")
    return x


def _parse_bool(v):
    s = v.strip().lower()
    if s in ("true", "1", "yes", "on"):
        return True
    if s in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: '{v}'")


def _parse_int_list(v):
    return tuple(int(t) for t in v.split(",") if t.strip())


def _parse_float_list(v):
    return tuple(_parse_float(t) for t in v.split(",") if t.strip())


@dataclass
class DataConfig:
    kind: str = "synthetic_classify"
    path: str | None = None  # required for cifar10/pgm_folder
    samples: int = 2000
    test_samples: int = 500
    pattern_noise: float = 0.15
    sigma: float = 25.0
    count: int = 32
    test_count: int = 8
    patch_size: int = 40

    def __post_init__(self):
        # checked for every kind; ``not > 0`` fails a NaN sigma too
        if self.kind in ("cifar10", "pgm_folder") and not self.path:
            raise ConfigError(
                f"[data] path is required for kind '{self.kind}'")
        for key in ("samples", "test_samples", "count", "test_count",
                    "patch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[data] {key} must be >= 1, got "
                                  f"{getattr(self, key)}")
        if not self.sigma > 0:
            raise ConfigError(f"[data] sigma must be positive, got "
                              f"{self.sigma}")


@dataclass
class OutputConfig:
    dir: str = "run_out"


# a field's annotation (a string under ``from __future__ import
# annotations``) -> the parser of its key
_PARSERS = {"int": _parse_int, "float": _parse_float, "bool": _parse_bool,
            "str": _parse_str, "str | None": _parse_str}

# the [train] keys that build TrainConfig.step_distribution; None = derived
_STEP_KEYS = {
    "regime": (_parse_str, "fixed"),
    "step_support": (_parse_int_list, None),
    "step_probs": (_parse_float_list, None),
}


def _field_keys(cls) -> dict[str, tuple]:
    """One key per field of ``cls``: its name, annotation's parser and
    default; ``step_distribution`` gives way to the keys that build it."""
    keys: dict[str, tuple] = {}
    for f in fields(cls):
        if f.name == "step_distribution":
            keys.update(_STEP_KEYS)
        else:
            keys[f.name] = (_PARSERS[f.type], f.default)
    return keys


# section -> key -> (parser, default value; None = unset)
SCHEMA: dict[str, dict[str, tuple]] = {
    "network": {
        "arch": (_parse_str, "r2"),
        "bn_mode": (_parse_str, "independent"),
        "max_step": (_parse_int, 3),
        "widths": (_parse_int_list, (16, 64)),
        "image_channels": (_parse_int, 3),
        "image_size": (_parse_int, 16),
        "num_classes": (_parse_int, 3),
        "bn_eps": (_parse_float, NetworkSpec.bn_eps),
        "bn_momentum": (_parse_float, NetworkSpec.bn_momentum),
    },
    "train": _field_keys(TrainConfig),
    "data": _field_keys(DataConfig),
    "output": _field_keys(OutputConfig),
}


@dataclass
class ExperimentConfig:
    network: NetworkSpec
    train: TrainConfig
    regime: str
    data: DataConfig
    output: OutputConfig
    values: dict[str, dict]  # the table the objects above were built from

    def resolved_text(self) -> str:
        """``values`` as key = value lines in SCHEMA order, every default
        and derived value filled in; feeding this back reproduces the run."""
        lines = []
        for section, keys in SCHEMA.items():
            lines.append(f"[{section}]")
            for key in keys:
                v = self.values[section][key]
                if v is None:
                    continue
                if isinstance(v, bool):
                    v = str(v).lower()
                elif isinstance(v, tuple):
                    v = ",".join(map(repr, v))
                elif not isinstance(v, str):
                    v = repr(v)
                lines.append(f"{key} = {v}")
            lines.append("")
        return "\n".join(lines)


def _read_sections(path) -> dict[str, dict[str, str]]:
    cp = configparser.ConfigParser(interpolation=None, strict=True,
                                   inline_comment_prefixes=(";",))
    cp.optionxform = str  # keys are case-sensitive
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    return {s: dict(cp.items(s)) for s in cp.sections()}


def parse_config(path, seed: int | None = None,
                 out_dir=None) -> ExperimentConfig:
    """Parse the config at ``path``; ``seed`` and ``out_dir``, when given,
    replace the parsed ``[train] seed`` and ``[output] dir`` and are
    checked as those keys are."""
    raw = _read_sections(path)
    for section in raw:
        if section not in SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in raw[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"{path}: unknown key '{key}' in section [{section}]")

    values: dict[str, dict] = {}
    for section, keys in SCHEMA.items():
        values[section] = {}
        given = raw.get(section, {})
        for key, (parser, default) in keys.items():
            try:
                values[section][key] = (parser(given[key]) if key in given
                                        else default)
            except ValueError as e:
                raise ConfigError(
                    f"{path}: bad value for [{section}] {key}: {e}") from e
    if seed is not None:
        values["train"]["seed"] = seed
    if out_dir is not None:
        values["output"]["dir"] = str(out_dir)
    try:
        return _assemble(values)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _assemble(v: dict) -> ExperimentConfig:
    """Build the run's objects from the parsed table ``v``, writing each
    value derived from other keys back into it."""
    net, tr = v["network"], v["train"]
    data_cfg = DataConfig(**v["data"])
    regime = tr["regime"]

    if tr["step_support"] is None:
        if regime == "fixed":
            tr["step_support"] = (net["max_step"],)
        else:
            tr["step_support"] = CA_DEFAULT_SUPPORT
            if tr["step_probs"] is None:
                tr["step_probs"] = CA_DEFAULT_PROBS
    if tr["step_probs"] is None:
        tr["step_probs"] = tuple(1.0 / len(tr["step_support"])
                                 for _ in tr["step_support"])
    dist = StepDistribution(tr["step_support"], tr["step_probs"])
    check_regime(regime, net["bn_mode"], dist, net["max_step"])

    arch = net["arch"]
    task = TASK_BY_ARCH.get(arch)  # an unknown arch fails in NetworkSpec
    if task == "denoise":
        # a denoiser is grayscale (luminance conversion happens upstream)
        # and has no classes
        net["image_channels"], net["num_classes"] = 1, 0
    spec = NetworkSpec(
        arch=arch, task=task, bn_mode=net["bn_mode"],
        max_step=net["max_step"], widths=net["widths"],
        image_shape=(net["image_channels"], net["image_size"],
                     net["image_size"]),
        num_classes=net["num_classes"] if task == "classify" else None,
        bn_eps=net["bn_eps"], bn_momentum=net["bn_momentum"])
    kinds = [kind for kind, t in DATA_KINDS.items() if t == task]
    if data_cfg.kind not in kinds:
        raise ConfigError(f"data kind '{data_cfg.kind}' cannot train "
                          f"arch '{arch}' (expected one of {kinds})")

    tcfg = TrainConfig(step_distribution=dist, **{
        key: x for key, x in tr.items() if key not in _STEP_KEYS})
    return ExperimentConfig(network=spec, train=tcfg, regime=regime,
                            data=data_cfg, output=OutputConfig(**v["output"]),
                            values=v)


def build_datasets(cfg: ExperimentConfig):
    """Materialize (train_set, test_set) for the configured data kind.

    Seeds derive from the train seed through fixed stream keys, so one
    config seed pins data generation, init, and the training loop.
    """
    spec, da, seed = cfg.network, cfg.data, cfg.train.seed
    c, h, _ = spec.image_shape
    if da.kind == "synthetic_classify":
        train = make_synthetic_classification(
            spec.num_classes, da.samples, h,
            np.random.SeedSequence([seed, 11]), channels=c,
            noise=da.pattern_noise)
        test = make_synthetic_classification(
            spec.num_classes, da.test_samples, h,
            np.random.SeedSequence([seed, 12]), channels=c,
            noise=da.pattern_noise)
        return train, test
    if da.kind == "cifar10":
        if not Path(da.path).is_dir():  # one file: train set = test set
            raise DataError(f"cannot read CIFAR shards from {da.path}: not "
                            f"a directory of train and test shards")
        return load_cifar10(da.path, "train"), load_cifar10(da.path, "test")
    if da.kind == "synthetic_denoise":
        clean_train = make_synthetic_textures(
            da.count, h, np.random.SeedSequence([seed, 21]))
        clean_test = make_synthetic_textures(
            da.test_count, h, np.random.SeedSequence([seed, 22]))
    elif da.kind == "pgm_folder":
        root = Path(da.path)
        clean_train = load_pgm_folder(root / "train")
        clean_test = load_pgm_folder(root / "test")
    else:
        raise DataError(f"unhandled data kind '{da.kind}'")
    train = DenoiseSet(clean=clean_train, sigma=da.sigma,
                       patch_size=da.patch_size)
    test = make_denoise_eval_set(clean_test, da.sigma,
                                 np.random.SeedSequence([seed, 23]))
    return train, test
