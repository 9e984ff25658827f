"""Experiment configuration: a strict line-based sections/key=value
format (INI dialect, no interpolation). Unknown sections or keys are
rejected so typos never pass silently; every key has a default except
dataset paths.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .networks import TASK_BY_ARCH, NetworkSpec
from .rc import StepDistribution
from .training import TrainConfig, check_regime

# data kind -> the task (NetworkSpec.task) whose train and test sets it builds
DATA_KINDS = {"synthetic_classify": "classify", "cifar10": "classify",
              "synthetic_denoise": "denoise", "pgm_folder": "denoise"}

# defaults applied when regime = cost_adjustable leaves the step keys
# untouched: higher probability on larger steps
CA_DEFAULT_SUPPORT = "2,3,4"
CA_DEFAULT_PROBS = "0.2,0.3,0.5"


def _parse_int(v): return int(v)
def _parse_float(v): return float(v)
def _parse_str(v): return v.strip()


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
    return tuple(float(t) for t in v.split(",") if t.strip())


# section -> key -> (parser, default-as-string or None for "unset")
SCHEMA: dict[str, dict[str, tuple]] = {
    "network": {
        "arch": (_parse_str, "r2"),
        "bn_mode": (_parse_str, "independent"),
        "max_step": (_parse_int, "3"),
        "widths": (_parse_int_list, "16,64"),
        "image_channels": (_parse_int, "3"),
        "image_size": (_parse_int, "16"),
        "num_classes": (_parse_int, "3"),
        "precision": (_parse_str, "float32"),
        "bn_eps": (_parse_float, "1e-5"),
        "bn_momentum": (_parse_float, "0.1"),
    },
    "train": {
        "lr": (_parse_float, "0.05"),
        "momentum": (_parse_float, "0.9"),
        "weight_decay": (_parse_float, "0.0"),
        "shared_lr_scale": (_parse_float, "0.5"),
        "clip_max_norm": (_parse_float, "5.0"),
        "epochs": (_parse_int, "2"),
        "batch_size": (_parse_int, "50"),
        "regime": (_parse_str, "fixed"),
        "step_support": (_parse_int_list, None),
        "step_probs": (_parse_float_list, None),
        "seed": (_parse_int, "0"),
        "eval_each_epoch": (_parse_bool, "true"),
    },
    "data": {
        "kind": (_parse_str, "synthetic_classify"),
        "path": (_parse_str, None),       # required for cifar10/pgm_folder
        "samples": (_parse_int, "2000"),
        "test_samples": (_parse_int, "500"),
        "pattern_noise": (_parse_float, "0.15"),
        "sigma": (_parse_float, "25.0"),
        "count": (_parse_int, "32"),
        "test_count": (_parse_int, "8"),
        "patch_size": (_parse_int, "40"),
    },
    "output": {
        "dir": (_parse_str, "run_out"),
        "save_best": (_parse_bool, "true"),
    },
}


@dataclass
class DataConfig:
    kind: str
    path: str | None
    samples: int
    test_samples: int
    pattern_noise: float
    sigma: float
    count: int
    test_count: int
    patch_size: int


@dataclass
class OutputConfig:
    dir: str
    save_best: bool


@dataclass
class ExperimentConfig:
    network: NetworkSpec
    train: TrainConfig
    regime: str
    data: DataConfig
    output: OutputConfig

    def resolved_text(self) -> str:
        """Full key=value dump (defaults expanded) in SCHEMA order;
        feeding this back in reproduces the run."""
        spec, tc = self.network, self.train
        values = {
            "network": {**vars(spec), "image_channels": spec.image_shape[0],
                        "image_size": spec.image_shape[1],
                        "num_classes": spec.num_classes or 0},
            "train": {**vars(tc), "regime": self.regime,
                      "step_support": tc.step_distribution.support,
                      "step_probs": tc.step_distribution.probs},
            "data": vars(self.data),
            "output": vars(self.output),
        }
        lines = []
        for section, keys in SCHEMA.items():
            lines.append(f"[{section}]")
            for key in keys:
                v = values[section][key]
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
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    return {s: dict(cp.items(s)) for s in cp.sections()}


def parse_config(path) -> ExperimentConfig:
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
        for key, (parser, default) in keys.items():
            text = raw.get(section, {}).get(key, default)
            if text is None:
                values[section][key] = None
                continue
            try:
                values[section][key] = parser(text)
            except ValueError as e:
                raise ConfigError(
                    f"{path}: bad value for [{section}] {key}: {e}") from e
    return _assemble(values, path)


def _assemble(v: dict, path) -> ExperimentConfig:
    net, tr, da, out = v["network"], v["train"], v["data"], v["output"]

    regime = tr["regime"]
    if da["kind"] in ("cifar10", "pgm_folder") and not da["path"]:
        raise ConfigError(f"{path}: [data] path is required for kind "
                          f"'{da['kind']}'")
    if da["patch_size"] < 1:
        raise ConfigError(f"{path}: [data] patch_size must be >= 1, got "
                          f"{da['patch_size']}")

    support = tr["step_support"]
    probs = tr["step_probs"]
    if support is None:
        if regime == "fixed":
            support = (net["max_step"],)
        else:
            support = _parse_int_list(CA_DEFAULT_SUPPORT)
            if probs is None:
                probs = _parse_float_list(CA_DEFAULT_PROBS)
    if probs is None:
        probs = tuple(1.0 / len(support) for _ in support)
    try:
        dist = StepDistribution(tuple(support), tuple(probs))
    except ValueError as e:
        raise ConfigError(f"{path}: bad step distribution: {e}") from e

    try:
        check_regime(regime, net["bn_mode"], dist, net["max_step"])
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e

    arch = net["arch"]
    task = TASK_BY_ARCH.get(arch)  # an unknown arch fails in NetworkSpec
    # a denoiser is grayscale; luminance conversion happens upstream
    channels = 1 if task == "denoise" else net["image_channels"]
    try:
        spec = NetworkSpec(
            arch=arch, task=task, bn_mode=net["bn_mode"],
            max_step=net["max_step"], widths=net["widths"],
            image_shape=(channels, net["image_size"], net["image_size"]),
            num_classes=net["num_classes"] if task == "classify" else None,
            precision=net["precision"], bn_eps=net["bn_eps"],
            bn_momentum=net["bn_momentum"])
    except ValueError as e:
        raise ConfigError(f"{path}: invalid [network] section: {e}") from e
    kinds = [kind for kind, t in DATA_KINDS.items() if t == task]
    if da["kind"] not in kinds:
        raise ConfigError(f"{path}: data kind '{da['kind']}' cannot train "
                          f"arch '{arch}' (expected one of {kinds})")

    try:
        tcfg = TrainConfig(
            lr=tr["lr"], momentum=tr["momentum"],
            weight_decay=tr["weight_decay"],
            shared_lr_scale=tr["shared_lr_scale"],
            clip_max_norm=tr["clip_max_norm"], epochs=tr["epochs"],
            batch_size=tr["batch_size"], step_distribution=dist,
            seed=tr["seed"], eval_each_epoch=tr["eval_each_epoch"])
    except ValueError as e:
        raise ConfigError(f"{path}: invalid [train] section: {e}") from e

    data_cfg = DataConfig(
        kind=da["kind"], path=da["path"], samples=da["samples"],
        test_samples=da["test_samples"], pattern_noise=da["pattern_noise"],
        sigma=da["sigma"], count=da["count"], test_count=da["test_count"],
        patch_size=da["patch_size"])
    out_cfg = OutputConfig(dir=out["dir"], save_best=out["save_best"])
    return ExperimentConfig(network=spec, train=tcfg, regime=regime,
                            data=data_cfg, output=out_cfg)


def build_datasets(cfg: ExperimentConfig):
    """Materialize (train_set, test_set) for the configured data kind.

    Seeds derive from the train seed through fixed stream keys, so one
    config seed pins data generation, init, and the training loop.
    """
    import numpy as np

    from .data import (DenoiseSet, load_cifar10, load_pgm_folder,
                       make_denoise_eval_set, make_synthetic_classification,
                       make_synthetic_textures)
    from .errors import DataError

    spec, da, seed = cfg.network, cfg.data, cfg.train.seed
    c, h, _ = spec.image_shape
    if da.kind == "synthetic_classify":
        train = make_synthetic_classification(
            spec.num_classes, da.samples, h,
            np.random.SeedSequence([seed, 11]), channels=c,
            noise=da.pattern_noise, split="train")
        test = make_synthetic_classification(
            spec.num_classes, da.test_samples, h,
            np.random.SeedSequence([seed, 12]), channels=c,
            noise=da.pattern_noise, split="test")
        return train, test
    if da.kind == "cifar10":
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
