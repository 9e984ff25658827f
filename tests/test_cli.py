"""Config parsing, CLI commands, exit codes, and golden CSV schemas."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import (build_seeded, checkpoint_records, join_checkpoint,
                      mutations, poison_checkpoint, small_r2_spec,
                      small_r3_spec)
from rcnet import cli
from rcnet.checkpoint import load_checkpoint, save_checkpoint
from rcnet.cli import main
from rcnet.config import DataConfig, OutputConfig, parse_config
from rcnet.data import (make_synthetic_classification,
                        make_synthetic_textures, read_pgm, read_rct,
                        write_pgm, write_rct)
from rcnet.errors import ConfigError, RcnetError
from rcnet.networks import NetworkSpec, expand_to_standard
from rcnet.rc import StepDistribution
from rcnet.training import TrainConfig, check_batches, check_regime

GOLDEN = Path(__file__).parent / "golden"

TOY_CLASSIFY = """
[network]
arch = r2
bn_mode = double_independent
max_step = 3
widths = 8,32
image_size = 8
num_classes = 3

[train]
lr = 0.05
epochs = 1
batch_size = 25
regime = cost_adjustable
step_support = 2,3
step_probs = 0.4,0.6
seed = 7

[data]
kind = synthetic_classify
samples = 100
test_samples = 50

[output]
dir = {out}
"""

TOY_DENOISE = """
[network]
arch = r3
bn_mode = independent
max_step = 2
widths = 8,8,8
image_size = 16
image_channels = 1

[train]
lr = 0.02
epochs = 1
batch_size = 4
regime = fixed
step_support = 2
seed = 3

[data]
kind = synthetic_denoise
count = 8
test_count = 2
sigma = 25

[output]
dir = {out}
"""

# at 8 px the last r2 cell and the head run on 1x1 maps, so a training
# batch of one image gives their batch norm one value per channel
TINY_R2 = """
[network]
arch = r2
max_step = 2
widths = 4,16
image_size = 8

[train]
epochs = 1
batch_size = 10

[data]
samples = 21
test_samples = 10

[output]
dir = {out}
"""


# a cifar10 run that leaves every [network] key at its default
CIFAR_DEFAULT_NETWORK = """
[train]
epochs = 1
batch_size = 20

[data]
kind = cifar10
path = {path}

[output]
dir = {out}
"""


def write_cifar_shards(root, records=20):
    """The five training shards and the test shard of CIFAR-10's binary
    layout, each ``records`` records of random pixels and labels 0-9."""
    rng = np.random.default_rng(0)
    root.mkdir(parents=True)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] \
            + ["test_batch.bin"]:
        rec = rng.integers(0, 256, (records, 3073), dtype=np.uint8)
        rec[:, 0] %= 10
        (root / name).write_bytes(rec.tobytes())


def write_cfg(tmp_path, text, name="cfg.ini", **fmt):
    p = tmp_path / name
    p.write_text(text.format(**fmt))
    return p


def run_cli(args):
    return main([str(a) for a in args])


def edit_stored_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    header dict."""
    import json
    import struct

    raw = Path(src).read_bytes()
    head, _ = checkpoint_records(raw)
    header = json.loads(head[20:])
    edit(header)
    hbytes = json.dumps(header, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    Path(dst).write_bytes(raw[:12] + struct.pack("<Q", len(hbytes)) + hbytes
                          + raw[len(head):])


def readme_config_text():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return readme.split("```ini\n", 1)[1].split("```", 1)[0]


class TestConfigParsing:
    def test_defaults_are_the_library_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        for f in fields(TrainConfig):
            if f.name != "step_distribution":
                assert getattr(cfg.train, f.name) == \
                    getattr(TrainConfig(), f.name), f.name
        assert cfg.data == DataConfig()
        assert cfg.output == OutputConfig()
        assert cfg.network.bn_eps == NetworkSpec.bn_eps
        assert cfg.network.bn_momentum == NetworkSpec.bn_momentum

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[network]\narch = r2\nwdiths = 8,32\n")
        with pytest.raises(ConfigError, match="unknown key 'wdiths'"):
            parse_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[netwrk]\narch = r2\n")
        with pytest.raises(ConfigError, match=r"unknown section \[netwrk\]"):
            parse_config(p)

    def test_missing_data_path_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[data]\nkind = cifar10\n")
        with pytest.raises(ConfigError, match="path is required"):
            parse_config(p)

    def test_fixed_regime_needs_singleton(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nregime = fixed\nstep_support = 2,3\n")
        with pytest.raises(ConfigError, match="singleton"):
            parse_config(p)

    def test_support_beyond_max_step_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[network]\nmax_step = 2\n"
                     "[train]\nregime = fixed\nstep_support = 3\n")
        with pytest.raises(ConfigError, match="exceeds max_step"):
            parse_config(p)

    def test_defaults_give_valid_config(self, tmp_path):
        p = tmp_path / "empty.ini"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg.regime == "fixed"
        assert cfg.train.step_distribution.support == (3,)

    def test_cost_adjustable_default_distribution(self, tmp_path):
        p = tmp_path / "ca.ini"
        p.write_text("[network]\nbn_mode = double_independent\nmax_step = 4\n"
                     "[train]\nregime = cost_adjustable\n")
        cfg = parse_config(p)
        assert cfg.train.step_distribution.support == (2, 3, 4)
        assert cfg.train.step_distribution.probs == (0.2, 0.3, 0.5)

    def test_readme_example_config_parses_verbatim(self, tmp_path):
        text = readme_config_text()
        assert "; " in text  # the example carries inline comments
        p = tmp_path / "readme.ini"
        p.write_text(text)
        cfg = parse_config(p)
        assert cfg.network.widths == (16, 64)
        assert cfg.train.step_distribution.probs == (0.2, 0.3, 0.5)
        assert cfg.data.kind == "synthetic_classify"

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=mutations(readme_config_text().encode("utf-8")))
    def test_mutated_readme_config_raises_only_config_errors(self, tmp_path,
                                                            blob):
        p = tmp_path / "fuzz.ini"
        p.write_bytes(blob)
        try:
            parse_config(p)
        except RcnetError:
            pass

    def test_cost_adjustable_needs_di_mode(self, tmp_path):
        p = tmp_path / "ca.ini"
        p.write_text("[train]\nregime = cost_adjustable\nstep_support = 2,3\n")
        with pytest.raises(ConfigError, match="double_independent"):
            parse_config(p)


# configs whose resolved.ini text is pinned in tests/golden/resolved_<name>.ini
RESOLVED_CASES = {
    "default": "",
    "r3_denoise": """
[network]
arch = r3
widths = 8,8,8
image_size = 24
image_channels = 3  ; a denoiser is grayscale, so this resolves to 1
num_classes = 5     ; and this to 0
[train]
lr = 0.02
batch_size = 4
[data]
kind = synthetic_denoise
count = 6
patch_size = 16
""",
    "r4_cost_adjustable": """
[network]
arch = r4
bn_mode = double_independent
max_step = 4
widths = 4,8,16,32
[train]
regime = cost_adjustable
step_support = 1,2,3
""",
    "aggregated": """
[network]
bn_mode = double_independent
max_step = 4
bn_eps = 1e-3
[train]
regime = aggregated
eval_each_epoch = false
[data]
kind = cifar10
path = cifar-10-batches-py
""",
}


class TestResolvedConfigGolden:
    @pytest.mark.parametrize("name", sorted(RESOLVED_CASES))
    def test_resolved_text_matches_golden(self, tmp_path, name):
        cfg = parse_config(write_cfg(tmp_path, RESOLVED_CASES[name]))
        assert cfg.resolved_text() == \
            GOLDEN.joinpath(f"resolved_{name}.ini").read_text()

    def test_flags_replace_their_keys(self, tmp_path):
        cfg = write_cfg(tmp_path, TOY_DENOISE, out=tmp_path / "config_dir")
        out = tmp_path / "flag_dir"
        assert run_cli(["train", "--config", cfg, "--seed", "7",
                        "--out-dir", out]) == 0
        text = (out / "resolved.ini").read_text().replace(str(out),
                                                          "<out-dir>")
        assert text == GOLDEN.joinpath("resolved_flags.ini").read_text()
        assert not (tmp_path / "config_dir").exists()


def _data_config(**changes):
    fields = dict(kind="synthetic_denoise", path=None, samples=10,
                  test_samples=5, pattern_noise=0.1, sigma=25.0, count=4,
                  test_count=2, patch_size=8)
    return DataConfig(**{**fields, **changes})


def _batch_of_one():
    # r2 at 8 px runs its last cell on 1x1 maps; 21 % 10 leaves one image
    spec = small_r2_spec(widths=(4, 16))
    train_set = make_synthetic_classification(3, 21, 8,
                                              np.random.SeedSequence(0))
    check_batches(spec, train_set, 10)


def _expand(bn_mode, step):
    expand_to_standard(build_seeded(small_r2_spec(bn_mode=bn_mode)), step)


class TestValidatorsRaiseConfigError:
    """Each settings validator raises the ConfigError (exit 2) itself, and
    it is still a ValueError for library callers."""

    @pytest.mark.parametrize("call", [
        lambda: replace(small_r2_spec(), bn_mode="bogus"),
        lambda: TrainConfig(momentum=1.5),
        lambda: StepDistribution((2, 1), (0.5, 0.5)),
        lambda: _data_config(sigma=0.0),
        lambda: _data_config(sigma=float("nan")),
        lambda: _data_config(count=0),
        lambda: check_regime("bogus", "independent",
                             StepDistribution.fixed(1), 3),
        _batch_of_one,
        lambda: build_seeded(small_r2_spec()).check_serving_step(0),
        lambda: _expand("shared", 2),
        lambda: _expand("independent", 4)],
        ids=["NetworkSpec", "TrainConfig", "StepDistribution",
             "DataConfig-sigma", "DataConfig-sigma-nan", "DataConfig-count",
             "check_regime", "check_batches", "check_serving_step",
             "expand-bn_mode", "expand-step"])
    def test_raises_config_error(self, call):
        with pytest.raises(ConfigError) as info:
            call()
        assert isinstance(info.value, ValueError)
        assert info.value.exit_code == 2


class TestTrainCommand:
    def test_train_writes_artifacts_and_loss_decreases(self, tmp_path):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 0
        out = tmp_path / "run"
        for name in ("resolved.ini", "metrics.csv", "eval.csv", "last.ckpt"):
            assert (out / name).exists()
        assert not (out / "best.ckpt").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == GOLDEN.joinpath("metrics_header.csv") \
            .read_text().strip()
        first = float(lines[1].split(",")[2])
        last = float(lines[-1].split(",")[2])
        assert last < first

    def test_eval_csv_has_per_step_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "run")
        run_cli(["train", "--config", cfg])
        header = (tmp_path / "run" / "eval.csv").read_text().splitlines()[0]
        assert header == "epoch,err@2,err@3"

    def test_invalid_config_exit_code_2(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[train]\nlr = banana\n")
        assert run_cli(["train", "--config", p]) == 2
        assert "config error" in capsys.readouterr().err

    def test_rerun_same_seed_identical_metrics(self, tmp_path):
        cfg1 = write_cfg(tmp_path, TOY_CLASSIFY, "a.ini", out=tmp_path / "r1")
        cfg2 = write_cfg(tmp_path, TOY_CLASSIFY, "b.ini", out=tmp_path / "r2")
        run_cli(["train", "--config", cfg1])
        run_cli(["train", "--config", cfg2])
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == \
            (tmp_path / "r2" / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "sgd\nmomentum = 0",
                                           "adam"],
                             ids=["sgd", "sgd-momentum-0", "adam"])
    def test_resume_is_bit_exact(self, tmp_path, optimizer):
        # an epoch-1 checkpoint resumed to epoch 2 gives the bytes of the
        # uninterrupted 2-epoch run: weights, optimizer state, metrics;
        # SGD without momentum holds no buffer, so its checkpoints store none
        text = TOY_CLASSIFY.replace(
            "lr = 0.05", f"lr = 0.05\noptimizer = {optimizer}")
        two = text.replace("epochs = 1", "epochs = 2")
        assert run_cli(["train", "--config", write_cfg(
            tmp_path, two, "full.ini", out=tmp_path / "full")]) == 0
        assert run_cli(["train", "--config", write_cfg(
            tmp_path, text, "part1.ini", out=tmp_path / "part1")]) == 0
        assert run_cli(["train", "--config", write_cfg(
            tmp_path, two, "part2.ini", out=tmp_path / "part2"),
            "--resume", tmp_path / "part1" / "last.ckpt"]) == 0
        full, part = tmp_path / "full", tmp_path / "part2"
        assert (full / "last.ckpt").read_bytes() == \
            (part / "last.ckpt").read_bytes()
        names = [name for name, _ in checkpoint_records(
            (tmp_path / "part1" / "last.ckpt").read_bytes())[1]]
        assert any(name.endswith((".momentum", ".adam_m")) for name in names) \
            == (optimizer != "sgd\nmomentum = 0")
        rows = (part / "metrics.csv").read_text().splitlines()[1:]
        assert (full / "metrics.csv").read_text().splitlines()[-len(rows):] \
            == rows

    def test_resolved_config_replays_identically(self, tmp_path):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "r1")
        run_cli(["train", "--config", cfg])
        resolved = (tmp_path / "r1" / "resolved.ini").read_text() \
            .replace(str(tmp_path / "r1"), str(tmp_path / "r2"))
        cfg2 = tmp_path / "resolved2.ini"
        cfg2.write_text(resolved)
        run_cli(["train", "--config", cfg2])
        assert (tmp_path / "r1" / "metrics.csv").read_bytes() == \
            (tmp_path / "r2" / "metrics.csv").read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(tmp, TOY_CLASSIFY, out=tmp / "run")
    run_cli(["train", "--config", cfg])
    return tmp, cfg


class TestEvalInferCommands:

    def test_eval_line_format_and_csv(self, trained, capsys):
        tmp, cfg = trained
        code = run_cli(["eval", "--checkpoint", tmp / "run" / "last.ckpt",
                        "--config", cfg, "--step", "3", "--out-dir",
                        tmp / "ev"])
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("metric=")][0]
        assert line.startswith("metric=err step=3 value=")
        header = (tmp / "ev" / "eval.csv").read_text().splitlines()[0]
        assert header == GOLDEN.joinpath("eval_cmd_header.csv") \
            .read_text().strip()

    def test_eval_row_per_step(self, trained):
        tmp, cfg = trained
        for s in (2, 3):
            run_cli(["eval", "--checkpoint", tmp / "run" / "last.ckpt",
                     "--config", cfg, "--step", s, "--out-dir", tmp / "ev2"])
        rows = (tmp / "ev2" / "eval.csv").read_text().splitlines()
        assert len(rows) == 3  # header + 2 steps

    def test_eval_builds_only_the_test_split(self, trained, tmp_path,
                                             monkeypatch, capsys):
        from rcnet import config, data
        from rcnet.training import TASKS
        tmp, cfg = trained
        ckpt = tmp / "run" / "last.ckpt"
        real, sizes = data.make_synthetic_classification, []

        def counted(num_classes, samples, *args, **kwargs):
            sizes.append(samples)
            return real(num_classes, samples, *args, **kwargs)

        monkeypatch.setattr(data, "make_synthetic_classification", counted)
        assert run_cli(["eval", "--checkpoint", ckpt, "--config", cfg,
                        "--step", "3", "--out-dir", tmp_path / "ev"]) == 0
        assert sizes == [50]  # test_samples
        # the value is that of training's test set
        _, test_set = config.build_datasets(parse_config(cfg))
        want = TASKS["classify"].evaluate(load_checkpoint(ckpt)[0],
                                          test_set, 3)
        assert f"metric=err step=3 value={want:.6f}\n" in \
            capsys.readouterr().out

    def test_unsupported_step_exit_code_2(self, trained, capsys):
        tmp, cfg = trained
        code = run_cli(["eval", "--checkpoint", tmp / "run" / "last.ckpt",
                        "--config", cfg, "--step", "1", "--out-dir", tmp])
        assert code == 2
        assert "[2, 3]" in capsys.readouterr().err

    def test_classifier_infer_flops_monotone(self, trained, capsys):
        tmp, cfg = trained
        from rcnet.data import write_rct
        img = np.random.default_rng(0).standard_normal((3, 8, 8)) \
            .astype(np.float32)
        write_rct(tmp / "in.rct", img)
        flops = {}
        for s in (2, 3):
            run_cli(["infer", "--checkpoint", tmp / "run" / "last.ckpt",
                     "--input", tmp / "in.rct", "--step", s,
                     "--output", tmp / f"out{s}.rct"])
            line = capsys.readouterr().out.splitlines()[-1]
            flops[s] = int(line.split("flops=")[1].split()[0])
        assert flops[3] > flops[2]

    def test_missing_checkpoint_exit_code_4(self, trained, capsys):
        tmp, cfg = trained
        (tmp / "junk.ckpt").write_bytes(b"not a checkpoint at all")
        code = run_cli(["eval", "--checkpoint", tmp / "junk.ckpt",
                        "--config", cfg, "--step", "3", "--out-dir", tmp])
        assert code == 4


class TestBadInputExitCodes:
    def test_unrunnable_image_size_exit_code_2(self, tmp_path, capsys):
        text = TOY_CLASSIFY.replace("image_size = 8", "image_size = 20")
        cfg = write_cfg(tmp_path, text, out=tmp_path / "run")
        assert run_cli(["cost", "--config", cfg,
                        "--out-dir", tmp_path]) == 2
        assert run_cli(["train", "--config", cfg]) == 2
        assert "multiple of 8" in capsys.readouterr().err
        assert not (tmp_path / "cost.csv").exists()

    @pytest.mark.parametrize("text,old,new,kinds", [
        (TOY_CLASSIFY, "synthetic_classify", "synthetic_denoise",
         "['synthetic_classify', 'cifar10']"),
        (TOY_DENOISE, "synthetic_denoise", "synthetic_classify",
         "['synthetic_denoise', 'pgm_folder']"),
        (TOY_CLASSIFY, "synthetic_classify", "mnist",
         "['synthetic_classify', 'cifar10']")],
        ids=["r2-denoise-data", "r3-classify-data", "unknown-kind"])
    def test_data_kind_the_arch_cannot_train_exit_code_2(
            self, tmp_path, text, old, new, kinds, capsys):
        cfg = write_cfg(tmp_path, text.replace(old, new),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"data kind '{new}' cannot train arch" in err
        assert f"(expected one of {kinds})" in err
        assert not (tmp_path / "run").exists()

    def test_eval_config_of_another_task_exit_code_2(self, trained, tmp_path,
                                                     capsys):
        tmp, _ = trained
        cfg = write_cfg(tmp_path, TOY_DENOISE, out=tmp_path / "run")
        code = run_cli(["eval", "--checkpoint", tmp / "run" / "last.ckpt",
                        "--config", cfg, "--step", "3",
                        "--out-dir", tmp_path / "ev"])
        assert code == 2
        assert "is a denoise config" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("num_classes = 3", "num_classes = 5",
         "sets num_classes = 5, the checkpoint's network has 3"),
        ("image_size = 8", "image_size = 8\nimage_channels = 1",
         "sets image_channels = 1, the checkpoint's network has 3")],
        ids=["num_classes", "image_channels"])
    def test_eval_config_the_network_cannot_serve_exit_code_2(
            self, trained, tmp_path, old, new, message, capsys):
        tmp, _ = trained
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace(old, new),
                        out=tmp_path / "run")
        code = run_cli(["eval", "--checkpoint", tmp / "run" / "last.ckpt",
                        "--config", cfg, "--step", "3",
                        "--out-dir", tmp_path / "ev"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_eval_onto_another_csv_schema_exit_code_2(self, trained,
                                                      capsys):
        # training's eval.csv (epoch,err@2,...) is not the eval command's
        tmp, cfg = trained
        before = (tmp / "run" / "eval.csv").read_bytes()
        code = run_cli(["eval", "--checkpoint", tmp / "run" / "last.ckpt",
                        "--config", cfg, "--step", "2",
                        "--out-dir", tmp / "run"])
        assert code == 2
        assert "first line is not 'metric,step,value'" in \
            capsys.readouterr().err
        assert (tmp / "run" / "eval.csv").read_bytes() == before

    @pytest.mark.parametrize("task,name,output", [
        ("denoise", "x.pgm", "y.rct"), ("denoise", "x.rct", "y.pgm"),
        ("classify", "x.rct", "y.pgm"), ("denoise", "x.pgm", "y.png"),
        ("classify", "x.rct", "y.png")],
        ids=["denoise-pgm-to-rct", "denoise-rct-to-pgm", "classify-to-pgm",
             "denoise-pgm-to-png", "classify-to-png"])
    def test_infer_output_of_the_other_format_exit_code_2(
            self, tmp_path, task, name, output, capsys):
        from rcnet.checkpoint import save_checkpoint
        spec = small_r3_spec() if task == "denoise" else small_r2_spec()
        save_checkpoint(tmp_path / "net.ckpt", build_seeded(spec))
        if name.endswith(".pgm"):
            write_pgm(tmp_path / name, np.full((16, 16), 128.0))
        else:
            write_rct(tmp_path / name,
                      np.zeros(spec.image_shape, np.float32))
        code = run_cli(["infer", "--checkpoint", tmp_path / "net.ckpt",
                        "--input", tmp_path / name, "--step", "2",
                        "--output", tmp_path / output])
        assert code == 2
        assert f"not {Path(output).suffix}" in capsys.readouterr().err
        assert not (tmp_path / output).exists()

    def test_diverging_run_exit_code_5(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace("lr = 0.05",
                                                       "lr = 1e30"),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 5
        assert "training diverged at iteration" in capsys.readouterr().err
        assert not (tmp_path / "run" / "last.ckpt").exists()

    @pytest.mark.parametrize("text,old,new,message", [
        (TOY_DENOISE, "sigma = 25", "sigma = 25\npatch_size = 0",
         "patch_size must be >= 1"),
        (TOY_DENOISE, "sigma = 25", "sigma = 25\npatch_size = -3",
         "patch_size must be >= 1"),
        (TOY_CLASSIFY, "widths = 8,32", "widths = 0,0", "widths must be >= 1"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\nmomentum = 1.5",
         "momentum must be in [0, 1)"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\nweight_decay = -1",
         "weight_decay must be >= 0"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\noptimizer = foo",
         "unknown optimizer 'foo'"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = nan", "not a finite number: 'nan'"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\nclip_max_norm = nan",
         "not a finite number: 'nan'"),
        (TOY_CLASSIFY, "0.4,0.6", "nan,nan", "not a finite number: 'nan'"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\nweight_decay = nan",
         "not a finite number: 'nan'"),
        (TOY_CLASSIFY, "num_classes = 3", "num_classes = 3\nbn_eps = nan",
         "not a finite number: 'nan'"),
        (TOY_CLASSIFY, "num_classes = 3",
         "num_classes = 3\nbn_momentum = nan", "not a finite number: 'nan'"),
        (TOY_CLASSIFY, "num_classes = 3", "num_classes = 3\nbn_momentum = 5",
         "bn_momentum must be in [0, 1]"),
        (TOY_CLASSIFY, "num_classes = 3", "num_classes = 3\nbn_eps = -1",
         "bn_eps must be >= 0"),
        (TOY_DENOISE, "sigma = 25", "sigma = 0", "sigma must be positive"),
        (TOY_DENOISE, "sigma = 25", "sigma = -5", "sigma must be positive"),
        (TOY_DENOISE, "count = 8", "count = 0", "count must be >= 1"),
        (TOY_DENOISE, "test_count = 2", "test_count = 0",
         "test_count must be >= 1"),
        (TOY_CLASSIFY, "samples = 100", "samples = 0",
         "samples must be >= 1"),
        (TOY_CLASSIFY, "test_samples = 50", "test_samples = 0",
         "test_samples must be >= 1")],
        ids=["patch_size-0", "patch_size-neg", "widths-0", "momentum-1.5",
             "weight_decay-neg", "optimizer-foo", "lr-nan", "clip_max_norm-nan",
             "step_probs-nan", "weight_decay-nan", "bn_eps-nan",
             "bn_momentum-nan", "bn_momentum-5", "bn_eps-neg", "sigma-0",
             "sigma-neg", "count-0", "test_count-0", "samples-0",
             "test_samples-0"])
    def test_out_of_range_value_exit_code_2(self, tmp_path, text, old, new,
                                            message, capsys):
        cfg = write_cfg(tmp_path, text.replace(old, new),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text", [
        TINY_R2,
        TINY_R2.replace("batch_size = 10", "batch_size = 1"),
        TOY_DENOISE.replace("batch_size = 4", "batch_size = 1")
        .replace("sigma = 25", "sigma = 25\npatch_size = 1")],
        ids=["r2-last-batch-of-one", "r2-batch_size-1", "r3-1px-crops"])
    def test_batch_norm_batch_of_one_exit_code_2(self, tmp_path, text,
                                                  capsys):
        cfg = write_cfg(tmp_path, text, out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}: a training batch of" in err
        assert "train mode needs at least 2" in err
        assert not (tmp_path / "run").exists()

    def test_textures_the_generator_refuses_exit_code_3(self, tmp_path,
                                                        capsys):
        # the size is a [network] key and the kind a [data] one, so the
        # generator, not DataConfig, refuses it; the run writes nothing
        cfg = write_cfg(tmp_path, TOY_DENOISE.replace("image_size = 16",
                                                      "image_size = 4"),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 3
        assert "size >= 8" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("old,new", [
        ("image_size = 8", "image_size = 16"),
        ("max_step = 2", "max_step = 2\nbn_mode = none")],
        ids=["16px", "no-bn"])
    def test_batch_of_one_without_one_value_maps_trains(self, tmp_path, old,
                                                        new):
        cfg = write_cfg(tmp_path, TINY_R2.replace(old, new),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 0
        assert (tmp_path / "run" / "last.ckpt").stat().st_size > 0

    @pytest.mark.parametrize("seed_line,flag", [
        ("seed = -1", []), ("seed = 7", ["--seed", "-3"])],
        ids=["config", "flag"])
    def test_negative_seed_exit_code_2(self, tmp_path, seed_line, flag,
                                       capsys):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace("seed = 7", seed_line),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg] + flag) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_seed_flag_replaces_negative_config_seed(self, tmp_path):
        # --seed replaces the config's seed before it is checked, so a
        # config seed the run never uses is not rejected
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace("seed = 7",
                                                       "seed = -1"),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg, "--seed", "7"]) == 0
        assert "\nseed = 7\n" in \
            (tmp_path / "run" / "resolved.ini").read_text()

    def test_double_precision_train_exit_code_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "num_classes = 3", "num_classes = 3\nprecision = float64"),
            out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 2
        assert "unknown key 'precision' in section [network]" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_that_is_not_text_exit_code_2(self, tmp_path, capsys):
        cfg = tmp_path / "bin.ini"
        cfg.write_bytes(b"[network]\narch = r2\xff\n")
        assert run_cli(["cost", "--config", cfg,
                        "--out-dir", tmp_path / "cost"]) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "cost").exists()

    @pytest.mark.parametrize("command", ["infer", "export-features"])
    @pytest.mark.parametrize("name,shape", [
        ("x.rct", (1, 1, 0, 0)), ("x.rct", (0, 1, 16, 16)),
        ("x.pgm", (0, 0))], ids=["rct-0x0", "rct-batch-0", "pgm-0x0"])
    def test_empty_input_exit_code_3(self, tmp_path, command, name, shape,
                                     capsys):
        from rcnet.checkpoint import save_checkpoint
        ckpt = tmp_path / "r3.ckpt"
        save_checkpoint(ckpt, build_seeded(small_r3_spec()))
        if name.endswith(".pgm"):
            (tmp_path / name).write_bytes(b"P5\n0 0\n255\n")
        else:
            write_rct(tmp_path / name, np.zeros(shape, np.float32))
        extra = (["--output", tmp_path / "y.rct"] if command == "infer"
                 else ["--cell", "cell1", "--out-dir", tmp_path / "feat"])
        code = run_cli([command, "--checkpoint", ckpt, "--input",
                        tmp_path / name, "--step", "2"] + extra)
        assert code == 3
        assert "empty input" in capsys.readouterr().err
        assert not (tmp_path / "y.rct").exists()
        assert not (tmp_path / "feat").exists()

    @pytest.mark.parametrize("command", ["infer", "export-features"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_input_exit_code_3(self, trained, tmp_path, command,
                                          value, capsys):
        tmp, _ = trained
        x = np.zeros((3, 8, 8), np.float32)
        x[1, 2, 3] = value
        write_rct(tmp_path / "x.rct", x)
        extra = (["--output", tmp_path / "y.rct"] if command == "infer"
                 else ["--cell", "cell1", "--out-dir", tmp_path / "feat"])
        code = run_cli([command, "--checkpoint", tmp / "run" / "last.ckpt",
                        "--input", tmp_path / "x.rct", "--step", "3"]
                       + extra)
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "y.rct").exists()
        assert not (tmp_path / "feat").exists()

    @pytest.mark.parametrize("command,step", [("expand-check", 5),
                                              ("export-features", 7),
                                              ("infer", 4), ("eval", 0)])
    def test_step_outside_max_step_exit_code_2(self, trained, tmp_path,
                                               command, step, capsys):
        tmp, cfg = trained
        from rcnet.data import write_rct
        write_rct(tmp_path / "x.rct", np.zeros((3, 8, 8), np.float32))
        extra = {"expand-check": [],
                 "export-features": ["--input", tmp_path / "x.rct",
                                     "--cell", "cell1",
                                     "--out-dir", tmp_path],
                 "infer": ["--input", tmp_path / "x.rct",
                           "--output", tmp_path / "y.rct"],
                 "eval": ["--config", cfg, "--out-dir", tmp_path]}[command]
        code = run_cli([command, "--checkpoint", tmp / "run" / "last.ckpt",
                        "--step", step] + extra)
        assert code == 2
        assert "outside [1, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--inputs", "0"], "--inputs must be >= 1"),
        (["--inputs", "-2"], "--inputs must be >= 1")],
        ids=["seed-neg", "inputs-0", "inputs-neg"])
    def test_expand_check_bad_argument_exit_code_2(self, trained, flags,
                                                   message, capsys):
        tmp, _ = trained
        code = run_cli(["expand-check", "--checkpoint",
                        tmp / "run" / "last.ckpt", "--step", "3"] + flags)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("what,code", [
        ("eval-missing-checkpoint", 4), ("eval-checkpoint-is-dir", 4),
        ("resume-missing-checkpoint", 4), ("infer-missing-pgm", 3),
        ("export-features-missing-rct", 3)])
    def test_missing_file_exit_code(self, trained, tmp_path, what, code,
                                    capsys):
        tmp, cfg = trained
        ckpt = tmp / "run" / "last.ckpt"
        args = {
            "eval-missing-checkpoint": [
                "eval", "--checkpoint", tmp_path / "nope.ckpt", "--config",
                cfg, "--step", "3", "--out-dir", tmp_path / "ev"],
            "eval-checkpoint-is-dir": [
                "eval", "--checkpoint", tmp_path, "--config", cfg,
                "--step", "3", "--out-dir", tmp_path / "ev"],
            "resume-missing-checkpoint": [
                "train", "--config", cfg, "--out-dir", tmp_path / "resumed",
                "--resume", tmp_path / "nope.ckpt"],
            "infer-missing-pgm": [
                "infer", "--checkpoint", ckpt, "--input",
                tmp_path / "nope.pgm", "--step", "3", "--output",
                tmp_path / "y.rct"],
            "export-features-missing-rct": [
                "export-features", "--checkpoint", ckpt, "--input",
                tmp_path / "nope.rct", "--cell", "cell1", "--step", "3",
                "--out-dir", tmp_path / "feat"],
        }[what]
        assert run_cli(args) == code
        assert "cannot read" in capsys.readouterr().err
        for out in ("ev", "resumed", "y.rct", "feat"):
            assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("what,code", [
        ("cifar-shard-is-dir", 3), ("infer-output-in-missing-dir", 2),
        ("export-bn-out-in-missing-dir", 2), ("eval-out-dir-is-file", 2),
        ("cost-out-dir-is-file", 2), ("export-features-out-dir-is-file", 2),
        ("cifar-path-is-a-file", 3), ("cifar-missing-shard", 3),
        ("cifar-label-above-9", 3), ("train-out-dir-under-file", 2)])
    def test_unreadable_shard_or_unwritable_output_exit_code(
            self, trained, tmp_path, what, code):
        import rcnet
        tmp, cfg = trained
        ckpt = tmp / "run" / "last.ckpt"
        x, missing, afile = (tmp_path / "x.rct", tmp_path / "missing",
                             tmp_path / "afile")
        write_rct(x, np.zeros((3, 8, 8), np.float32))
        afile.write_text("")
        cifar = tmp_path / "cifar"
        (cifar / "data_batch_1.bin").mkdir(parents=True)
        for i in range(2, 6):
            (cifar / f"data_batch_{i}.bin").write_bytes(b"")
        cifar_cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "kind = synthetic_classify", f"kind = cifar10\npath = {cifar}"),
            "cifar.ini", out=tmp_path / "run")
        # one readable 20-record shard, which would be train and test set
        (tmp_path / "one.bin").write_bytes(bytes(20 * 3073))
        one_cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "kind = synthetic_classify",
            f"kind = cifar10\npath = {tmp_path / 'one.bin'}"),
            "one.ini", out=tmp_path / "run")
        # shards 1-4 and the test shard; then all six, one label byte 10
        missing_shard, bad_label = tmp_path / "c_missing", tmp_path / "c_label"
        write_cifar_shards(missing_shard)
        (missing_shard / "data_batch_5.bin").unlink()
        write_cifar_shards(bad_label)
        with open(bad_label / "data_batch_3.bin", "r+b") as f:
            f.seek(3 * 3073)
            f.write(bytes([10]))
        shard_cfgs = {case: write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "kind = synthetic_classify", f"kind = cifar10\npath = {root}"),
            f"{case}.ini", out=tmp_path / "run")
            for case, root in (("cifar-missing-shard", missing_shard),
                               ("cifar-label-above-9", bad_label))}
        args = {
            "cifar-shard-is-dir": ["train", "--config", cifar_cfg],
            "cifar-path-is-a-file": ["train", "--config", one_cfg],
            "cifar-missing-shard": ["train", "--config",
                                    shard_cfgs["cifar-missing-shard"]],
            "cifar-label-above-9": ["train", "--config",
                                    shard_cfgs["cifar-label-above-9"]],
            "infer-output-in-missing-dir": [
                "infer", "--checkpoint", ckpt, "--input", x, "--step", "3",
                "--output", missing / "y.rct"],
            "export-bn-out-in-missing-dir": [
                "export-bn", "--checkpoint", ckpt, "--out",
                missing / "bn.csv"],
            "eval-out-dir-is-file": [
                "eval", "--checkpoint", ckpt, "--config", cfg, "--step", "3",
                "--out-dir", afile],
            "cost-out-dir-is-file": ["cost", "--config", cfg,
                                     "--out-dir", afile],
            "export-features-out-dir-is-file": [
                "export-features", "--checkpoint", ckpt, "--input", x,
                "--cell", "cell1", "--step", "3", "--out-dir", afile],
            "train-out-dir-under-file": ["train", "--config", cfg,
                                         "--out-dir", afile / "run"],
        }[what]
        # a subprocess, so that an uncaught error shows as a traceback
        env = dict(os.environ,
                   PYTHONPATH=str(Path(rcnet.__file__).parents[1]))
        r = subprocess.run([sys.executable, "-m", "rcnet"]
                           + [str(a) for a in args],
                           env=env, capture_output=True, text=True)
        assert r.returncode == code
        assert "Traceback" not in r.stderr
        message = {
            "cifar-missing-shard": "missing CIFAR shards: ['"
                                   f"{missing_shard / 'data_batch_5.bin'}']",
            "cifar-label-above-9": "data_batch_3.bin has label byte 10 > 9",
        }.get(what, "cannot read CIFAR shard" if code == 3
              else "cannot write output")
        assert message in r.stderr
        assert not (tmp_path / "run").exists()

    def test_resume_of_another_network_exit_code_4(self, tmp_path, capsys):
        from rcnet.checkpoint import save_checkpoint
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "run")
        ckpt = tmp_path / "max_step_2.ckpt"
        save_checkpoint(ckpt, build_seeded(
            replace(parse_config(cfg).network, max_step=2)))
        assert run_cli(["train", "--config", cfg, "--resume", ckpt]) == 4
        assert "different network spec" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("trained_with,resumed_with",
                             [("sgd", "adam"), ("adam", "sgd")])
    def test_resume_under_the_other_optimizer_exit_code_4(
            self, tmp_path, trained_with, resumed_with, capsys):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "lr = 0.05", f"lr = 0.05\noptimizer = {trained_with}"),
            out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 0
        again = write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "lr = 0.05", f"lr = 0.05\noptimizer = {resumed_with}").replace(
            "epochs = 1", "epochs = 2"), "again.ini", out=tmp_path / "resumed")
        assert run_cli(["train", "--config", again, "--resume",
                        tmp_path / "run" / "last.ckpt"]) == 4
        assert f"trained with optimizer '{trained_with}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("epochs", [2, 1], ids=["equal", "below"])
    def test_resume_with_no_epoch_left_exit_code_2(self, tmp_path, epochs,
                                                   capsys):
        run = tmp_path / "run"
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace("epochs = 1",
                                                       "epochs = 2"), out=run)
        assert run_cli(["train", "--config", cfg]) == 0
        ckpt = run / "last.ckpt"
        before, listing = ckpt.read_bytes(), sorted(run.iterdir())
        again = write_cfg(tmp_path, TOY_CLASSIFY.replace(
            "epochs = 1", f"epochs = {epochs}"), "again.ini", out=run)
        capsys.readouterr()
        for out_dir in ([], ["--out-dir", tmp_path / "resumed"]):
            assert run_cli(["train", "--config", again, "--resume", ckpt]
                           + out_dir) == 2
            err = capsys.readouterr().err
            assert f"config error: {again}: epochs = {epochs}, but {ckpt} " \
                "is already at epoch 2" in err
        assert not (tmp_path / "resumed").exists()
        assert sorted(run.iterdir()) == listing
        assert ckpt.read_bytes() == before

    def test_step_outside_trained_support_exit_code_2(self, trained,
                                                      capsys):
        tmp, _ = trained
        code = run_cli(["expand-check", "--checkpoint",
                        tmp / "run" / "last.ckpt", "--step", "1"])
        assert code == 2
        assert "[2, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "export-features"])
    @pytest.mark.parametrize("shape", [(8, 8), (1, 8, 8), (3, 4, 4)])
    def test_bad_input_tensor_exit_code_3(self, trained, tmp_path, command,
                                          shape, capsys):
        tmp, _ = trained
        from rcnet.data import write_rct
        write_rct(tmp_path / "x.rct", np.zeros(shape, np.float32))
        extra = (["--output", tmp_path / "y.rct"] if command == "infer"
                 else ["--cell", "cell1", "--out-dir", tmp_path])
        code = run_cli([command, "--checkpoint", tmp / "run" / "last.ckpt",
                        "--input", tmp_path / "x.rct", "--step", "3"]
                       + extra)
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "export-features"])
    def test_input_of_another_format_exit_code_3(self, trained, tmp_path,
                                                 command, capsys):
        tmp, _ = trained
        (tmp_path / "x.txt").write_text("0 0 0\n")
        extra = (["--output", tmp_path / "y.rct"] if command == "infer"
                 else ["--cell", "cell1", "--out-dir", tmp_path / "feat"])
        code = run_cli([command, "--checkpoint", tmp / "run" / "last.ckpt",
                        "--input", tmp_path / "x.txt", "--step", "3"]
                       + extra)
        assert code == 3
        assert "x.txt: expected a .pgm or .rct input" in \
            capsys.readouterr().err
        assert not (tmp_path / "y.rct").exists()
        assert not (tmp_path / "feat").exists()

    def test_spec_without_arch_exit_code_4(self, trained, tmp_path):
        tmp, cfg = trained
        bad = tmp_path / "noarch.ckpt"
        edit_stored_header(tmp / "run" / "last.ckpt", bad,
                           lambda header: header["spec"].pop("arch"))
        assert run_cli(["train", "--config", cfg, "--out-dir",
                        tmp_path / "resumed", "--resume", bad]) == 4
        assert run_cli(["infer", "--checkpoint", bad, "--input",
                        tmp_path / "x.rct", "--step", "3",
                        "--output", tmp_path / "y.rct"]) == 4

    @pytest.mark.parametrize("key,value", [("arch", "r9"),
                                           ("max_step", 0)])
    def test_spec_with_invalid_value_exit_code_4(self, trained, tmp_path,
                                                 key, value, capsys):
        # the spec's ConfigError is a ValueError: the checkpoint reader must
        # still report it as a bad checkpoint, not as a bad setting
        tmp, cfg = trained
        bad = tmp_path / "bad.ckpt"
        edit_stored_header(tmp / "run" / "last.ckpt", bad,
                           lambda header: header["spec"].update({key: value}))
        assert run_cli(["train", "--config", cfg, "--out-dir",
                        tmp_path / "resumed", "--resume", bad]) == 4
        assert run_cli(["infer", "--checkpoint", bad, "--input",
                        tmp_path / "x.rct", "--step", "3",
                        "--output", tmp_path / "y.rct"]) == 4
        err = capsys.readouterr().err
        assert err.count("checkpoint error:") == 2
        assert err.count("invalid network spec in header") == 2

    @pytest.mark.parametrize("edit,message", [
        (lambda header: header.update(epoch="x"),
         "header epoch must be an integer >= 0"),
        (lambda header: header.update(epoch=-1),
         "header epoch must be an integer >= 0"),
        (lambda header: header.update(iteration=2.5),
         "header iteration must be an integer >= 0"),
        (lambda header: header["rng"].pop("init"),
         "header rng is missing a stream"),
        (lambda header: header["rng"]["noise"].update(
            bit_generator="MT19937"), "header rng is missing a stream"),
        # the header of a checkpoint saved without trainer state
        (lambda header: header.update(rng=None),
         "no trainer state; cannot resume"),
    ], ids=["epoch-string", "epoch-negative", "iteration-float",
            "rng-missing-stream", "rng-other-generator", "no-trainer-state"])
    def test_bad_trainer_state_exit_code_4(self, trained, tmp_path, edit,
                                           message, capsys):
        # epochs = 2, so a resume of the 1-epoch checkpoint would train
        tmp, _ = trained
        cfg = write_cfg(tmp_path, TOY_CLASSIFY.replace("epochs = 1",
                                                       "epochs = 2"),
                        out=tmp_path / "run")
        bad = tmp_path / "bad.ckpt"
        edit_stored_header(tmp / "run" / "last.ckpt", bad, edit)
        assert run_cli(["train", "--config", cfg, "--resume", bad]) == 4
        assert f"checkpoint error: {bad}: {message}" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("support", [[9], [2, 2], [], "2,3"],
                             ids=["above-max-step", "repeated", "empty",
                                  "string"])
    def test_bad_trained_support_exit_code_4(self, trained, tmp_path,
                                             support, capsys):
        from rcnet.data import write_rct
        tmp, _ = trained
        bad = tmp_path / "bad.ckpt"
        edit_stored_header(tmp / "run" / "last.ckpt", bad,
                           lambda header: header.update(
                               trained_support=support))
        write_rct(tmp_path / "x.rct", np.zeros((3, 8, 8), np.float32))
        assert run_cli(["infer", "--checkpoint", bad, "--input",
                        tmp_path / "x.rct", "--step", "2",
                        "--output", tmp_path / "y.rct"]) == 4
        assert "header trained_support must be" in capsys.readouterr().err
        assert not (tmp_path / "y.rct").exists()

    def test_non_finite_checkpoint_exit_code_4(self, trained, tmp_path,
                                               capsys):
        from rcnet.data import write_rct
        tmp, cfg = trained
        bad = tmp_path / "nan.ckpt"
        poison_checkpoint(tmp / "run" / "last.ckpt", bad, "head.linear.weight")
        write_rct(tmp_path / "x.rct", np.zeros((3, 8, 8), np.float32))
        assert run_cli(["infer", "--checkpoint", bad, "--input",
                        tmp_path / "x.rct", "--step", "3",
                        "--output", tmp_path / "y.rct"]) == 4
        assert run_cli(["export-bn", "--checkpoint", bad,
                        "--out", tmp_path / "bn.csv"]) == 4
        assert run_cli(["train", "--config", cfg, "--out-dir",
                        tmp_path / "resumed", "--resume", bad]) == 4
        err = capsys.readouterr().err
        assert err.count("tensor 'head.linear.weight' has non-finite") == 3
        assert not (tmp_path / "y.rct").exists()
        assert not (tmp_path / "bn.csv").exists()


    @pytest.mark.parametrize("bn_mode", ["shared", "none"])
    def test_expand_check_without_step_groups_exit_code_2(
            self, tmp_path, bn_mode, capsys):
        from conftest import build_seeded, small_r2_spec
        from rcnet.checkpoint import save_checkpoint
        ckpt = tmp_path / f"{bn_mode}.ckpt"
        save_checkpoint(ckpt, build_seeded(small_r2_spec(bn_mode=bn_mode)))
        assert run_cli(["expand-check", "--checkpoint", ckpt,
                        "--step", "2"]) == 2
        assert "cannot be expanded" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_code_4(self, trained, tmp_path,
                                              capsys):
        tmp, _ = trained
        raw = (tmp / "run" / "last.ckpt").read_bytes()
        table_start = len(checkpoint_records(raw)[0])
        for cut in (14, table_start + 11):  # header length; tensor table
            bad = tmp_path / "last.ckpt"
            bad.write_bytes(raw[:cut])
            assert run_cli(["expand-check", "--checkpoint", bad,
                            "--step", "2"]) == 4
            assert "truncated" in capsys.readouterr().err

    def test_header_that_is_not_json_exit_code_4(self, trained, tmp_path,
                                                 capsys):
        import struct
        tmp, _ = trained
        raw = (tmp / "run" / "last.ckpt").read_bytes()
        hlen, = struct.unpack_from("<Q", raw, 12)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:20] + b"x" * hlen + raw[20 + hlen:])
        assert run_cli(["expand-check", "--checkpoint", bad,
                        "--step", "2"]) == 4
        assert f"checkpoint error: {bad}: corrupt header JSON" in \
            capsys.readouterr().err

    def test_partial_optimizer_state_exit_code_4(self, trained, tmp_path):
        # a checkpoint holds the momentum of every parameter or of none
        import rcnet
        tmp, cfg = trained
        head, records = checkpoint_records(
            (tmp / "run" / "last.ckpt").read_bytes())
        dropped = next(name for name, _ in records
                       if name.endswith(".momentum"))
        bad = tmp_path / "partial.ckpt"
        bad.write_bytes(join_checkpoint(
            head, [r for r in records if r[0] != dropped]))
        env = dict(os.environ,
                   PYTHONPATH=str(Path(rcnet.__file__).parents[1]))
        r = subprocess.run([sys.executable, "-m", "rcnet", "eval",
                            "--checkpoint", str(bad), "--config", str(cfg),
                            "--step", "3", "--out-dir", str(tmp_path / "ev")],
                           env=env, capture_output=True, text=True)
        assert r.returncode == 4
        assert "Traceback" not in r.stderr
        assert f"optimizer state for some parameters only: '{dropped}' " \
               "is missing (1 missing in total)" in r.stderr

    def test_rct_with_cut_header_exit_code_3(self, trained, tmp_path,
                                             capsys):
        from rcnet.data import write_rct
        tmp, _ = trained
        write_rct(tmp_path / "x.rct", np.zeros((3, 8, 8), np.float32))
        raw = (tmp_path / "x.rct").read_bytes()
        for cut in (6, 13):  # rank; shape
            (tmp_path / "cut.rct").write_bytes(raw[:cut])
            assert run_cli(["infer", "--checkpoint",
                            tmp / "run" / "last.ckpt", "--input",
                            tmp_path / "cut.rct", "--step", "3",
                            "--output", tmp_path / "y.rct"]) == 3
            assert "truncated" in capsys.readouterr().err


class TestDenoiseInfer:
    def test_pgm_in_pgm_out_same_dims(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TOY_DENOISE, out=tmp_path / "drun")
        run_cli(["train", "--config", cfg])
        clean = make_synthetic_textures(1, 16, 0)[0, 0]
        noisy = clean + 25 * np.random.default_rng(1) \
            .standard_normal(clean.shape)
        write_pgm(tmp_path / "noisy.pgm", noisy)
        code = run_cli(["infer", "--checkpoint",
                        tmp_path / "drun" / "last.ckpt",
                        "--input", tmp_path / "noisy.pgm", "--step", "2",
                        "--output", tmp_path / "den.pgm"])
        assert code == 0
        out = read_pgm(tmp_path / "den.pgm")
        assert out.shape == clean.shape

    def test_export_features_one_file_per_step(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TOY_DENOISE, out=tmp_path / "drun")
        run_cli(["train", "--config", cfg])
        clean = make_synthetic_textures(1, 16, 0)[0, 0]
        write_pgm(tmp_path / "img.pgm", clean)
        code = run_cli(["export-features", "--checkpoint",
                        tmp_path / "drun" / "last.ckpt",
                        "--input", tmp_path / "img.pgm", "--cell", "cell2",
                        "--step", "2", "--out-dir", tmp_path / "feat"])
        assert code == 0
        files = sorted((tmp_path / "feat").glob("*.rct"))
        assert [f.name for f in files] == ["features_cell2_step1.rct",
                                           "features_cell2_step2.rct"]
        assert read_rct(files[0]).shape == (1, 8, 16, 16)


class TestCostAndChecks:
    def test_cost_golden_file(self, tmp_path):
        p = tmp_path / "paper.ini"
        p.write_text("[network]\narch = r2\nbn_mode = independent\n"
                     "max_step = 4\nwidths = 64,256\nimage_size = 32\n"
                     "num_classes = 10\n"
                     "[train]\nregime = fixed\nstep_support = 4\n")
        assert run_cli(["cost", "--config", p, "--out-dir", tmp_path]) == 0
        got = (tmp_path / "cost.csv").read_text()
        assert got == GOLDEN.joinpath("cost_r2_n4.csv").read_text()

    def test_cost_depth_column_n1_to_4(self, tmp_path):
        depths = []
        for n in (1, 2, 3, 4):
            p = tmp_path / f"n{n}.ini"
            p.write_text(f"[network]\narch = r2\nbn_mode = independent\n"
                         f"max_step = {n}\nwidths = 64,256\nimage_size = 32\n"
                         f"num_classes = 10\n"
                         f"[train]\nregime = fixed\nstep_support = {n}\n")
            run_cli(["cost", "--config", p, "--out-dir", tmp_path / f"n{n}"])
            row = (tmp_path / f"n{n}" / "cost.csv").read_text() \
                .splitlines()[1].split(",")
            depths.append(int(row[5]))
        assert depths == [6, 10, 14, 18]

    def test_expand_check_passes_and_shared_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "run")
        run_cli(["train", "--config", cfg])
        code = run_cli(["expand-check", "--checkpoint",
                        tmp_path / "run" / "last.ckpt", "--step", "3"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_expand_check_memory_does_not_grow_with_inputs(self, tmp_path,
                                                           capsys):
        # 512 images of 16x16 through 4 channels are one eval slice, and
        # expand-check draws one slice of inputs at a time. Measured: a
        # traced peak of 8.0 MB at both sizes; 11.2 and 36.2 MB when the
        # whole batch was drawn at once.
        from conftest import build_seeded, small_r2_spec
        from rcnet.checkpoint import save_checkpoint
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(ckpt, build_seeded(small_r2_spec(
            max_step=2, widths=(4, 16), image=16)))
        peaks = {}
        for inputs in (1024, 4096):
            tracemalloc.start()
            try:
                code = run_cli(["expand-check", "--checkpoint", ckpt,
                                "--step", "2", "--inputs", str(inputs)])
                peaks[inputs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert "pass" in capsys.readouterr().out
        assert peaks[4096] <= peaks[1024] + 256 * 1024

    def test_expand_check_on_a_denoiser(self, tmp_path, capsys):
        # its inputs are drawn on the 0-255 scale
        ckpt = tmp_path / "r3.ckpt"
        save_checkpoint(ckpt, build_seeded(small_r3_spec(width=4, image=8)))
        assert run_cli(["expand-check", "--checkpoint", ckpt,
                        "--step", "2"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(" pass")

    def test_expand_check_deviating_twin_exit_code_5(self, tmp_path, capsys,
                                                     monkeypatch):
        ckpt = tmp_path / "r2.ckpt"
        save_checkpoint(ckpt, build_seeded(small_r2_spec(
            max_step=2, widths=(4, 16))))

        def perturbed(network, step):
            expanded = expand_to_standard(network, step)
            expanded.named_parameters()["stem.weight"].data[0, 0, 0, 0] += 1
            return expanded

        monkeypatch.setattr(cli, "expand_to_standard", perturbed)
        assert run_cli(["expand-check", "--checkpoint", ckpt,
                        "--step", "2"]) == 5
        out, err = capsys.readouterr()
        assert out.startswith("expand-check step=2 ")
        assert out.rstrip().endswith(" FAIL")
        assert "expansion deviates by" in err

    def test_export_features_unknown_cell_exit_code_2(self, tmp_path,
                                                      capsys):
        ckpt = tmp_path / "r3.ckpt"
        save_checkpoint(ckpt, build_seeded(small_r3_spec(width=4, image=8)))
        write_pgm(tmp_path / "img.pgm", np.full((8, 8), 128.0))
        assert run_cli(["export-features", "--checkpoint", ckpt,
                        "--input", tmp_path / "img.pgm", "--cell", "nope",
                        "--step", "1", "--out-dir", tmp_path / "feat"]) == 2
        assert "no recurrent cell named 'nope'; cells: ['cell1', 'cell2', " \
            "'cell3']" in capsys.readouterr().err
        assert not (tmp_path / "feat").exists()

    def test_export_bn_rows_and_header(self, tmp_path):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "run")
        run_cli(["train", "--config", cfg])
        out = tmp_path / "bn.csv"
        assert run_cli(["export-bn", "--checkpoint",
                        tmp_path / "run" / "last.ckpt", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == GOLDEN.joinpath("bn_export_header.csv") \
            .read_text().strip()
        # cell rows: sum over cells of addresses x slots x channels
        from rcnet.checkpoint import load_checkpoint
        net, _ = load_checkpoint(tmp_path / "run" / "last.ckpt")
        want_cells = sum(c.bank.n_addresses * c.bank.slots * c.bank.channels
                         for c in net.cells().values())
        cell_rows = [l for l in lines[1:] if l.startswith("cell")]
        assert len(cell_rows) == want_cells
        # plus head groups: total rows match every exported group
        head_rows = [l for l in lines[1:] if l.startswith("head")]
        assert len(lines) - 1 == want_cells + len(head_rows)


class TestCommandIdempotence:
    def test_no_command_mutates_the_checkpoint_it_reads(self, trained,
                                                        tmp_path, capsys):
        tmp, cfg = trained
        ckpt = tmp / "run" / "last.ckpt"
        before = ckpt.read_bytes()
        from rcnet.data import write_rct
        img = np.random.default_rng(0).standard_normal((3, 8, 8)) \
            .astype(np.float32)
        write_rct(tmp_path / "x.rct", img)
        run_cli(["eval", "--checkpoint", ckpt, "--config", cfg, "--step",
                 "3", "--out-dir", tmp_path])
        run_cli(["infer", "--checkpoint", ckpt, "--input",
                 tmp_path / "x.rct", "--step", "3", "--output",
                 tmp_path / "y.rct"])
        run_cli(["expand-check", "--checkpoint", ckpt, "--step", "2"])
        run_cli(["export-bn", "--checkpoint", ckpt, "--out",
                 tmp_path / "bn.csv"])
        assert ckpt.read_bytes() == before


PGM_FOLDER = """
[network]
arch = r3
bn_mode = independent
max_step = 2
widths = 8,8,8
image_size = 40
image_channels = 1

[train]
lr = 0.01
epochs = 1
batch_size = 3
regime = fixed
step_support = 2
seed = 1

[data]
kind = pgm_folder
path = {root}
sigma = 25
patch_size = 40

[output]
dir = {out}
"""


class TestPgmFolderTraining:
    @staticmethod
    def write_folder(root):
        for seed, (split, count) in enumerate((("train", 6), ("test", 2))):
            (root / split).mkdir(parents=True)
            for i, img in enumerate(make_synthetic_textures(count, 48, seed)):
                write_pgm(root / split / f"im{i:02d}.pgm", img[0])

    def test_pgm_folder_with_patches(self, tmp_path):
        root = tmp_path / "bsd"
        self.write_folder(root)
        cfg = write_cfg(tmp_path, PGM_FOLDER, "folder.ini", root=root,
                        out=tmp_path / "brun")
        assert run_cli(["train", "--config", cfg]) == 0
        assert (tmp_path / "brun" / "last.ckpt").exists()

    @pytest.mark.parametrize("damage,message", [
        ("empty-train", "no .pgm files in {train}"),
        ("mixed-sizes", "{train}: mixed image sizes [(40, 40), (48, 48)]")])
    def test_unusable_folder_exit_code_3(self, tmp_path, damage, message,
                                         capsys):
        root = tmp_path / "bsd"
        self.write_folder(root)
        if damage == "empty-train":
            for f in (root / "train").glob("*.pgm"):
                f.unlink()
        else:
            write_pgm(root / "train" / "small.pgm",
                      make_synthetic_textures(1, 40, 9)[0, 0])
        cfg = write_cfg(tmp_path, PGM_FOLDER, "folder.ini", root=root,
                        out=tmp_path / "brun")
        assert run_cli(["train", "--config", cfg]) == 3
        assert "data error: " + message.format(train=root / "train") in \
            capsys.readouterr().err
        assert not (tmp_path / "brun").exists()


class TestCifar10Kind:
    def test_default_network_takes_the_data_shape(self, tmp_path, capsys):
        # the kind fixes 3x32x32 and 10 classes over the [network]
        # defaults (16 px, 3 classes), for training, resolved.ini, the
        # checkpoint and cost alike
        cifar, run = tmp_path / "cifar", tmp_path / "run"
        write_cifar_shards(cifar)
        cfg = write_cfg(tmp_path, CIFAR_DEFAULT_NETWORK, path=cifar, out=run)
        assert run_cli(["train", "--config", cfg]) == 0
        assert "\nimage_channels = 3\nimage_size = 32\nnum_classes = 10\n" \
            in (run / "resolved.ini").read_text()
        spec = load_checkpoint(run / "last.ckpt")[0].spec
        assert (spec.image_shape, spec.num_classes) == ((3, 32, 32), 10)
        stated = write_cfg(tmp_path, "[network]\nimage_size = 32\n"
                           "num_classes = 10\n", "stated.ini")
        capsys.readouterr()
        reports = []
        for config, out in ((cfg, "cost"), (stated, "stated_cost")):
            assert run_cli(["cost", "--config", config,
                            "--out-dir", tmp_path / out]) == 0
            reports.append((capsys.readouterr().out,
                            (tmp_path / out / "cost.csv").read_bytes()))
        assert reports[0] == reports[1]
        # eval reads the test shard only
        for shard in cifar.glob("data_batch_*.bin"):
            shard.unlink()
        assert run_cli(["eval", "--checkpoint", run / "last.ckpt",
                        "--config", cfg, "--step", "3",
                        "--out-dir", tmp_path / "ev"]) == 0
        assert (tmp_path / "ev" / "eval.csv").read_text().startswith(
            "metric,step,value\nerr,3,")


class TestThreadCap:
    BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

    @pytest.mark.parametrize("preset,expected", [
        ({}, "3,3,3,3,3"), ({"OPENBLAS_NUM_THREADS": "2"}, "3,2,3,3,3")],
        ids=["unset", "openblas-preset"])
    def test_import_applies_rcnet_threads(self, preset, expected):
        import rcnet
        env = {k: v for k, v in os.environ.items()
               if k not in self.BLAS_VARS}
        src = str(Path(rcnet.__file__).parents[1])
        env.update(preset, RCNET_THREADS="3", PYTHONPATH=src)
        code = ("import os, rcnet; print(','.join(os.environ.get(v, '-') "
                f"for v in {self.BLAS_VARS!r}))")
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == expected


class TestSubprocessDeterminism:
    def test_env_thread_cap_and_bit_identical_checkpoints(self, tmp_path):
        env = dict(os.environ, RCNET_THREADS="1")
        outs = []
        for tag in ("s1", "s2"):
            cfg = write_cfg(tmp_path, TOY_CLASSIFY, f"{tag}.ini",
                            out=tmp_path / tag)
            r = subprocess.run(
                [sys.executable, "-m", "rcnet", "train", "--config",
                 str(cfg)], env=env, capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
            outs.append(tmp_path / tag)
        assert (outs[0] / "last.ckpt").read_bytes() == \
            (outs[1] / "last.ckpt").read_bytes()
        assert (outs[0] / "metrics.csv").read_bytes() == \
            (outs[1] / "metrics.csv").read_bytes()
