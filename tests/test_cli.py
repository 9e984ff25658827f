"""Config parsing, CLI commands, exit codes, and golden CSV schemas."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import poison_checkpoint
from rcnet.cli import main
from rcnet.config import parse_config
from rcnet.data import make_synthetic_textures, read_pgm, read_rct, write_pgm
from rcnet.errors import ConfigError

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


def write_cfg(tmp_path, text, name="cfg.ini", **fmt):
    p = tmp_path / name
    p.write_text(text.format(**fmt))
    return p


def run_cli(args):
    return main([str(a) for a in args])


class TestConfigParsing:
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
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert "; " in text  # the example carries inline comments
        p = tmp_path / "readme.ini"
        p.write_text(text)
        cfg = parse_config(p)
        assert cfg.network.widths == (16, 64)
        assert cfg.train.step_distribution.probs == (0.2, 0.3, 0.5)
        assert cfg.data.kind == "synthetic_classify"

    def test_cost_adjustable_needs_di_mode(self, tmp_path):
        p = tmp_path / "ca.ini"
        p.write_text("[train]\nregime = cost_adjustable\nstep_support = 2,3\n")
        with pytest.raises(ConfigError, match="double_independent"):
            parse_config(p)


class TestTrainCommand:
    def test_train_writes_artifacts_and_loss_decreases(self, tmp_path):
        cfg = write_cfg(tmp_path, TOY_CLASSIFY, out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 0
        out = tmp_path / "run"
        for name in ("resolved.ini", "metrics.csv", "eval.csv", "last.ckpt",
                     "best.ckpt"):
            assert (out / name).exists()
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

    @pytest.mark.parametrize("text,old,new,message", [
        (TOY_DENOISE, "sigma = 25", "sigma = 25\npatch_size = 0",
         "patch_size must be >= 1"),
        (TOY_DENOISE, "sigma = 25", "sigma = 25\npatch_size = -3",
         "patch_size must be >= 1"),
        (TOY_CLASSIFY, "widths = 8,32", "widths = 0,0", "widths must be >= 1"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\nmomentum = 1.5",
         "momentum must be in [0, 1)"),
        (TOY_CLASSIFY, "lr = 0.05", "lr = 0.05\nweight_decay = -1",
         "weight_decay must be >= 0")],
        ids=["patch_size-0", "patch_size-neg", "widths-0", "momentum-1.5",
             "weight_decay-neg"])
    def test_out_of_range_value_exit_code_2(self, tmp_path, text, old, new,
                                            message, capsys):
        cfg = write_cfg(tmp_path, text.replace(old, new),
                        out=tmp_path / "run")
        assert run_cli(["train", "--config", cfg]) == 2
        assert message in capsys.readouterr().err

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

    def test_spec_without_arch_exit_code_4(self, trained, tmp_path):
        import json
        import struct

        from rcnet.checkpoint import _read_header
        tmp, cfg = trained
        raw = (tmp / "run" / "last.ckpt").read_bytes()
        header, offset = _read_header(raw, "last.ckpt")
        del header["spec"]["arch"]
        hbytes = json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
        bad = tmp_path / "noarch.ckpt"
        bad.write_bytes(raw[:12] + struct.pack("<Q", len(hbytes)) + hbytes
                        + raw[offset:])
        assert run_cli(["train", "--config", cfg, "--out-dir",
                        tmp_path / "resumed", "--resume", bad]) == 4
        assert run_cli(["infer", "--checkpoint", bad, "--input",
                        tmp_path / "x.rct", "--step", "3",
                        "--output", tmp_path / "y.rct"]) == 4

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
        from rcnet.checkpoint import _read_header
        tmp, _ = trained
        raw = (tmp / "run" / "last.ckpt").read_bytes()
        _, table_start = _read_header(raw, "last.ckpt")
        for cut in (14, table_start + 11):  # header length; tensor table
            bad = tmp_path / "last.ckpt"
            bad.write_bytes(raw[:cut])
            assert run_cli(["expand-check", "--checkpoint", bad,
                            "--step", "2"]) == 4
            assert "truncated" in capsys.readouterr().err

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


class TestPgmFolderTraining:
    def test_pgm_folder_with_patches(self, tmp_path):
        from rcnet.data import make_synthetic_textures, write_pgm
        root = tmp_path / "bsd"
        for seed, (split, count) in enumerate((("train", 6), ("test", 2))):
            (root / split).mkdir(parents=True)
            for i, img in enumerate(make_synthetic_textures(count, 48, seed)):
                write_pgm(root / split / f"im{i:02d}.pgm", img[0])
        cfg = tmp_path / "folder.ini"
        cfg.write_text(f"""
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
dir = {tmp_path / "brun"}
""")
        assert run_cli(["train", "--config", cfg]) == 0
        assert (tmp_path / "brun" / "last.ckpt").exists()


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
