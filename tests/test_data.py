"""Dataset loaders, noise statistics, image formats, and checkpoints."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (build_seeded, poison_checkpoint, small_r2_spec,
                      small_r3_spec)
from rcnet import checkpoint
from rcnet.checkpoint import load_checkpoint, restore_into, save_checkpoint
from rcnet.data import (DenoiseSet, add_gaussian_noise, load_cifar10,
                        make_synthetic_classification, make_synthetic_textures,
                        psnr, read_pgm, read_rct, write_pgm, write_rct)
from rcnet.errors import (CheckpointError, DataError, NumericalCheckError,
                          RcnetError)


def linear_probe_error(ds, iters=300, lr=0.5):
    """Independent oracle: multinomial logistic regression on raw pixels."""
    x = ds.images.reshape(len(ds), -1).astype(np.float64)
    x = np.hstack([x, np.ones((len(x), 1))])
    w = np.zeros((ds.num_classes, x.shape[1]))
    for _ in range(iters):
        z = x @ w.T
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(x)), ds.labels] -= 1.0
        w -= lr * (p.T @ x) / len(x)
    pred = (x @ w.T).argmax(axis=1)
    return float((pred != ds.labels).mean())


def cifar_fixture_bytes(n_records, seed=0):
    rng = np.random.default_rng(seed)
    labels = (np.arange(n_records) % 10).astype(np.uint8)
    pixels = rng.integers(0, 256, size=(n_records, 3072), dtype=np.uint16) \
        .astype(np.uint8)
    records = np.concatenate([labels[:, None], pixels], axis=1)
    return records.tobytes(), labels, pixels


class TestCifarLoader:
    def test_single_record(self, tmp_path):
        payload, labels, pixels = cifar_fixture_bytes(1, seed=3)
        f = tmp_path / "one.bin"
        f.write_bytes(payload)
        ds = load_cifar10(f)
        assert len(ds) == 1 and ds.images.shape == (1, 3, 32, 32)
        assert ds.labels[0] == labels[0]

    def test_channel_planes_and_scaling(self, tmp_path):
        payload, labels, pixels = cifar_fixture_bytes(4, seed=5)
        f = tmp_path / "four.bin"
        f.write_bytes(payload)
        ds = load_cifar10(f)
        npt.assert_array_equal(ds.labels, labels)
        want = pixels.reshape(4, 3, 32, 32).astype(np.float32) / 255.0
        npt.assert_array_equal(ds.images, want)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_label_byte_nine(self, tmp_path):
        payload, labels, _ = cifar_fixture_bytes(10)
        f = tmp_path / "ten.bin"
        f.write_bytes(payload)
        ds = load_cifar10(f)
        assert ds.labels[9] == 9

    def test_uniform_label_histogram(self, tmp_path):
        payload, _, _ = cifar_fixture_bytes(50)
        f = tmp_path / "fifty.bin"
        f.write_bytes(payload)
        ds = load_cifar10(f)
        assert np.bincount(ds.labels, minlength=10).tolist() == [5] * 10

    def test_truncated_shard_reports_offset(self, tmp_path):
        payload, _, _ = cifar_fixture_bytes(2)
        f = tmp_path / "trunc.bin"
        f.write_bytes(payload[:-100])
        with pytest.raises(DataError, match="byte offset 3073"):
            load_cifar10(f)

    def test_directory_layout(self, tmp_path):
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)]:
            (tmp_path / name).write_bytes(cifar_fixture_bytes(3)[0])
        (tmp_path / "test_batch.bin").write_bytes(cifar_fixture_bytes(2)[0])
        assert len(load_cifar10(tmp_path, "train")) == 15
        assert len(load_cifar10(tmp_path, "test")) == 2

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_cifar10(tmp_path / "absent.bin")


class TestSyntheticClassification:
    def test_deterministic_per_seed(self):
        a = make_synthetic_classification(3, 50, 16, 7)
        b = make_synthetic_classification(3, 50, 16, 7)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_requested_shapes(self):
        ds = make_synthetic_classification(3, 2000, 16, 0)
        assert ds.images.shape == (2000, 3, 16, 16)
        assert ds.labels.shape == (2000,)
        assert ds.images.dtype == np.float32

    def test_linear_probe_floor(self):
        # random grating phases keep raw pixels linearly non-separable
        ds = make_synthetic_classification(3, 600, 16, 11)
        assert linear_probe_error(ds) > 0.10

    def test_depth6_net_learns_where_probe_cannot(self):
        # a single-step two-cell network (unrolled depth 6) separates the
        # orientations the pixel-space probe cannot
        from rcnet.networks import NetworkSpec, cost_report
        from rcnet.rc import StepDistribution
        from rcnet.training import (TrainConfig, evaluate_classification,
                                    train_fixed)
        ds = make_synthetic_classification(3, 600, 16, 11)
        assert linear_probe_error(ds) > 0.10
        spec = NetworkSpec(arch="r2", task="classify",
                           bn_mode="independent", max_step=1,
                           widths=(16, 64), image_shape=(3, 16, 16),
                           num_classes=3)
        assert cost_report(spec).unrolled_depth == 6
        net = build_seeded(spec)
        cfg = TrainConfig(lr=0.05, momentum=0.9, epochs=3, batch_size=50,
                          seed=0, step_distribution=StepDistribution.fixed(1),
                          eval_each_epoch=False)
        train_fixed(net, ds, None, cfg)
        assert evaluate_classification(net, ds, 1) <= 0.10


class TestNoise:
    def test_sigma_25_empirical_std(self):
        clean = np.full((1, 256, 256), 128.0, dtype=np.float32)
        pair = add_gaussian_noise(clean, 25.0, np.random.default_rng(0))
        std = float((pair.noisy - pair.clean).std())
        assert 24.0 <= std <= 26.0

    def test_mean_unbiased_at_sigma_50(self):
        clean = np.full((1, 256, 256), 100.0, dtype=np.float32)
        pair = add_gaussian_noise(clean, 50.0, np.random.default_rng(1))
        assert abs(float((pair.noisy - pair.clean).mean())) < 0.5

    def test_noisy_vs_clean_psnr_near_closed_form(self):
        clean = make_synthetic_textures(1, 256, 4)[0]
        pair = add_gaussian_noise(clean, 25.0, np.random.default_rng(2))
        want = 20 * np.log10(255.0 / 25.0)
        assert abs(psnr(pair.noisy, pair.clean) - want) < 0.3

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DataError, match="positive"):
            add_gaussian_noise(np.zeros((1, 8, 8), np.float32), 0.0,
                               np.random.default_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_psnr_cap_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0, 255, (1, 6, 6))
        b = rng.uniform(0, 255, (1, 6, 6))
        assert psnr(a, a) == 99.0
        assert abs(psnr(a, b) - psnr(b, a)) < 1e-12


class TestTrainingEpochs:
    @staticmethod
    def streams():
        return np.random.default_rng(31), np.random.default_rng(32)

    @pytest.mark.parametrize("patch", [8, 23, 24, 30, None])
    def test_denoise_epoch_matches_reference(self, patch):
        clean = make_synthetic_textures(5, 24, 2)
        data_rng, noise_rng = self.streams()
        noisy, target = DenoiseSet(clean=clean, sigma=25.0,
                                   patch_size=patch).epoch(data_rng,
                                                           noise_rng)

        ref_data, ref_noise = self.streams()
        want = clean
        if patch is not None and patch < 24:  # tops, then lefts
            tops = ref_data.integers(0, 24 - patch + 1, size=5)
            lefts = ref_data.integers(0, 24 - patch + 1, size=5)
            want = np.stack([clean[i, :, t:t + patch, l:l + patch]
                             for i, (t, l) in enumerate(zip(tops, lefts))])
        noise = ref_noise.standard_normal(want.shape, dtype=np.float32)
        npt.assert_array_equal(target, want)
        npt.assert_array_equal(noisy, want + np.float32(25.0) * noise)
        assert data_rng.bit_generator.state == ref_data.bit_generator.state
        assert noise_rng.bit_generator.state == ref_noise.bit_generator.state

    def test_labeled_epoch_is_the_stored_data_and_draws_nothing(self):
        ds = make_synthetic_classification(3, 12, 8, 4)
        data_rng, noise_rng = self.streams()
        images, labels = ds.epoch(data_rng, noise_rng)
        assert images is ds.images and labels is ds.labels
        ref_data, ref_noise = self.streams()
        assert data_rng.bit_generator.state == ref_data.bit_generator.state
        assert noise_rng.bit_generator.state == ref_noise.bit_generator.state


class TestTextures:
    def test_shape_range_determinism(self):
        a = make_synthetic_textures(5, 32, 9)
        b = make_synthetic_textures(5, 32, 9)
        assert a.shape == (5, 1, 32, 32)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 255.0


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = np.clip(np.random.default_rng(0).uniform(0, 255, (12, 10)),
                      0, 255).round()
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        npt.assert_array_equal(back, img)

    def test_comment_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 1, 2, 3]))
        npt.assert_array_equal(read_pgm(p), [[0, 1], [2, 3]])

    def test_not_p5_rejected(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(DataError, match="P5"):
            read_pgm(p)

    def test_truncated_pixels_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(DataError, match="pixel bytes"):
            read_pgm(p)


class TestRct:
    def test_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((2, 3, 4)) \
            .astype(np.float32)
        p = tmp_path / "t.rct"
        write_rct(p, arr)
        npt.assert_array_equal(read_rct(p), arr)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "b.rct"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(DataError, match="RCT0"):
            read_rct(p)


class TestCheckpoint:
    def test_roundtrip_bit_exact_and_resave_identical(self, tmp_path):
        net = build_seeded(small_r2_spec(bn_mode="double_independent"))
        # make the state non-trivial
        for p in net.parameters():
            p.momentum_buf[...] = 0.25
        state = {"iteration": 7, "epoch": 2, "rng": None}
        a = tmp_path / "a.ckpt"
        save_checkpoint(a, net, state)
        loaded, lstate = load_checkpoint(a)
        assert lstate["iteration"] == 7 and lstate["epoch"] == 2
        for name, p in net.named_parameters().items():
            npt.assert_array_equal(loaded.named_parameters()[name].data,
                                   p.data)
        b = tmp_path / "b.ckpt"
        save_checkpoint(b, loaded, lstate)
        assert a.read_bytes() == b.read_bytes()

    def test_name_bijection_with_spec(self, tmp_path):
        from rcnet.checkpoint import _tensor_table
        net = build_seeded(small_r2_spec(bn_mode="double_independent",
                                         max_step=3))
        table = _tensor_table(net)
        params = set(net.named_parameters())
        momenta = {f"{n}.momentum" for n in params}
        buffers = set(net.named_buffers())
        assert set(table) == params | momenta | buffers
        # every bank address appears
        for name, mod in net.modules:
            if mod.recurrent:
                for addr in range(mod.cell.bank.n_addresses):
                    label = mod.cell.bank.address_name(addr)
                    assert f"{name}.bank.{label}.slot0.gamma" in table

    def test_spec_guard_rejects_other_network(self, tmp_path):
        net = build_seeded(small_r2_spec(max_step=2))
        other = build_seeded(small_r2_spec(max_step=3))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        with pytest.raises(CheckpointError, match="different network spec"):
            restore_into(other, p)

    def test_corrupt_magic_header_and_names(self, tmp_path):
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        raw = bytearray(p.read_bytes())

        bad = tmp_path / "bad1.ckpt"
        bad.write_bytes(b"XXXXXXXX" + bytes(raw[8:]))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(bad)

        bad2 = tmp_path / "bad2.ckpt"
        v = bytearray(raw)
        v[8] = 99  # version field
        bad2.write_bytes(bytes(v))
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(bad2)

    def test_unknown_and_missing_tensor_diagnostics(self, tmp_path):
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)

        # rename one tensor: produces one unknown + one missing
        raw = p.read_bytes()
        target = b"stem.bias"
        swapped = raw.replace(target, b"stem.bios", 1)
        bad = tmp_path / "renamed.ckpt"
        bad.write_bytes(swapped)
        with pytest.raises(CheckpointError,
                           match="unknown tensor 'stem.bios'"):
            load_checkpoint(bad)

    def test_double_precision_refused(self, tmp_path):
        net = build_seeded(small_r2_spec(precision="float64"))
        with pytest.raises(CheckpointError, match="float32"):
            save_checkpoint(tmp_path / "d.ckpt", net)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_never_written(self, tmp_path, value):
        net = build_seeded(small_r2_spec(max_step=1))
        net.named_parameters()["head.linear.weight"].data[0, 0] = value
        p = tmp_path / "x.ckpt"
        with pytest.raises(NumericalCheckError,
                           match="'head.linear.weight' has non-finite"):
            save_checkpoint(p, net)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_never_loaded(self, tmp_path, value):
        net = build_seeded(small_r2_spec(max_step=1))
        good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
        save_checkpoint(good, net)
        poison_checkpoint(good, bad, "cell1.bank.j1.slot1.running_var", value)
        for read in (load_checkpoint, lambda p: restore_into(net, p)):
            with pytest.raises(CheckpointError,
                               match="'cell1.bank.j1.slot1.running_var' has "
                                     "non-finite"):
                read(bad)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        before = p.read_bytes()
        real_open = open

        class DiskFull:
            """File whose fourth write fails."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, b):
                self.writes += 1
                if self.writes == 4:
                    raise OSError("disk full")
                return self.f.write(b)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(checkpoint, "open", raising=False,
                            value=lambda *a, **k: DiskFull(real_open(*a, **k)))
        net.named_parameters()["stem.weight"].data[...] = 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(p, net)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_shape_mismatch_diagnostic(self, tmp_path):
        from rcnet.checkpoint import _install, _read_header, _read_tensors
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        data = p.read_bytes()
        _, offset = _read_header(data, p)
        table = _read_tensors(data, offset, p)
        table["stem.bias"] = np.zeros(9, dtype="<f4")
        with pytest.raises(CheckpointError,
                           match=r"'stem.bias' has shape \(9,\)"):
            _install(net, table, p)


class TestTruncatedFiles:
    """Cut or damaged binary files raise typed errors, never struct.error."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("truncated")
        ckpt, rct = tmp / "small.ckpt", tmp / "small.rct"
        save_checkpoint(ckpt, build_seeded(small_r3_spec(max_step=1, width=2,
                                                         image=8)))
        write_rct(rct, np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        return tmp, ckpt.read_bytes(), rct.read_bytes()

    def test_every_checkpoint_prefix_raises_checkpoint_error(self, files):
        from rcnet.checkpoint import _read_header, _read_tensors
        _, ckpt, _ = files
        for cut in range(len(ckpt)):
            with pytest.raises(CheckpointError):
                _, offset = _read_header(ckpt[:cut], "x.ckpt")
                _read_tensors(ckpt[:cut], offset, "x.ckpt")

    def test_every_rct_prefix_raises_data_error(self, files):
        tmp, _, rct = files
        for cut in range(len(rct)):
            (tmp / "cut.rct").write_bytes(rct[:cut])
            with pytest.raises(DataError):
                read_rct(tmp / "cut.rct")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), junk=st.binary(max_size=24))
    def test_cut_and_extended_files_raise_only_typed_errors(self, files,
                                                            data, junk):
        tmp, ckpt, rct = files
        for blob, reader, name in ((ckpt, load_checkpoint, "fuzz.ckpt"),
                                   (rct, read_rct, "fuzz.rct")):
            cut = data.draw(st.integers(0, len(blob)))
            (tmp / name).write_bytes(blob[:cut] + junk)
            try:
                reader(tmp / name)
            except RcnetError:
                pass
