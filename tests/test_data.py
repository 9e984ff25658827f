"""Dataset loaders, noise statistics, image formats, and checkpoints."""

import hashlib
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (build_seeded, checkpoint_records, join_checkpoint,
                      mutations, param_checksums, poison_checkpoint,
                      small_r2_spec, small_r3_spec, tensor_record)
from rcnet import checkpoint
from rcnet.checkpoint import load_checkpoint, save_checkpoint
from rcnet.data import (DenoiseSet, add_gaussian_noise, load_cifar10,
                        make_synthetic_classification, make_synthetic_textures,
                        psnr, read_pgm, read_rct, write_pgm, write_rct)
from rcnet.errors import (CheckpointError, DataError, NumericalCheckError,
                          RcnetError)
from rcnet.networks import (NetworkSpec, build_network, cost_report,
                            expand_to_standard)
from rcnet.optim import SGD, Adam


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

    @pytest.mark.parametrize("args, sha256", [
        ((10, 512, 32, [0, 11]),
         "b7834dffa2c438a67dc38365b172a244a2adf74535f4e274d9d836dbda93a019"),
        ((3, 2000, 16, [11, 11]),
         "5c9001603000ca435f449a7aaba5ed3d78d88521578342a791553160d3f20b23"),
    ])
    def test_image_bytes_are_pinned(self, args, sha256):
        # the sets are generated a chunk of samples at a time; the hashes
        # are those of the whole-set float64 generator they replaced
        classes, samples, size, key = args
        ds = make_synthetic_classification(classes, samples, size,
                                           np.random.SeedSequence(key))
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == sha256

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
                                    run_training)
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
        run_training(net, ds, None, cfg, "fixed")
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

    @pytest.mark.parametrize("h,w", [(30, 50), (50, 30)])
    def test_denoise_epoch_keeps_frame_when_patch_exceeds_a_side(self, h, w):
        clean = np.arange(2 * h * w, dtype=np.float32).reshape(2, 1, h, w)
        data_rng, noise_rng = self.streams()
        noisy, target = DenoiseSet(clean=clean, sigma=25.0,
                                   patch_size=40).epoch(data_rng, noise_rng)
        ref_data, _ = self.streams()
        npt.assert_array_equal(target, clean)
        assert noisy.shape == clean.shape
        assert data_rng.bit_generator.state == ref_data.bit_generator.state

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

    @pytest.mark.parametrize("maxval", [15, 0, 65535])
    def test_maxval_other_than_255_rejected(self, tmp_path, maxval):
        # a maxval-15 file stores white as 15, near-black on 0..255; the
        # 4 bytes are 2 pixels at 2 bytes each when maxval > 255
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n2 1\n%d\n" % maxval + bytes(4))
        with pytest.raises(DataError, match=f"maxval {maxval} "):
            read_pgm(p)

    def test_overlong_header_number_rejected(self, tmp_path):
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n")
        with pytest.raises(DataError, match="malformed PGM header"):
            read_pgm(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(blob=mutations(b"P5\n# texture\n4 3\n255\n" + bytes(range(12))))
    def test_mutated_file_raises_only_typed_errors(self, tmp_path, blob):
        p = tmp_path / "fuzz.pgm"
        p.write_bytes(blob)
        try:
            read_pgm(p)
        except RcnetError:
            pass


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


# SHA-256 of the checkpoints that ``_patterned_r4`` saves without an
# optimizer and after one SGD or Adam step; the values are elementwise
# float arithmetic (no BLAS), so the hashes hold on any machine
PINNED_CHECKPOINT_SHA256 = {
    None: "7dd92eb6b553fbc937a5e585cc44e46471928e250bb132b3fc0ef003eec24111",
    "sgd": "23e4074736045ecd62bd912462c77cf37b546be14714a40f0f9f35ab5ae441e3",
    "adam": "3b79caf385cbb6710065e0b0f3d16e79f63ff549764b8c3289e5ecb67935f60d",
}


def _patterned_r4():
    """A small double-independent r4 (stem, transitions, cells and head)
    whose parameters and gradients are fixed ramps, not RNG draws."""
    net = build_network(NetworkSpec(
        arch="r4", task="classify", bn_mode="double_independent",
        max_step=2, widths=(4, 8, 16, 32), image_shape=(3, 8, 8),
        num_classes=3))
    for p in net.parameters():
        p.data[...] = np.linspace(-1.0, 1.0, p.size).reshape(p.shape)
        p.grad[...] = np.linspace(0.5, -0.25, p.size).reshape(p.shape)
    return net


class TestCheckpoint:
    @pytest.mark.parametrize("optimizer", [None, "sgd", "adam"])
    def test_bytes_are_pinned(self, tmp_path, optimizer):
        net = _patterned_r4()
        state = None
        if optimizer == "sgd":
            SGD(net.parameters(), 0.1, momentum=0.9, weight_decay=0.01,
                shared_lr_scale=0.5).step()
        elif optimizer == "adam":
            Adam(net.parameters(), 0.01, weight_decay=0.01,
                 shared_lr_scale=0.5).step()
        if optimizer:
            state = {"iteration": 1, "epoch": 1, "optimizer": optimizer,
                     "updates": 1}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        held = {name: sorted(p.state) for name, p in
                net.named_parameters().items()}
        save_checkpoint(a, net, state)
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            PINNED_CHECKPOINT_SHA256[optimizer]
        # a save creates no buffer: without an optimizer, every state
        # stays empty and the file stores none
        assert {name: sorted(p.state) for name, p in
                net.named_parameters().items()} == held
        assert optimizer or not any(held.values())
        save_checkpoint(b, *load_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_bit_exact_and_resave_identical(self, tmp_path):
        net = build_seeded(small_r2_spec(bn_mode="double_independent"))
        # make the state non-trivial
        for p in net.parameters():
            p.state["momentum"] = np.full_like(p.data, 0.25)
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
        # a network that never took a step stores no optimizer buffer; one
        # that took an SGD step stores the momentum of every parameter
        from rcnet.checkpoint import _tensor_table
        net = build_seeded(small_r2_spec(bn_mode="double_independent",
                                         max_step=3))
        params = set(net.named_parameters())
        buffers = set(net.named_buffers())
        for momenta in (set(), {f"{n}.momentum" for n in params}):
            if momenta:
                SGD(net.parameters(), 0.1, momentum=0.9).step()
            table = _tensor_table(net)
            assert set(table) == params | momenta | buffers
        # every bank address appears
        for name, mod in net.modules:
            if mod.recurrent:
                for addr in range(mod.bank.n_addresses):
                    label = mod.bank.address_name(addr)
                    assert f"{name}.bank.{label}.slot0.gamma" in table

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_fresh_network_stores_and_loads_no_optimizer_state(
            self, tmp_path, optimizer):
        net = build_seeded(small_r2_spec(bn_mode="double_independent"))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net, {"optimizer": optimizer})
        _, records = checkpoint_records(p.read_bytes())
        names = [name for name, _ in records]
        assert len(names) == len(net.named_parameters()) + \
            len(net.named_buffers())
        assert not [n for n in names
                    if n.endswith((".momentum", ".adam_m", ".adam_v"))]
        loaded, state = load_checkpoint(p)
        assert state["optimizer"] == optimizer
        assert all(q.state == {} for q in loaded.parameters())

    def test_partial_optimizer_state_refused(self, tmp_path):
        # through the library every parameter holds the buffers or none
        # does; a file or a hand-built state with some is refused
        net = build_seeded(small_r2_spec(max_step=1))
        SGD(net.parameters(), 0.1, momentum=0.9).step()
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        head, records = checkpoint_records(p.read_bytes())
        momenta = [name for name, _ in records if name.endswith(".momentum")]
        assert len(momenta) == len(net.named_parameters())
        for keep in (momenta[:1], momenta[1:]):
            p.write_bytes(join_checkpoint(head, [
                r for r in records
                if not r[0].endswith(".momentum") or r[0] in keep]))
            n = len(momenta) - len(keep)
            with pytest.raises(CheckpointError,
                               match=rf"x\.ckpt: checkpoint stores optimizer "
                                     rf"state for some parameters only: "
                                     rf"'.*\.momentum' is missing \({n} "
                                     rf"missing in total\)"):
                load_checkpoint(p)
        del net.named_parameters()["stem.weight"].state["momentum"]
        with pytest.raises(CheckpointError,
                           match=r"not writing .*y\.ckpt: it holds optimizer "
                                 r"state for some parameters only: "
                                 r"'stem\.weight\.momentum' is missing"):
            save_checkpoint(tmp_path / "y.ckpt", net)
        assert list(tmp_path.iterdir()) == [p]

    def test_file_with_zero_buffers_loads_and_resaves_identically(
            self, tmp_path):
        # files written before the all-or-none rule stored a zero momentum
        # for every parameter of a network that never took a step
        net = build_seeded(small_r2_spec(bn_mode="double_independent"))
        stateless, old = tmp_path / "stateless.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(stateless, net)
        head, records = checkpoint_records(stateless.read_bytes())
        records += [(f"{name}.momentum",
                     tensor_record(f"{name}.momentum", np.zeros(q.shape)))
                    for name, q in net.named_parameters().items()]
        old.write_bytes(join_checkpoint(head, sorted(records)))
        loaded, state = load_checkpoint(old)
        for q in loaded.parameters():
            assert list(q.state) == ["momentum"] and not q.state[
                "momentum"].any()
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(resaved, loaded, state)
        assert resaved.read_bytes() == old.read_bytes()

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

    def test_missing_tensor_diagnostic(self, tmp_path):
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        head, records = checkpoint_records(p.read_bytes())
        dropped, _ = records.pop(3)
        p.write_bytes(join_checkpoint(head, records))
        with pytest.raises(CheckpointError,
                           match=rf"missing tensor '{dropped}' "
                                 r"\(1 missing in total\)"):
            load_checkpoint(p)

    def test_trailing_bytes_refused(self, tmp_path):
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(CheckpointError, match="1 trailing bytes"):
            load_checkpoint(p)

    def test_float64_header_spec_loads_the_stored_values(self, tmp_path):
        # the payload stays float32 and is converted on read, the branch
        # that also serves a big-endian host
        net = build_seeded(small_r2_spec(bn_mode="double_independent",
                                         max_step=2, widths=(4, 16)))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        raw = p.read_bytes()
        head, _ = checkpoint_records(raw)
        f32, f64 = b'"precision":"float32"', b'"precision":"float64"'
        assert head.count(f32) == 1
        p.write_bytes(head.replace(f32, f64) + raw[len(head):])
        loaded, _ = load_checkpoint(p)
        assert loaded.spec.precision == "float64"

        def arrays(network):
            return {**{name: q.data for name, q in
                       network.named_parameters().items()},
                    **network.named_buffers()}

        want, got = arrays(net), arrays(loaded)
        assert got.keys() == want.keys()
        for name, arr in got.items():
            assert arr.dtype == np.float64, name
            npt.assert_array_equal(arr, want[name])

    def test_load_and_cost_report_draw_no_init(self, tmp_path, monkeypatch):
        # a load reads every value from the file and a cost report needs
        # only the shapes, so neither draws weights
        spec = NetworkSpec(arch="r4", task="classify",
                           bn_mode="double_independent", max_step=2,
                           widths=(4, 8, 16, 32), image_shape=(3, 8, 8),
                           num_classes=3)
        net = build_seeded(spec)
        p = tmp_path / "r4.ckpt"
        save_checkpoint(p, net)
        want = cost_report(spec)

        def no_draws(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _ = load_checkpoint(p)
        assert param_checksums(loaded) == param_checksums(net)
        assert cost_report(spec) == want

    @pytest.mark.parametrize("optimizer", ["foo", ["sgd"], None],
                             ids=["foo", "list", "none"])
    def test_unknown_optimizer_never_written(self, tmp_path, optimizer):
        net = build_seeded(small_r2_spec(max_step=1))
        with pytest.raises(CheckpointError,
                           match=r"optimizer must be one of \('sgd', 'adam'\)"):
            save_checkpoint(tmp_path / "x.ckpt", net,
                            {"optimizer": optimizer})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("state,support,message", [
        ({"iteration": -1}, None, "iteration must be an integer >= 0"),
        ({}, [3], r"trained_support must be null .* in \[1, 2\]"),
        ({"rng": {"init": 1}}, None, "rng is missing a stream")],
        ids=["iteration-negative", "support-above-max-step",
             "rng-not-stream-states"])
    def test_header_a_load_refuses_never_written(self, tmp_path, state,
                                                 support, message):
        # the save replaces its path, so a header the load refuses would
        # cost the good checkpoint there
        net = build_seeded(small_r2_spec(max_step=2))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        before = p.read_bytes()
        net.trained_support = support
        with pytest.raises(CheckpointError,
                           match=rf"not writing .*x\.ckpt: header {message}"):
            save_checkpoint(p, net, state)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_untied_expansion_never_written(self, tmp_path):
        # its header spec would rebuild the recurrent network, whose
        # tensor names the untied copies do not have
        net = build_seeded(small_r2_spec(bn_mode="double_independent"))
        with pytest.raises(CheckpointError,
                           match=r"not writing .*x\.ckpt: an untied expansion"):
            save_checkpoint(tmp_path / "x.ckpt", expand_to_standard(net, 2))
        assert list(tmp_path.iterdir()) == []

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
        with pytest.raises(CheckpointError,
                           match="'cell1.bank.j1.slot1.running_var' has "
                                 "non-finite"):
            load_checkpoint(bad)

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
        net = build_seeded(small_r2_spec(max_step=1))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        head, records = checkpoint_records(p.read_bytes())
        records = [(name, tensor_record(name, np.zeros(9)) if
                    name == "stem.bias" else record)
                   for name, record in records]
        p.write_bytes(join_checkpoint(head, records))
        with pytest.raises(CheckpointError,
                           match=r"'stem.bias' has shape \(9,\)"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit", ["appended", "repeated", "swapped"])
    def test_names_must_ascend(self, tmp_path, edit):
        # a file that stored a tensor twice once loaded the later copy
        net = build_seeded(small_r2_spec(widths=(4, 16), max_step=2))
        p = tmp_path / "x.ckpt"
        save_checkpoint(p, net)
        head, records = checkpoint_records(p.read_bytes())
        first = records[0][0]
        again = (first, tensor_record(first, np.full(4, 7.0)))
        if edit == "appended":
            records.append(again)
        elif edit == "repeated":
            records.insert(1, again)
        else:
            records[:2] = records[1::-1]
        p.write_bytes(join_checkpoint(head, records))
        match = (f"'{records[1][0]}' is out of order" if edit == "swapped"
                 else f"'{first}' is stored twice")
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(p)

    def test_load_holds_the_file_once_and_infer_adds_no_gradient(
            self, tmp_path):
        # the r4 of perfbench's infer_r4 (5.8 MB); its load once peaked
        # at 2.6x the file and kept a zero gradient per parameter
        import tracemalloc

        from rcnet.training import infer
        spec = NetworkSpec(arch="r4", task="classify",
                           bn_mode="double_independent", max_step=4,
                           widths=(16, 32, 64, 128), image_shape=(3, 32, 32),
                           num_classes=10)
        p = tmp_path / "r4.ckpt"
        save_checkpoint(p, build_seeded(spec))
        size = p.stat().st_size
        x = np.zeros((2, 3, 32, 32), np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            net, _ = load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1] - base
            for step in range(1, spec.max_step + 1):
                infer(net, x, step)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert peak <= size + 2 ** 20, (peak, size)
        param_bytes = sum(q.data.nbytes for q in net.parameters())
        assert kept < size + param_bytes, (kept, size, param_bytes)


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
        tmp, ckpt, _ = files
        for cut in range(len(ckpt)):
            (tmp / "cut.ckpt").write_bytes(ckpt[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(tmp / "cut.ckpt")

    @pytest.mark.parametrize("field", ["header length", "tensor count",
                                       "name length", "dims", "unknown dims",
                                       "name utf-8"])
    def test_lengths_past_the_end_raise_checkpoint_error(self, files, field):
        # each must raise CheckpointError before it allocates or decodes
        # what the field claims: never MemoryError, OverflowError or
        # UnicodeDecodeError
        tmp, ckpt, _ = files
        head, records = checkpoint_records(ckpt)
        name, record = records[0]
        body = record[2 + len(name):]          # rank, dims, payload
        payload = body[1 + 4 * body[0]:]
        if field == "header length":
            blob = ckpt[:12] + struct.pack("<Q", 2 ** 64 - 1) + ckpt[20:]
        elif field == "tensor count":
            blob = head + struct.pack("<Q", 2 ** 64 - 1) + ckpt[len(head) + 8:]
        else:
            if field == "name length":
                record = struct.pack("<H", 2 ** 16 - 1) + record[2:]
            elif field == "name utf-8":
                record = struct.pack("<H", 2) + b"\xff\xfe" + body
            else:  # a stored or an unknown tensor of 2**32 - 1 elements
                label = name if field == "dims" else "zz.unknown"
                record = (struct.pack("<H", len(label)) + label.encode()
                          + struct.pack("<BI", 1, 2 ** 32 - 1) + payload)
            blob = join_checkpoint(head, [(name, record)] + records[1:])
        (tmp / "long.ckpt").write_bytes(blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp / "long.ckpt")

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
