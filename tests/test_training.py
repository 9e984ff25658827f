"""Training-loop policies, inference guards, and evaluation metrics."""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from conftest import build_seeded, param_checksums, small_r2_spec, small_r3_spec
from rcnet.data import (DenoiseSet, make_denoise_eval_set,
                        make_synthetic_classification, make_synthetic_textures,
                        psnr)
from rcnet.rc import StepDistribution
from rcnet.training import (TrainConfig, evaluate_classification,
                            evaluate_denoise, infer, noisy_input_psnr,
                            run_training, train_aggregated,
                            train_cost_adjustable, train_fixed)


@pytest.fixture(scope="module")
def toy_data():
    train = make_synthetic_classification(3, 120, 8,
                                          np.random.SeedSequence([9, 11]))
    test = make_synthetic_classification(3, 60, 8,
                                         np.random.SeedSequence([9, 12]),
                                         split="test")
    return train, test


def toy_cfg(**kw):
    base = dict(lr=0.05, momentum=0.9, epochs=1, batch_size=30, seed=0,
                step_distribution=StepDistribution.fixed(2),
                eval_each_epoch=False)
    base.update(kw)
    return TrainConfig(**base)


class TestPolicies:
    def test_zero_lr_leaves_parameters_unchanged(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        before = {k: p.data.copy() for k, p in net.named_parameters().items()}
        train_fixed(net, *toy_data, toy_cfg(lr=0.0))
        for k, p in net.named_parameters().items():
            npt.assert_array_equal(p.data, before[k])

    def test_shared_update_is_half_of_unscaled(self, toy_data):
        # one iteration, no momentum: shared params move by exactly half
        # of what an lr_scale=1 run applies (double precision keeps the
        # before/after subtraction sharp)
        runs = {}
        for scale in (0.5, 1.0):
            net = build_seeded(small_r2_spec(max_step=2,
                                             precision="float64"), seed=4)
            before = net.named_parameters()["cell1.conv0.weight"].data.copy()
            cfg = toy_cfg(momentum=0.0, epochs=1, batch_size=120,
                          shared_lr_scale=scale)
            train_fixed(net, *toy_data, cfg)
            after = net.named_parameters()["cell1.conv0.weight"].data
            runs[scale] = after - before
        npt.assert_allclose(runs[0.5], 0.5 * runs[1.0], rtol=1e-9, atol=1e-15)

    def test_grad_norm_records_bounded_by_clip(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        log = train_fixed(net, *toy_data, toy_cfg(clip_max_norm=1.0, epochs=2))
        assert log.iterations
        for rec in log.iterations:
            assert rec.grad_norm_post <= 1.0 + 1e-6
            assert rec.step == 2

    def test_support_exceeding_max_step_rejected(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        cfg = toy_cfg(step_distribution=StepDistribution.fixed(3))
        with pytest.raises(ValueError, match="exceeds"):
            train_fixed(net, *toy_data, cfg)

    def test_fixed_requires_singleton(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        cfg = toy_cfg(step_distribution=StepDistribution((1, 2), (0.5, 0.5)))
        with pytest.raises(ValueError, match="singleton"):
            train_fixed(net, *toy_data, cfg)

    def test_cost_adjustable_requires_double_independent(self, toy_data):
        net = build_seeded(small_r2_spec(bn_mode="independent", max_step=2))
        cfg = toy_cfg(step_distribution=StepDistribution((1, 2), (0.5, 0.5)))
        with pytest.raises(ValueError, match="double_independent"):
            train_cost_adjustable(net, *toy_data, cfg)


class TestRegimes:
    def test_singleton_collapse_is_bit_identical(self, toy_data):
        spec = small_r2_spec(bn_mode="double_independent", max_step=2)
        net_f = build_seeded(spec, seed=11)
        net_c = build_seeded(spec, seed=11)
        cfg = toy_cfg(epochs=2)
        log_f = train_fixed(net_f, *toy_data, cfg)
        log_c = train_cost_adjustable(net_c, *toy_data, cfg)
        assert param_checksums(net_f) == param_checksums(net_c)
        assert [(r.loss, r.step) for r in log_f.iterations] == \
            [(r.loss, r.step) for r in log_c.iterations]

    def test_sampled_steps_logged_in_support(self, toy_data):
        spec = small_r2_spec(bn_mode="double_independent", max_step=3)
        net = build_seeded(spec)
        dist = StepDistribution((2, 3), (0.5, 0.5))
        log = train_cost_adjustable(net, *toy_data,
                                    toy_cfg(step_distribution=dist, epochs=3))
        assert {r.step for r in log.iterations} <= set(dist.support)

    def test_aggregated_singleton_matches_fixed(self, toy_data):
        spec = small_r2_spec(bn_mode="double_independent", max_step=2)
        net_a = build_seeded(spec, seed=2)
        net_f = build_seeded(spec, seed=2)
        cfg = toy_cfg()
        train_aggregated(net_a, *toy_data, cfg)
        train_fixed(net_f, *toy_data, cfg)
        assert param_checksums(net_a) == param_checksums(net_f)

    def test_aggregated_loss_is_weighted_sum(self, toy_data):
        # recompute the two per-step losses on the untouched network and
        # compare against the first aggregated-iteration record
        spec = small_r2_spec(bn_mode="double_independent", max_step=2)
        dist = StepDistribution((1, 2), (0.3, 0.7))
        cfg = toy_cfg(step_distribution=dist, lr=0.0, epochs=1,
                      batch_size=120)
        net = build_seeded(spec, seed=6)
        ref = build_seeded(spec, seed=6)
        log = train_aggregated(net, *toy_data, cfg)
        assert log.iterations[0].step == -1

        from rcnet import functional as F
        from rcnet.training import RngStreams
        rngs = RngStreams(cfg.seed)
        order = rngs.data.permutation(120)
        xb = toy_data[0].images[order]
        yb = toy_data[0].labels[order]
        want = 0.0
        for s, p in zip(dist.support, dist.probs):
            li = F.softmax_cross_entropy(
                ref.forward(xb, s, training=True), yb)
            want += p * float(li.data)
        assert abs(log.iterations[0].loss - want) < 1e-6

    def test_aggregated_iteration_cost_exceeds_sampled(self, toy_data):
        # a wide, cheap-step-skewed support makes the inequality hold with
        # a large margin: aggregated ~ cost(1)+cost(4) ~ 5 units vs
        # sampled ~ 1.15 units, against a required factor of |support| = 2
        spec = small_r2_spec(bn_mode="double_independent", max_step=4,
                             widths=(16, 64), image=16)
        dist = StepDistribution((1, 4), (0.95, 0.05))
        train = make_synthetic_classification(
            3, 256, 16, np.random.SeedSequence([1, 2]))
        cfg = toy_cfg(step_distribution=dist, epochs=2, batch_size=64)

        def timed(train_fn):
            train_fn(build_seeded(spec), train, None, cfg)  # warm-up
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                train_fn(build_seeded(spec), train, None, cfg)
                best = min(best, time.perf_counter() - t0)
            return best

        t_agg = timed(train_aggregated)
        t_ca = timed(train_cost_adjustable)
        assert t_agg >= len(dist.support) * t_ca

    def test_run_training_dispatch_unknown_regime(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        with pytest.raises(ValueError, match="unknown regime"):
            run_training(net, *toy_data, toy_cfg(), "warp")


class TestInferenceAndMetrics:
    def test_infer_outside_support_lists_support(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=3))
        cfg = toy_cfg(step_distribution=StepDistribution.fixed(3))
        train_fixed(net, *toy_data, cfg)
        with pytest.raises(ValueError, match=r"\[3\]"):
            infer(net, toy_data[1].images[:2], 2)

    def test_eval_determinism_and_no_mutation(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        x = toy_data[1].images[:4]
        before = param_checksums(net)
        a = infer(net, x, 2)
        b = infer(net, x, 2)
        assert np.array_equal(a, b)
        assert param_checksums(net) == before

    def test_train_mode_updates_only_touched_groups(self, toy_data):
        spec = small_r2_spec(bn_mode="double_independent", max_step=3)
        net = build_seeded(spec)
        dist = StepDistribution((2, 3), (0.5, 0.5))
        train_cost_adjustable(net, *toy_data,
                              toy_cfg(step_distribution=dist, epochs=2))
        for name, cell in net.cells().items():
            bank = cell.bank
            for s in (1,):  # unreachable row
                for j in range(1, s + 1):
                    for g in bank.select(s, j):
                        npt.assert_array_equal(g.running_mean,
                                               np.zeros(g.channels))
                        npt.assert_array_equal(g.gamma.data,
                                               np.ones(g.channels))

    def test_error_rate_all_correct_is_zero(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=1))
        test = toy_data[1]
        # cheat: evaluate against the network's own predictions
        logits = net.forward(test.images, 1, training=False).data
        from dataclasses import replace
        fake = replace(test, labels=logits.argmax(axis=1).astype(np.int64))
        assert evaluate_classification(net, fake, 1) == 0.0

    def test_empty_dataset_rejected(self, toy_data):
        # empty datasets are rejected at construction, upstream of eval
        from dataclasses import replace

        from rcnet.data import DenoiseEvalSet
        from rcnet.errors import DataError
        with pytest.raises(DataError, match="non-empty"):
            replace(toy_data[1], images=toy_data[1].images[:0],
                    labels=toy_data[1].labels[:0])
        net = build_seeded(small_r3_spec())
        with pytest.raises(ValueError, match="empty"):
            evaluate_denoise(net, DenoiseEvalSet(pairs=[], sigma=25.0), 1)

    def test_psnr_closed_form_mse_one(self):
        a = np.zeros((1, 4, 4))
        b = np.ones((1, 4, 4))
        from rcnet.data import psnr
        assert abs(psnr(a, b) - 20 * math.log10(255.0)) < 1e-9

    def test_identical_images_capped_99(self):
        from rcnet.data import psnr
        x = np.random.default_rng(0).uniform(0, 255, (1, 8, 8))
        assert psnr(x, x) == 99.0

    def test_three_step_metrics_from_one_parameter_set(self, toy_data):
        spec = small_r2_spec(bn_mode="double_independent", max_step=4)
        net = build_seeded(spec)
        dist = StepDistribution((2, 3, 4), (0.2, 0.3, 0.5))
        train_cost_adjustable(net, *toy_data,
                              toy_cfg(step_distribution=dist, epochs=2))
        errs = {s: evaluate_classification(net, toy_data[1], s)
                for s in (2, 3, 4)}
        assert len(errs) == 3
        assert all(0.0 <= e <= 1.0 for e in errs.values())

    def test_denoise_eval_and_residual_baseline(self):
        clean = make_synthetic_textures(4, 16, 5)
        test = make_denoise_eval_set(clean, 25.0, 6)
        net = build_seeded(small_r3_spec())
        params = net.named_parameters()
        params["head.weight"].data[...] = 0.0
        params["head.bias"].data[...] = 0.0
        assert evaluate_denoise(net, test, 2) == noisy_input_psnr(test)

    def test_denoise_eval_is_mean_of_per_image_psnr(self):
        clean = make_synthetic_textures(3, 16, 5)
        test = make_denoise_eval_set(clean, 25.0, 6)
        net = build_seeded(small_r3_spec())
        want = []
        for pair in test.pairs:
            pred = net.forward(pair.noisy[None], 2, training=False,
                               update_stats=False).data[0]
            want.append(psnr(np.clip(pred, 0.0, 255.0), pair.clean))
        assert evaluate_denoise(net, test, 2) == np.mean(want)

    def test_classification_eval_over_two_batches(self):
        test = make_synthetic_classification(3, 260, 8, 13, split="test")
        net = build_seeded(small_r2_spec(max_step=2))
        wrong = 0
        for lo, hi in ((0, 250), (250, 260)):  # 250 images per forward
            logits = net.forward(test.images[lo:hi], 2, training=False,
                                 update_stats=False).data
            wrong += int((logits.argmax(axis=1) != test.labels[lo:hi]).sum())
        assert 0 < wrong < 260
        assert evaluate_classification(net, test, 2) == wrong / 260

    def test_eval_epoch_records(self, toy_data):
        net = build_seeded(small_r2_spec(max_step=2))
        log = train_fixed(net, *toy_data, toy_cfg(eval_each_epoch=True,
                                                  epochs=2))
        assert [rec.epoch for rec in log.epochs] == [1, 2]
        assert set(log.epochs[0].metrics) == {2}

    def test_memorizes_64_samples_below_005(self):
        data = make_synthetic_classification(
            3, 64, 8, np.random.SeedSequence([5, 11]))
        net = build_seeded(small_r2_spec(max_step=2, widths=(16, 64)))
        cfg = toy_cfg(epochs=10, batch_size=16, lr=0.05)
        log = train_fixed(net, data, None, cfg)
        assert min(r.loss for r in log.iterations) < 0.05

    def test_denoise_patch_training_crops_per_epoch(self):
        # 48x48 sources with 40x40 patches: shapes flow, and the loop is
        # deterministic per seed
        clean = make_synthetic_textures(6, 48, 3)
        train = DenoiseSet(clean=clean, sigma=25.0, patch_size=40)
        net = build_seeded(small_r3_spec(image=40))
        cfg = toy_cfg(epochs=2, batch_size=3, lr=0.01)
        log1 = train_fixed(net, train, None, cfg)
        net2 = build_seeded(small_r3_spec(image=40))
        log2 = train_fixed(net2, train, None, cfg)
        assert [r.loss for r in log1.iterations] == \
            [r.loss for r in log2.iterations]
