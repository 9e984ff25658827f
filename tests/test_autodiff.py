"""Tensor/op value semantics, oracle cross-checks, and optimizer rules."""

import copy
import math
import tracemalloc

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcnet import functional as F
from rcnet.autodiff import Parameter, Tape, Tensor, backward
from rcnet.layers import BnGroup, CellBody, run_cell_body
from rcnet.optim import SGD, Adam, clip_grad_norm, global_grad_norm


def naive_conv2d(x, w, bias=None, stride=1, padding=1):
    """Independent direct convolution oracle: plain nested loops."""
    n, c, h, win = x.shape
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (win + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[ni, ci, yi * stride + ky,
                                          xi * stride + kx] * w[oi, ci, ky, kx]
                    out[ni, oi, yi, xi] = acc + (bias[oi] if bias is not None
                                                 else 0.0)
    return out


# Stride-1, same-padded cases of the bit-exact conv tests. Each id spells
# the geometry as kernel-stride-padding-size, naive_conv2d's arguments.
SAME_CASES = [pytest.param(k, size, id=f"{k}-1-{k // 2}-{size}")
              for k, size in [(3, 8), (3, 9), (5, 9), (1, 8)]]

# The backward's cases: (n, c, o) = (7, 4, 3) at every SAME_CASES
# geometry, and batch 50 at the five 3x3 conv shapes of the README
# training config, where BLAS may take other paths than at small sizes.
BACKWARD_CASES = [pytest.param(7, 4, 3, *p.values, id=p.id)
                  for p in SAME_CASES] + [
    pytest.param(50, c, o, 3, size, id=f"n50-{c}-{o}-3-1-1-{size}")
    for c, o, size in [(3, 16, 16), (16, 16, 16), (16, 16, 8), (64, 64, 4),
                       (64, 64, 2)]]


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
        y = F.conv2d(x, Parameter(np.ones((1, 1, 1, 1))))
        npt.assert_array_equal(y.data, x.data)

    def test_full_support_sum(self):
        x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
        y = F.conv2d(x, Parameter(np.ones((1, 1, 3, 3))))
        assert y.data[0, 0, 1, 1] == 45.0

    def test_matches_naive_oracle(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = F.conv2d(Tensor(x), Parameter(w), Parameter(b)).data
        want = naive_conv2d(x, w, b, padding=1)
        npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("size", [7, 8])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_same_padded_output_keeps_input_shape(self, rng, k, size):
        x = rng.standard_normal((2, 3, size, size))
        w = rng.standard_normal((4, 3, k, k))
        got = F.conv2d(Tensor(x), Parameter(w)).data
        want = naive_conv2d(x, w, padding=k // 2)
        assert got.shape == want.shape == (2, 4, size, size)
        npt.assert_allclose(got, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,size", SAME_CASES)
    def test_chunked_forward_equals_taped_bit_for_bit(
            self, rng, monkeypatch, dtype, k, size):
        # One kernel for both: the taped forward, in chunks of 3, 3 and 1
        # images, equals the untaped forward of the whole batch in one
        # chunk, bit for bit.
        n, c, o = 7, 4, 3
        x = rng.standard_normal((n, c, size, size)).astype(dtype)
        w = Parameter(rng.standard_normal((o, c, k, k)).astype(dtype))
        b = Parameter(rng.standard_normal(o).astype(dtype))
        per_image = c * k * (size + k - 1) * size * np.dtype(dtype).itemsize
        monkeypatch.setattr(F, "_COL_CHUNK_BYTES", n * per_image)
        untaped = F.conv2d(Tensor(x), w, b)
        monkeypatch.setattr(F, "_COL_CHUNK_BYTES", 3 * per_image)
        with Tape():
            taped = F.conv2d(Tensor(x), w, b)
        assert taped.requires_grad and not untaped.requires_grad
        assert taped.data.dtype == dtype
        npt.assert_array_equal(taped.data, untaped.data)

    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,size", SAME_CASES)
    def test_untaped_forward_matches_oracle_and_taped(
            self, rng, monkeypatch, dtype, k, size, n):
        # Held to the dtype's tolerance against the oracle. n = 7 at three
        # images per chunk: chunks of 3, 3 and 1.
        c = 4
        x = rng.standard_normal((n, c, size, size)).astype(dtype)
        w = Parameter(rng.standard_normal((3, c, k, k)).astype(dtype))
        b = Parameter(rng.standard_normal(3).astype(dtype))
        per_image = c * k * (size + k - 1) * size * np.dtype(dtype).itemsize
        monkeypatch.setattr(F, "_COL_CHUNK_BYTES", 3 * per_image)
        untaped = F.conv2d(Tensor(x), w, b)
        with Tape():
            taped = F.conv2d(Tensor(x), w, b)
        assert not untaped.requires_grad
        assert untaped.data.dtype == dtype
        tol = 1e-4 if dtype == np.float32 else 1e-12
        npt.assert_allclose(untaped.data, taped.data, atol=tol, rtol=0)
        npt.assert_allclose(untaped.data, naive_conv2d(x, w.data, b.data,
                                                       padding=k // 2),
                            atol=tol, rtol=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,c,o,k,size", BACKWARD_CASES)
    def test_backward_equals_whole_batch_reference_bit_for_bit(
            self, rng, monkeypatch, dtype, n, c, o, k, size):
        # Reference in float64: the whole batch's [n,c,kh,kw,h,w] columns,
        # dW from np.tensordot, dX from a per-image matmul and an explicit
        # col2im loop. The backward sums in another order, so it is held to
        # a bound relative to the reference's largest entry.
        p = k // 2
        x = rng.standard_normal((n, c, size, size)).astype(dtype)
        w = rng.standard_normal((o, c, k, k)).astype(dtype)
        g = rng.standard_normal((n, o, size, size)).astype(dtype)
        per_image = c * k * (size + 2 * p) * size * np.dtype(dtype).itemsize
        monkeypatch.setattr(F, "_COL_CHUNK_BYTES", 3 * per_image)
        xt = Tensor(x)
        xt.requires_grad = True
        with Tape() as tape:
            F.conv2d(xt, Parameter(w))
        [(_, _, bwd)] = tape.nodes
        gx, gw = bwd(g)

        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
        cols = np.empty((n, c, k, k, size, size))
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i:i + size, j:j + size]
        gm = g.astype(np.float64).reshape(n, o, size * size)
        want_w = np.tensordot(gm, cols.reshape(n, c * k * k, size * size),
                              axes=([0, 2], [0, 2])).reshape(w.shape)
        dcols = np.matmul(w.astype(np.float64).reshape(o, -1).T, gm) \
            .reshape(cols.shape)
        dxp = np.zeros(xp.shape)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i:i + size, j:j + size] += dcols[:, :, i, j]
        want_x = dxp[:, :, p:p + size, p:p + size]
        assert gw.dtype == gx.dtype == dtype
        bound = 2e-6 if dtype == np.float32 else 1e-13
        for got, want in ((gw, want_w), (gx, want_x)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= bound * np.abs(want).max()

    def test_taped_forward_keeps_input_not_columns(self, rng):
        # 64x16x16x16, 3x3: the whole batch's columns are 9.4 MB; the
        # output and the padded input together are 2.4 MB.
        x = Tensor(rng.standard_normal((64, 16, 16, 16)).astype(np.float32))
        w = Parameter(rng.standard_normal((16, 16, 3, 3)).astype(np.float32))
        col_bytes = 64 * 16 * 9 * 16 * 16 * 4
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                F.conv2d(x, w)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert held < col_bytes / 2

    def test_backward_holds_one_column_buffer(self, rng):
        # 64x16x16x16, 3x3: the backward holds the input gradient and at
        # most two chunk buffers, never the whole batch's 9.4 MB columns.
        n, c, o, s = 64, 16, 16, 16
        x = Tensor(rng.standard_normal((n, c, s, s)).astype(np.float32))
        x.requires_grad = True
        w = Parameter(rng.standard_normal((o, c, 3, 3)).astype(np.float32))
        g = rng.standard_normal((n, o, s, s)).astype(np.float32)
        with Tape() as tape:
            F.conv2d(x, w)
        [(_, _, bwd)] = tape.nodes
        tracemalloc.start()
        try:
            gx, gw = bwd(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and gw.shape == w.shape
        assert peak <= x.data.nbytes + 2 * F._COL_CHUNK_BYTES

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Parameter(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError, match=r"\(1, 3, 4, 4\).*\(2, 4, 3, 3\)"):
            F.conv2d(x, w)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                     Parameter(np.zeros((1, 1, 2, 2))))


class TestBatchNorm:
    def test_unit_variance_normalization(self):
        g = BnGroup.create(1, np.float64, eps=0.0)
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
        y = F.batchnorm2d(x, g, training=True)
        npt.assert_allclose(y.data.ravel(), [-1.0, 1.0], atol=1e-12)

    def test_affine_on_normalized(self):
        g = BnGroup.create(1, np.float64, eps=0.0)
        g.gamma.data[...] = 2.0
        g.beta.data[...] = 1.0
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1, 1, 1))
        y = F.batchnorm2d(x, g, training=True)
        npt.assert_allclose(y.data.ravel(), [-1.0, 3.0], atol=1e-12)

    def test_running_mean_ema(self):
        g = BnGroup.create(1, np.float64, momentum=0.1)
        x = Tensor(np.array([2.0, 2.0]).reshape(2, 1, 1, 1))
        F.batchnorm2d(x, g, training=True)
        npt.assert_allclose(g.running_mean, [0.2], atol=1e-15)

    def test_train_mode_pre_affine_stats(self, rng):
        g = BnGroup.create(4, np.float32)
        x = Tensor((rng.standard_normal((8, 4, 6, 6)) * 3 + 1)
                   .astype(np.float32))
        y = F.batchnorm2d(x, g, training=True).data
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-5
        assert np.abs(var - 1).max() < 1e-4

    def test_single_value_train_rejected(self):
        g = BnGroup.create(1)
        with pytest.raises(ValueError, match="at least 2"):
            F.batchnorm2d(Tensor(np.zeros((1, 1, 1, 1), np.float32)), g,
                          training=True)

    def test_channel_mismatch_rejected(self):
        g = BnGroup.create(3)
        with pytest.raises(ValueError, match="channel mismatch"):
            F.batchnorm2d(Tensor(np.zeros((2, 4, 2, 2), np.float32)), g,
                          training=True)

    def test_eval_uses_running_stats(self):
        g = BnGroup.create(1, np.float64, eps=0.0)
        g.running_mean[...] = 1.0
        g.running_var[...] = 4.0
        x = Tensor(np.array([3.0, 5.0]).reshape(2, 1, 1, 1))
        y = F.batchnorm2d(x, g, training=False)
        npt.assert_allclose(y.data.ravel(), [1.0, 2.0], atol=1e-12)

    def test_eval_leaves_running_statistics(self):
        g = BnGroup.create(1, np.float64)
        g.running_mean[...] = 1.0
        g.running_var[...] = 4.0
        x = Tensor(np.array([3.0, 9.0]).reshape(2, 1, 1, 1))
        F.batchnorm2d(x, g, training=False)
        npt.assert_array_equal(g.running_mean, [1.0])
        npt.assert_array_equal(g.running_var, [4.0])

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6),
                                            (np.float64, 1e-13)])
    def test_eval_matches_two_step_formula(self, rng, dtype, rtol):
        g = BnGroup.create(5, dtype)
        g.running_mean[...] = rng.normal(0, 2, 5)
        g.running_var[...] = rng.uniform(0.1, 3, 5)
        g.gamma.data[...] = rng.normal(1, 0.5, 5)
        g.beta.data[...] = rng.normal(0, 1, 5)
        x = (rng.standard_normal((3, 5, 4, 4)) * 2 + 1).astype(dtype)
        y = F.batchnorm2d(Tensor(x), g, training=False).data
        assert y.dtype == dtype
        # two-step reference in float64: normalize, then scale and shift
        c = (1, 5, 1, 1)
        mean = g.running_mean.astype(np.float64).reshape(c)
        std = np.sqrt(g.running_var.astype(np.float64) + g.eps).reshape(c)
        gamma = g.gamma.data.astype(np.float64).reshape(c)
        beta = g.beta.data.astype(np.float64).reshape(c)
        xhat = (x - mean) / std
        want = gamma * xhat + beta
        # the one-pass form x*sc + sh rounds relative to its two terms, so
        # the error is bounded by rtol times their magnitude
        scale = np.abs(gamma / std * x) + np.abs(beta - mean * gamma / std)
        assert np.all(np.abs(y - want) <= rtol * np.maximum(scale, np.abs(want)))

    @pytest.mark.parametrize("ratio", [0.0, 1e2, 1e4])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accurate_at_large_offsets(self, rng, dtype, training, ratio):
        # channels with |mean|/std = ratio, against a float64 two-pass
        # reference x̂ = (x - μ)/σ. In float32 the output (x·sc rounds at
        # eps·|x|) and, in train mode, the terms of the batch statistics
        # (the batch mean is off by about eps·|mean|) may lose digits in
        # proportion to the offset; the rest may not, which needs the
        # per-channel sums in float64. float64 keeps criterion 1's 1e-10.
        n, c, h, w = 8, 4, 6, 6
        std = rng.uniform(0.5, 2.0, c)
        mean = ratio * std * rng.choice([-1.0, 1.0], c)
        x = (mean.reshape(1, c, 1, 1) + std.reshape(1, c, 1, 1)
             * rng.standard_normal((n, c, h, w))).astype(dtype)
        gout = rng.standard_normal((n, c, h, w)).astype(dtype)
        grp = BnGroup.create(c, dtype)
        grp.gamma.data[...] = rng.normal(1.0, 0.5, c)
        grp.beta.data[...] = rng.normal(0.0, 1.0, c)
        grp.running_mean[...] = mean
        grp.running_var[...] = std ** 2
        x64, g64 = x.astype(np.float64), gout.astype(np.float64)
        if training:
            mu, var = x64.mean(axis=(0, 2, 3)), x64.var(axis=(0, 2, 3))
        else:
            mu = grp.running_mean.astype(np.float64)
            var = grp.running_var.astype(np.float64)
        shape = (1, c, 1, 1)
        sigma = np.sqrt(var + grp.eps).reshape(shape)
        gamma = grp.gamma.data.astype(np.float64).reshape(shape)
        xhat = (x64 - mu.reshape(shape)) / sigma
        dxhat = g64 * gamma
        if training:
            dx = (dxhat - dxhat.mean(axis=(0, 2, 3), keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=(0, 2, 3),
                                               keepdims=True)) / sigma
        else:
            dx = dxhat / sigma
        want = {"y": gamma * xhat + grp.beta.data.astype(np.float64)
                .reshape(shape),
                "dx": dx, "dgamma": (g64 * xhat).sum(axis=(0, 2, 3)),
                "dbeta": g64.sum(axis=(0, 2, 3))}

        xt = Tensor(x)
        xt.requires_grad = True
        with Tape() as tape:
            y = F.batchnorm2d(xt, grp, training)
        [(_, _, bwd)] = tape.nodes
        got = dict(zip(want, (y.data, *bwd(gout))))
        for name, value in got.items():
            grows = name == "y" or (training and name in ("dx", "dgamma"))
            bound = (4 * np.finfo(np.float32).eps * (1 + grows * ratio)
                     if dtype == np.float32 else 1e-10)
            assert value.dtype == dtype, name
            err = np.abs(value - want[name]).max() / np.abs(want[name]).max()
            assert err <= bound, (name, err)

    def test_tape_keeps_no_normalized_copy(self, rng):
        # after a taped train forward the tape holds the output and x
        # itself (allocated before tracing), never an activation-sized x̂
        x = Tensor(rng.standard_normal((50, 16, 16, 16)).astype(np.float32))
        x.requires_grad = True
        grp = BnGroup.create(16, np.float32)
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = F.batchnorm2d(x, grp, training=True)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        assert retained <= y.data.nbytes + 64 * 1024

    def test_taped_cell_body_keeps_no_pre_relu_copy(self, rng):
        # a taped train-mode preact body holds five activations (two
        # BN+ReLU outputs, two conv outputs, the sum) besides x; a separate
        # ReLU would add a pre-ReLU copy and a bool mask per BN, 7.5 in all
        x = Tensor(rng.standard_normal((50, 16, 16, 16)).astype(np.float32))
        x.requires_grad = True
        body = CellBody.create("preact_resblock", 16, rng, np.float32)
        groups = [BnGroup.create(16, np.float32) for _ in range(2)]
        tracemalloc.start()
        try:
            with Tape() as tape:
                run_cell_body(body, x, groups, training=True)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 5 * x.data.nbytes + 64 * 1024
        assert len(tape.nodes) == 5

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_relu_has_the_bits_of_bn_then_relu(self, rng, dtype,
                                                     training):
        n, c = 6, 5
        x = (rng.standard_normal((n, c, 4, 4)) * 2 + 0.5).astype(dtype)
        tgt = rng.standard_normal((n, c, 4, 4)).astype(dtype)
        grp = BnGroup.create(c, dtype)
        grp.gamma.data[...] = rng.normal(1.0, 0.5, c)
        grp.beta.data[...] = rng.normal(0.0, 1.0, c)
        grp.running_mean[...] = rng.normal(0.0, 1.0, c)
        grp.running_var[...] = rng.uniform(0.5, 2.0, c)
        got = {}
        for fused in (False, True):
            g = copy.deepcopy(grp)
            xp = Parameter(x.copy())
            with Tape() as tape:
                if fused:
                    y = F.batchnorm2d(xp, g, training, relu=True)
                else:
                    y = F.relu(F.batchnorm2d(xp, g, training))
                loss = F.mse_loss(y, Tensor(tgt))
            backward(tape, loss)
            assert len(tape.nodes) == 2 + (not fused)
            got[fused] = (y.data, xp.grad, g.gamma.grad, g.beta.grad,
                          g.running_mean, g.running_var)
        assert (got[True][0] == 0).any() and (got[True][0] > 0).any()
        for a, b in zip(got[False], got[True]):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()


class TestSimpleOps:
    def test_relu(self):
        y = F.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        npt.assert_array_equal(y.data, [0.0, 0.0, 2.0])

    def test_relu_tape_keeps_no_mask(self, rng):
        # the backward reads its mask from the output the tape keeps
        x = Tensor(rng.standard_normal((50, 16, 16, 16)).astype(np.float32))
        x.requires_grad = True
        tracemalloc.start()
        try:
            with Tape() as tape:
                y = F.relu(x)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= y.data.nbytes + 64 * 1024
        g = rng.standard_normal(x.shape).astype(np.float32)
        [(_, _, bwd)] = tape.nodes
        assert bwd(g)[0].tobytes() == (g * (x.data > 0)).tobytes()

    def test_avgpool(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2))
        assert F.avgpool2d(x).data.ravel()[0] == 4.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (50, 16, 16, 16), (50, 64, 4, 4), (128, 16, 32, 32),
        (128, 32, 16, 16), (128, 64, 8, 8), (7, 4, 8, 8), (2, 3, 6, 10)],
        ids=["train_r2-cell1", "train_r2-cell2", "infer_r4-32",
             "infer_r4-16", "infer_r4-8", "small", "odd-halves"])
    def test_avgpool_has_the_bits_of_the_mean(self, rng, dtype, shape):
        # the pairwise sum is the order numpy's mean over the 2x2 windows
        # takes when the output is at least 2 wide
        n, c, h, w = shape
        x = (rng.standard_normal(shape) * 100).astype(dtype)
        want = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        got = F.avgpool2d(Tensor(x)).data
        assert got.dtype == dtype
        npt.assert_array_equal(got, want)

    def test_avgpool_odd_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            F.avgpool2d(Tensor(np.zeros((1, 1, 3, 4))))

    def test_linear_identity(self, rng):
        x = rng.standard_normal((5, 4))
        y = F.linear(Tensor(x), Parameter(np.eye(4)),
                     Parameter(np.zeros(4)))
        npt.assert_array_equal(y.data, x)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            F.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_mixed_dtype_rejected(self):
        with pytest.raises(ValueError, match="mixed dtypes"):
            F.add(Tensor(np.zeros(3, np.float32)),
                  Tensor(np.zeros(3, np.float64)))


class TestInvPool:
    def test_single_window_order(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        y = F.invpool(x)
        assert y.shape == (1, 4, 1, 1)
        npt.assert_array_equal(y.data.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_paper_shape(self):
        y = F.invpool(Tensor(np.zeros((1, 64, 32, 32), np.float32)))
        assert y.shape == (1, 256, 16, 16)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    def test_roundtrip_bit_exact(self, seed, n, c, hh, ww):
        x = np.random.default_rng(seed).standard_normal(
            (n, c, 2 * hh, 2 * ww)).astype(np.float32)
        back = F.invpool_inverse(F.invpool(Tensor(x))).data
        assert np.array_equal(back, x)

    def test_odd_extent_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            F.invpool(Tensor(np.zeros((1, 1, 3, 4))))
        with pytest.raises(ValueError, match="divisible by 4"):
            F.invpool_inverse(Tensor(np.zeros((1, 3, 2, 2))))

    def test_decimated_copy_semantics(self, rng):
        # output channel 4c+k is the k-th 2x2-decimated copy of input
        # channel c, phase offsets in row-major order
        x = rng.standard_normal((2, 3, 8, 6))
        y = F.invpool(Tensor(x)).data
        phases = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for c in range(3):
            for k, (ph, pw) in enumerate(phases):
                npt.assert_array_equal(y[:, 4 * c + k],
                                       x[:, c, ph::2, pw::2])


class TestLosses:
    def test_uniform_logits(self):
        loss = F.softmax_cross_entropy(Tensor(np.zeros((1, 2))), [1])
        assert abs(float(loss.data) - math.log(2.0)) < 1e-12

    def test_matches_high_precision_oracle(self):
        logits = [2.0, -1.0, 0.5]
        with mpmath.workdps(50):
            terms = [mpmath.exp(v) for v in logits]
            want = float(-mpmath.log(terms[0] / mpmath.fsum(terms)))
        loss = F.softmax_cross_entropy(Tensor(np.array([logits])), [0])
        assert abs(float(loss.data) - want) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="out of range"):
            F.softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_mse_zero(self, rng):
        x = rng.standard_normal((3, 4))
        assert float(F.mse_loss(Tensor(x), Tensor(x.copy())).data) == 0.0


class TestBackward:
    def test_two_site_sharing(self):
        # f(w) = w*(w*x) with x = 3: d/dw w^2 x = 2 w x
        w = Parameter(np.full((1, 1, 1, 1), 1.5))
        x = Tensor(np.full((1, 1, 1, 1), 3.0))
        with Tape() as tape:
            h = F.conv2d(F.conv2d(x, w), w)
            loss = F.mse_loss(h, Tensor(np.zeros((1, 1, 1, 1))))
        # loss = (w^2 x)^2 -> dL/dw = 2 (w^2 x)(2 w x)
        backward(tape, loss)
        want = 2 * (1.5 ** 2 * 3.0) * (2 * 1.5 * 3.0)
        npt.assert_allclose(w.grad.ravel(), [want], rtol=1e-12)

    def test_shared_site_sum_property(self, rng):
        # gradient with k uses == sum of k single-use gradients
        w = Parameter(rng.standard_normal((4, 4, 3, 3)))
        x = rng.standard_normal((2, 4, 6, 6))
        target = rng.standard_normal((2, 4, 6, 6))
        k = 3
        with Tape() as tape:
            h = Tensor(x)
            for _ in range(k):
                h = F.conv2d(h, w)
            loss = F.mse_loss(h, Tensor(target))
        backward(tape, loss)
        total = w.grad.copy()

        # untied copies, one backward each, same forward values
        copies = [Parameter(w.data.copy()) for _ in range(k)]
        with Tape() as tape:
            h = Tensor(x)
            for wc in copies:
                h = F.conv2d(h, wc)
            loss = F.mse_loss(h, Tensor(target))
        backward(tape, loss)
        # the tape accumulates the sites last to first
        summed = np.zeros_like(total)
        for wc in reversed(copies):
            summed += wc.grad
        npt.assert_array_equal(total, summed)

    def test_non_scalar_loss_rejected(self):
        w = Parameter(np.ones(3))
        with Tape() as tape:
            y = F.relu(w)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y)

    def test_nested_tape_rejected(self):
        with Tape():
            with pytest.raises(RuntimeError, match="already recording"):
                Tape().__enter__()


class TestOptimizer:
    def test_shared_lr_scale_applies_to_shared_parameters_only(self):
        shared = Parameter(np.array([1.0]), is_shared=True)
        plain = Parameter(np.array([1.0]))
        for p in (shared, plain):
            p.grad[...] = 1.0
        SGD([shared, plain], lr=0.1, shared_lr_scale=0.5).step()
        assert shared.data[0] == 1.0 - 0.1 * 0.5
        assert plain.data[0] == 1.0 - 0.1

    def test_shared_lr_scale_defaults_to_one(self):
        p = Parameter(np.array([1.0]), is_shared=True)
        p.grad[...] = 1.0
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0 - 0.1

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[...] = 1.0
        opt.step()  # buf = 1, p = -1
        opt.step()  # buf = 1.5, p = -2.5
        npt.assert_allclose(p.data, [-2.5], rtol=1e-12)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_adam_first_step_moves_by_lr_with_shared_scale(self):
        # bias correction makes the first step lr * g / (|g| + eps)
        shared = Parameter(np.array([1.0, 1.0]), is_shared=True)
        plain = Parameter(np.array([1.0, 1.0]))
        for p in (shared, plain):
            p.grad[...] = [3.0, -0.5]
        Adam([shared, plain], lr=0.1, shared_lr_scale=0.5).step()
        npt.assert_allclose(plain.data, [0.9, 1.1], rtol=1e-7)
        npt.assert_allclose(shared.data, [0.95, 1.05], rtol=1e-7)
        assert plain.state["adam_m"].dtype == plain.state["adam_v"].dtype == np.float64

    def test_adam_resumed_from_its_step_count_is_bit_exact(self, rng):
        grads = rng.standard_normal((3, 5)).astype(np.float32)
        a = Parameter(np.ones(5, dtype=np.float32))
        b = Parameter(np.ones(5, dtype=np.float32))
        opt = Adam([a], lr=0.01, weight_decay=0.1)
        for g in grads:
            a.grad[...] = g
            opt.step()
        for t, g in enumerate(grads):  # a new optimizer for every step
            b.grad[...] = g
            Adam([b], lr=0.01, weight_decay=0.1, updates=t).step()
        assert a.data.dtype == np.float32
        npt.assert_array_equal(a.data, b.data)
        npt.assert_array_equal(a.state["adam_v"], b.state["adam_v"])

    def test_clip_halves_at_double_norm(self):
        p = Parameter(np.zeros(2))
        p.grad[...] = [6.0, 8.0]  # norm 10
        pre = clip_grad_norm([p], 5.0)
        assert pre == 10.0
        npt.assert_array_equal(p.grad, [3.0, 4.0])

    def test_clip_below_threshold_untouched(self):
        p = Parameter(np.zeros(2))
        p.grad[...] = [3.0, 0.0]
        clip_grad_norm([p], 5.0)
        npt.assert_array_equal(p.grad, [3.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1,
                    max_size=16),
           st.floats(0.5, 10.0))
    def test_clip_idempotent(self, values, max_norm):
        p = Parameter(np.zeros(len(values)))
        p.grad[...] = values
        clip_grad_norm([p], max_norm)
        once = p.grad.copy()
        clip_grad_norm([p], max_norm)
        assert np.array_equal(p.grad, once)

    def test_post_clip_norm_bounded(self, rng):
        ps = [Parameter(np.zeros(7)) for _ in range(3)]
        for p in ps:
            p.grad[...] = rng.standard_normal(7) * 10
        clip_grad_norm(ps, 5.0)
        assert global_grad_norm(ps) <= 5.0 + 1e-6
