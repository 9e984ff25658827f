"""Cell-body semantics, BN-group accounting, and stem/head layers."""

import copy

import numpy as np
import numpy.testing as npt
import pytest

from rcnet import functional as F
from rcnet.autodiff import Tensor
from rcnet.layers import (BnGroup, CellBody, ClassifierHead, ConvLayer,
                          init_weights, run_cell_body)
from rcnet.rc import BnBank


@pytest.fixture
def preact_body(rng):
    body = CellBody.create("preact_resblock", 4, np.float64)
    init_weights(body.convs, rng)
    return body


@pytest.fixture
def cbr_body(rng):
    body = CellBody.create("conv_bn_relu", 4, np.float64)
    init_weights(body.convs, rng)
    return body


def groups_for(body, dtype=np.float64):
    return [BnGroup.create(body.channels, dtype) for _ in range(body.bn_slots)]


class TestCellBody:
    def test_slots_match_kind(self, preact_body, cbr_body):
        assert preact_body.bn_slots == 2 and len(preact_body.convs) == 2
        assert cbr_body.bn_slots == 1 and len(cbr_body.convs) == 1

    def test_zeroed_preact_is_identity(self, preact_body, rng):
        for w in preact_body.convs:
            w.data[...] = 0.0
        groups = groups_for(preact_body)
        groups[0].gamma.data[...] = 3.0  # skip bypasses any BN values
        x = rng.standard_normal((2, 4, 6, 6))
        y = run_cell_body(preact_body, Tensor(x), groups, training=True)
        npt.assert_array_equal(y.data, x)

    def test_conv_bn_relu_nonnegative(self, cbr_body, rng):
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        y = run_cell_body(cbr_body, x, groups_for(cbr_body), training=True)
        assert (y.data >= 0).all()

    def test_shape_preserved(self, preact_body, cbr_body, rng):
        x = Tensor(rng.standard_normal((3, 4, 8, 8)))
        for body in (preact_body, cbr_body):
            y = run_cell_body(body, x, groups_for(body), training=True)
            assert y.shape == x.shape

    def test_wrong_group_count_rejected(self, preact_body):
        x = Tensor(np.zeros((2, 4, 4, 4)))
        with pytest.raises(ValueError, match="needs 2 BN groups"):
            run_cell_body(preact_body, x, groups_for(preact_body)[:1],
                          training=True)

    def test_traversal_consumes_exactly_slots(self, preact_body, cbr_body,
                                              rng):
        # audit: each group used exactly once per traversal, none reused
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        for body in (preact_body, cbr_body):
            groups = groups_for(body)
            run_cell_body(body, x, groups, training=True)
            assert [g.use_count for g in groups] == [1] * body.bn_slots

    def test_none_groups_skip_normalization(self, cbr_body, rng):
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        y = run_cell_body(cbr_body, x, None, training=True)
        want = F.relu(F.conv2d(x, cbr_body.convs[0]))
        npt.assert_array_equal(y.data, want.data)

    def test_same_vs_different_groups_two_traversals(self, cbr_body, rng):
        # running the body twice with the SAME group mirrors a shared-BN
        # 2-step unroll; DIFFERENT groups mirror an independent-BN unroll
        # (cross-checked against rc.unroll in test_rc)
        x = Tensor(rng.standard_normal((4, 4, 6, 6)))
        shared = groups_for(cbr_body)
        y1 = run_cell_body(cbr_body, x, shared, training=True)
        y2 = run_cell_body(cbr_body, y1, shared, training=True)
        assert shared[0].use_count == 2

        indep = [groups_for(cbr_body), groups_for(cbr_body)]
        z1 = run_cell_body(cbr_body, x, indep[0], training=True)
        z2 = run_cell_body(cbr_body, z1, indep[1], training=True)
        assert indep[0][0].use_count == 1 and indep[1][0].use_count == 1
        # first traversals agree; second diverge once stats history differs
        npt.assert_array_equal(y1.data, z1.data)


class TestStemHead:
    def test_stem_output_channels(self, rng):
        stem = ConvLayer(3, 8, np.float32)
        init_weights([stem.weight], rng)
        y = stem.apply(Tensor(np.zeros((2, 3, 8, 8), np.float32)), 1, False)
        assert y.shape == (2, 8, 8, 8)

    def test_head_on_constant_map_is_linear_of_constant(self, rng):
        bank = BnBank("none", 1, 1, 4, np.float64, unrolled=False)
        head = ClassifierHead(bank, 3, np.float64)
        init_weights([head.weight], rng)
        c = 0.7
        x = Tensor(np.full((2, 4, 5, 5), c))
        y = head.apply(x, 1, False)
        want = (head.weight.data @ np.full(4, c) + head.bias.data)
        npt.assert_allclose(y.data, np.stack([want, want]), rtol=1e-12)

    def test_denoise_head_shape(self, rng):
        head = ConvLayer(8, 1, np.float32)
        init_weights([head.weight], rng)
        y = head.apply(Tensor(np.zeros((2, 8, 16, 16), np.float32)), 1,
                       False)
        assert y.shape == (2, 1, 16, 16)

    def test_banked_head_selects_by_step(self, rng):
        bank = BnBank("double_independent", 3, 1, 4, np.float64,
                      unrolled=False)
        head = ClassifierHead(bank, 3, np.float64)
        init_weights([head.weight], rng)
        assert bank.n_groups == 3
        x = Tensor(rng.standard_normal((2, 4, 4, 4)))
        head.apply(x, 2, True)
        assert [g.use_count for (g,) in bank.groups] == [0, 1, 0]

    def test_unbanked_head_single_group(self, rng):
        bank = BnBank("independent", 3, 1, 4, np.float64, unrolled=False)
        head = ClassifierHead(bank, 3, np.float64)
        init_weights([head.weight], rng)
        assert bank.n_groups == 1
        labels = [(n, a) for n, a, _ in head.named_bn_groups("head")]
        assert labels == [("head.bn", (0, 0, 0))]


class TestBnGroupCopy:
    def test_copy_is_deep(self):
        g = BnGroup.create(3, np.float64)
        c = copy.deepcopy(g)
        c.gamma.data[...] = 9.0
        c.running_mean[...] = 5.0
        npt.assert_array_equal(g.gamma.data, np.ones(3))
        npt.assert_array_equal(g.running_mean, np.zeros(3))
