"""Architecture builders, expansion oracle, and cost accounting."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import build_seeded, small_r2_spec, small_r3_spec
from rcnet.autodiff import Tape, Tensor, backward
from rcnet.errors import ConfigError
from rcnet import functional as F
from rcnet.networks import (NetworkSpec, build_network, cost_report,
                            expand_to_standard)
from rcnet.optim import SGD, Adam
from rcnet.training import infer

GOLDEN = Path(__file__).parent / "golden"


def paper_r2_spec(n, bn_mode="independent"):
    return NetworkSpec(arch="r2", task="classify", bn_mode=bn_mode,
                       max_step=n, widths=(64, 256),
                       image_shape=(3, 32, 32), num_classes=10)


def r4_spec(n=3, bn_mode="double_independent", classes=100):
    return NetworkSpec(arch="r4", task="classify", bn_mode=bn_mode,
                       max_step=n, widths=(64, 128, 256, 512),
                       image_shape=(3, 32, 32), num_classes=classes)


class TestSpecValidation:
    def test_r2_width_must_quadruple(self):
        with pytest.raises(ValueError, match="quadruples"):
            NetworkSpec(arch="r2", task="classify", bn_mode="independent",
                        max_step=2, widths=(64, 128),
                        image_shape=(3, 32, 32), num_classes=10)

    def test_task_follows_arch(self):
        with pytest.raises(ValueError, match="implies task"):
            NetworkSpec(arch="r3", task="classify", bn_mode="independent",
                        max_step=2, widths=(8, 8, 8), image_shape=(1, 16, 16),
                        num_classes=3)

    def test_image_size_must_survive_three_halvings(self):
        for arch, widths, task, classes in (
                ("r2", (8, 32), "classify", 3),
                ("r4", (4, 8, 16, 32), "classify", 3)):
            with pytest.raises(ValueError, match="multiple of 8"):
                NetworkSpec(arch=arch, task=task, bn_mode="independent",
                            max_step=2, widths=widths,
                            image_shape=(3, 20, 20), num_classes=classes)
        NetworkSpec(arch="r3", task="denoise", bn_mode="independent",
                    max_step=2, widths=(8, 8, 8), image_shape=(1, 20, 20))

    @pytest.mark.parametrize("key,value,message", [
        ("bn_eps", float("nan"), "bn_eps must be >= 0"),
        ("bn_eps", -1e-5, "bn_eps must be >= 0"),
        ("bn_momentum", float("nan"), r"bn_momentum must be in \[0, 1\]"),
        ("bn_momentum", 5.0, r"bn_momentum must be in \[0, 1\]"),
        ("bn_momentum", -0.1, r"bn_momentum must be in \[0, 1\]")],
        ids=["eps-nan", "eps-neg", "momentum-nan", "momentum-5",
             "momentum-neg"])
    def test_bn_setting_out_of_range_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            NetworkSpec(**{**asdict(paper_r2_spec(2)), key: value})

    def test_bn_setting_bounds_accepted(self):
        for eps, momentum in ((0.0, 0.0), (1e-5, 1.0)):
            NetworkSpec(**{**asdict(paper_r2_spec(2)), "bn_eps": eps,
                           "bn_momentum": momentum})

    def test_spec_dict_roundtrip(self):
        spec = paper_r2_spec(3)
        assert NetworkSpec(**asdict(spec)) == spec


class TestClassifierR2Accounting:
    def test_depth_column(self):
        assert [cost_report(paper_r2_spec(n)).unrolled_depth
                for n in (1, 2, 3, 4)] == [6, 10, 14, 18]

    def test_total_params_near_reported(self):
        total = cost_report(paper_r2_spec(4)).total_params
        assert abs(total - 1_263_000) / 1_263_000 < 0.05

    def test_conv_params_constant_in_n(self):
        convs = {cost_report(paper_r2_spec(n)).conv_params for n in (1, 4)}
        assert len(convs) == 1

    def test_report_matches_instantiated_network(self):
        for spec in (paper_r2_spec(2), small_r2_spec("double_independent"),
                     small_r3_spec(), r4_spec(2)):
            rep = cost_report(spec)
            net = build_seeded(spec)
            assert rep.total_params == sum(p.size for p in net.parameters())
            assert rep.total_params == (rep.conv_params + rep.bn_params
                                        + rep.other_params)

    def test_bn_param_formulas(self):
        # independent bank: 2*C*m*k learned scalars per cell
        rep1 = cost_report(paper_r2_spec(1))
        rep4 = cost_report(paper_r2_spec(4))
        assert rep4.bn_params - rep1.bn_params == 3 * 2 * 2 * (64 + 256)
        # double-independent: lower-triangle count, e.g. 2*64*10*2 = 2560
        di = NetworkSpec(arch="r2", task="classify",
                         bn_mode="double_independent", max_step=4,
                         widths=(64, 256), image_shape=(3, 32, 32),
                         num_classes=10)
        indep_cell1 = 2 * 64 * 4 * 2
        di_cell1 = 2 * 64 * 10 * 2
        assert di_cell1 == 2560
        delta = cost_report(di).bn_params - rep4.bn_params
        # cells move from m to m(m+1)/2 addresses; the head gains m-1 groups
        want = (di_cell1 - indep_cell1) + (2 * 256 * 10 * 2 - 2 * 256 * 4 * 2) \
            + 3 * 2 * 256
        assert delta == want

    def test_flops_strictly_increasing_and_frozen_values(self):
        rep = cost_report(paper_r2_spec(4))
        flops = [rep.flops_per_step[s] for s in (1, 2, 3, 4)]
        assert flops == sorted(flops) and len(set(flops)) == 4
        # independent oracle: per-layer MACs summed by hand
        assert flops == [152_766_976, 190_515_712, 341_510_656, 379_259_392]

    def test_purity_under_serialization(self):
        spec = paper_r2_spec(3)
        again = NetworkSpec(**asdict(spec))
        assert cost_report(spec) == cost_report(again)


class TestR4Accounting:
    def test_depth_34_at_n3(self):
        assert cost_report(r4_spec(3)).unrolled_depth == 34

    def test_params_near_reported_and_constant_in_n(self):
        totals = [cost_report(r4_spec(n)).total_params for n in (1, 2, 3)]
        convs = {cost_report(r4_spec(n)).conv_params for n in (1, 2, 3)}
        assert len(convs) == 1                      # weight sharing
        assert abs(totals[2] - 11_250_000) / 11_250_000 < 0.05

    def test_n1_banks_degenerate(self):
        net = build_seeded(r4_spec(1))
        for cell in net.cells().values():
            assert cell.bank.n_addresses == 1

    def test_forward_and_expansion_small(self, rng):
        spec = NetworkSpec(arch="r4", task="classify",
                           bn_mode="double_independent", max_step=2,
                           widths=(4, 8, 16, 32), image_shape=(3, 16, 16),
                           num_classes=5)
        net = build_seeded(spec, seed=3)
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        for s in (1, 2):
            y = net.forward(x, s, training=False)
            assert y.shape == (2, 5)
            exp = expand_to_standard(net, s)
            z = exp.forward(x, training=False)
            npt.assert_allclose(y.data, z.data, atol=1e-5, rtol=0)


# cost_report values produced by the per-arch hand formulas the report
# was first written with: (conv, bn, other, depth, flops@1..max_step)
FROZEN_R3 = {
    ("none", 1): (1881, 0, 0, 5, [479232]),
    ("none", 2): (1881, 0, 0, 8, [479232, 921600]),
    ("none", 3): (1881, 0, 0, 11, [479232, 921600, 1363968]),
    ("none", 4): (1881, 0, 0, 14, [479232, 921600, 1363968, 1806336]),
    ("shared", 1): (1881, 48, 0, 5, [479232]),
    ("shared", 2): (1881, 48, 0, 8, [479232, 921600]),
    ("shared", 3): (1881, 48, 0, 11, [479232, 921600, 1363968]),
    ("shared", 4): (1881, 48, 0, 14, [479232, 921600, 1363968, 1806336]),
    ("independent", 1): (1881, 48, 0, 5, [479232]),
    ("independent", 2): (1881, 96, 0, 8, [479232, 921600]),
    ("independent", 3): (1881, 144, 0, 11, [479232, 921600, 1363968]),
    ("independent", 4): (1881, 192, 0, 14, [479232, 921600, 1363968, 1806336]),
    ("double_independent", 1): (1881, 48, 0, 5, [479232]),
    ("double_independent", 2): (1881, 144, 0, 8, [479232, 921600]),
    ("double_independent", 3): (1881, 288, 0, 11, [479232, 921600, 1363968]),
    ("double_independent", 4): (1881, 480, 0, 14,
                                [479232, 921600, 1363968, 1806336]),
}
FROZEN_R4 = {
    ("none", 1): (43696, 0, 165, 18, [568480]),
    ("none", 2): (43696, 0, 165, 26, [568480, 863392]),
    ("none", 3): (43696, 0, 165, 34, [568480, 863392, 1158304]),
    ("none", 4): (43696, 0, 165, 42, [568480, 863392, 1158304, 1453216]),
    ("shared", 1): (43696, 488, 165, 18, [568480]),
    ("shared", 2): (43696, 488, 165, 26, [568480, 863392]),
    ("shared", 3): (43696, 488, 165, 34, [568480, 863392, 1158304]),
    ("shared", 4): (43696, 488, 165, 42, [568480, 863392, 1158304, 1453216]),
    ("independent", 1): (43696, 488, 165, 18, [568480]),
    ("independent", 2): (43696, 728, 165, 26, [568480, 863392]),
    ("independent", 3): (43696, 968, 165, 34, [568480, 863392, 1158304]),
    ("independent", 4): (43696, 1208, 165, 42,
                         [568480, 863392, 1158304, 1453216]),
    ("double_independent", 1): (43696, 488, 165, 18, [568480]),
    ("double_independent", 2): (43696, 1200, 165, 26, [568480, 863392]),
    ("double_independent", 3): (43696, 2152, 165, 34,
                                [568480, 863392, 1158304]),
    ("double_independent", 4): (43696, 3344, 165, 42,
                                [568480, 863392, 1158304, 1453216]),
}


def _report_tuple(spec):
    rep = cost_report(spec)
    assert rep.total_params == (rep.conv_params + rep.bn_params
                                + rep.other_params)
    assert sorted(rep.flops_per_step) == list(range(1, spec.max_step + 1))
    return (rep.conv_params, rep.bn_params, rep.other_params,
            rep.unrolled_depth, [rep.flops_per_step[s]
                                 for s in range(1, spec.max_step + 1)])


class TestFrozenReports:
    @pytest.mark.parametrize("mode,n", sorted(FROZEN_R3))
    def test_r3(self, mode, n):
        spec = NetworkSpec(arch="r3", task="denoise", bn_mode=mode,
                           max_step=n, widths=(8, 8, 8),
                           image_shape=(1, 16, 16))
        assert _report_tuple(spec) == FROZEN_R3[(mode, n)]

    @pytest.mark.parametrize("mode,n", sorted(FROZEN_R4))
    def test_r4(self, mode, n):
        spec = NetworkSpec(arch="r4", task="classify", bn_mode=mode,
                           max_step=n, widths=(4, 8, 16, 32),
                           image_shape=(3, 16, 16), num_classes=5)
        assert _report_tuple(spec) == FROZEN_R4[(mode, n)]

    def test_paper_scale_r4(self):
        assert _report_tuple(r4_spec(4, classes=100)) == (
            11159296, 53504, 51300, 42,
            [555468800, 857458688, 1159448576, 1461438464])


# ordered (name, step, index, slot) of every BN group, keyed by
# "<arch>/<bn_mode>/<max_step>", as the networks were first laid out;
# r4 double_independent at max_step 1 keeps trans<i>.bn1 next to head.bn.s1
FROZEN_BN_LAYOUT = json.loads(GOLDEN.joinpath("bn_layout.json").read_text())


def small_spec(arch, bn_mode, max_step, precision="float32"):
    if arch == "r2":
        return small_r2_spec(bn_mode, max_step, widths=(4, 16),
                             precision=precision)
    if arch == "r3":
        return small_r3_spec(bn_mode, max_step, width=4, image=8,
                             precision=precision)
    return NetworkSpec(arch="r4", task="classify", bn_mode=bn_mode,
                       max_step=max_step, widths=(4, 8, 16, 32),
                       image_shape=(3, 8, 8), num_classes=3,
                       precision=precision)


class TestFrozenBnLayout:
    @pytest.mark.parametrize("key", sorted(FROZEN_BN_LAYOUT))
    def test_layout(self, key):
        arch, mode, n = key.split("/")
        net = build_network(small_spec(arch, mode, int(n)))
        layout = [[name, *address] for mod_name, mod in net.modules
                  for name, address, _ in mod.named_bn_groups(mod_name)]
        assert layout == FROZEN_BN_LAYOUT[key]


def _randomize_bn(net, rng):
    """Distinct values in every BN group, so a wrong group selection
    changes the output."""
    for g in net.named_bn_groups().values():
        c, dtype = g.channels, g.gamma.data.dtype
        g.gamma.data[...] = 1.0 + 0.2 * rng.standard_normal(c)
        g.beta.data[...] = 0.2 * rng.standard_normal(c)
        g.running_mean[...] = 0.2 * rng.standard_normal(c)
        g.running_var[...] = (1.0 + 0.5 * rng.random(c)).astype(dtype)


def _task_loss(spec, out, x, labels):
    if spec.task == "classify":
        return F.softmax_cross_entropy(out, labels)
    return F.mse_loss(out, Tensor(x))


EXPANSION_CASES = [(arch, mode, s) for arch in ("r2", "r3", "r4")
                   for mode in ("independent", "double_independent")
                   for s in (1, 2, 3)]


@pytest.mark.parametrize("arch,mode,step", EXPANSION_CASES)
def test_expansion_equivalence(arch, mode, step, rng):
    """Forward and ``infer`` within 1e-5 in float32 (eval mode, running
    statistics); float64 training-mode loss within 1e-12 and each cell's
    shared conv gradient equal to the sum over its untied depths within
    1e-10; every other weight keeps its name and its gradient."""
    spec = small_spec(arch, mode, 3)
    net = build_seeded(spec, seed=2)
    _randomize_bn(net, rng)
    x = rng.standard_normal((4,) + spec.image_shape).astype(np.float32)
    y = net.forward(x, step, training=False)
    exp = expand_to_standard(net, step)
    z = exp.forward(x, training=False)
    npt.assert_allclose(y.data, z.data, atol=1e-5, rtol=0)
    npt.assert_allclose(infer(net, x, step), infer(exp, x, step), atol=1e-5,
                        rtol=0)

    net = build_seeded(small_spec(arch, mode, 3, precision="float64"), seed=2)
    _randomize_bn(net, rng)
    exp = expand_to_standard(net, step)
    x = x.astype(np.float64)
    labels = rng.integers(0, 3, 4)
    losses = []
    for model in (net, exp):
        with Tape() as tape:
            out = model.forward(x, step, training=True)
            loss = _task_loss(net.spec, out, x, labels)
        backward(tape, loss)
        losses.append(float(loss.data))
    npt.assert_allclose(losses[0], losses[1], atol=1e-12, rtol=0)
    eparams = exp.named_parameters()
    for name, cell in net.cells().items():
        for q, w in enumerate(cell.body.convs):
            summed = sum(eparams[f"{name}.depth{j}.conv{q}.weight"].grad
                         for j in range(1, step + 1))
            npt.assert_allclose(w.grad, summed, atol=1e-10, rtol=0)
    for name, p in net.named_parameters().items():
        if name in eparams:
            npt.assert_allclose(p.grad, eparams[name].grad, atol=1e-10, rtol=0)


@pytest.mark.parametrize("arch", ["r2", "r4"])
@pytest.mark.parametrize("step", [1, 3])
def test_expansion_starts_clean(arch, step, rng):
    """Every parameter of an expansion (stem, transitions, cells and head)
    holds a value and nothing else: a zero gradient, no optimizer state,
    not shared. The source keeps its values, gradients and buffers."""
    net = build_seeded(small_spec(arch, "double_independent", 3))
    params = net.parameters()
    for p in params:
        p.grad[...] = rng.standard_normal(p.shape)
    SGD(params, 0.1, momentum=0.9).step()
    Adam(params, 0.01).step()
    before = {name: (p.data.copy(), p.grad.copy(),
                     {k: b.copy() for k, b in p.state.items()})
              for name, p in net.named_parameters().items()}
    stats = {name: b.copy() for name, b in net.named_buffers().items()}

    exp = expand_to_standard(net, step)
    for name, p in exp.named_parameters().items():
        assert not p.grad.any() and p.state == {} and not p.is_shared, name
    for name, p in net.named_parameters().items():
        data, grad, state = before[name]
        npt.assert_array_equal(p.data, data)
        npt.assert_array_equal(p.grad, grad)
        assert sorted(p.state) == ["adam_m", "adam_v", "momentum"]
        for key, buf in state.items():
            npt.assert_array_equal(p.state[key], buf)
    for name, b in net.named_buffers().items():
        npt.assert_array_equal(b, stats[name])


class TestExpansion:
    def test_s1_structurally_identical(self):
        spec = small_r2_spec(max_step=1)
        net = build_seeded(spec)
        exp = expand_to_standard(net, 1)
        a = sum(p.size for p in net.parameters())
        b = sum(p.size for p in exp.parameters())
        assert a == b

    def test_expanded_param_count_near_s2n4(self):
        net = build_seeded(paper_r2_spec(4))
        exp = expand_to_standard(net, 4)
        total = sum(p.size for p in exp.parameters())
        assert abs(total - 5_023_000) / 5_023_000 < 0.05

    def test_values_copied_not_aliased(self):
        net = build_seeded(small_r2_spec(max_step=2))
        exp = expand_to_standard(net, 2)
        name, p = next(iter(exp.named_parameters().items()))
        before = net.named_parameters()["stem.weight"].data.copy()
        for q in exp.named_parameters().values():
            q.data[...] = 123.0
        npt.assert_array_equal(net.named_parameters()["stem.weight"].data,
                               before)

    def test_serves_only_its_step(self):
        net = build_seeded(small_r2_spec(max_step=3))
        exp = expand_to_standard(net, 2)
        assert exp.trained_support == [2]
        x = np.ones((2, 3, 8, 8), np.float32)
        npt.assert_array_equal(exp.forward(x, 2, training=False).data,
                               exp.forward(x).data)
        for step, why in ((1, r"trained support \[2\]"),
                          (3, r"trained support \[2\]"),
                          (4, r"outside \[1, 3\]")):
            with pytest.raises(ConfigError, match=why):
                exp.forward(x, step, training=False)
        net.trained_support = [1, 3]
        with pytest.raises(ConfigError, match=r"trained support \[1, 3\]"):
            expand_to_standard(net, 2)

    def test_shared_and_none_modes_rejected(self):
        for mode in ("shared", "none"):
            net = build_seeded(small_r2_spec(bn_mode=mode))
            with pytest.raises(ValueError, match="cannot be expanded"):
                expand_to_standard(net, 1)

    def test_backward_equivalence_double_precision(self, rng):
        spec = small_r2_spec(max_step=3, precision="float64")
        net = build_seeded(spec, seed=5)
        x = rng.standard_normal((4, 3, 8, 8))
        labels = rng.integers(0, 3, 4)
        for s in (1, 2, 3):
            exp = expand_to_standard(net, s)
            for p in net.parameters():
                p.grad[...] = 0.0
            with Tape() as tape:
                loss = F.softmax_cross_entropy(
                    net.forward(x, s, training=True), labels)
            backward(tape, loss)
            with Tape() as tape:
                loss2 = F.softmax_cross_entropy(
                    exp.forward(x, training=True), labels)
            backward(tape, loss2)
            npt.assert_allclose(float(loss.data), float(loss2.data),
                                atol=1e-12)
            eparams = exp.named_parameters()
            for cell_name, mod in net.modules:
                if not mod.recurrent:
                    continue
                for q, w in enumerate(mod.body.convs):
                    summed = sum(
                        eparams[f"{cell_name}.depth{j}.conv{q}.weight"].grad
                        for j in range(1, s + 1))
                    npt.assert_allclose(w.grad, summed, atol=1e-10, rtol=0)


class TestDenoiserR3:
    def test_zeroed_head_residual_identity(self, rng):
        net = build_seeded(small_r3_spec())
        params = net.named_parameters()
        params["head.weight"].data[...] = 0.0
        params["head.bias"].data[...] = 0.0
        x = (rng.standard_normal((2, 1, 16, 16)) * 25 + 128) \
            .astype(np.float32)
        y = net.forward(x, 2, training=False)
        npt.assert_array_equal(y.data, x)

    def test_depth_is_3n_plus_2(self):
        for n in (1, 2, 4):
            spec = small_r3_spec(max_step=n)
            assert cost_report(spec).unrolled_depth == 3 * n + 2

    def test_output_shape_matches_input(self, rng):
        net = build_seeded(small_r3_spec())
        x = rng.standard_normal((3, 1, 16, 16)).astype(np.float32)
        assert net.forward(x, 1, training=False).shape == x.shape

    def test_eval_forward_is_batch_invariant(self, rng):
        # Each image's eval output is bit-identical whether it is forwarded
        # alone or in a batch of 20, so evaluators may batch freely.
        net = build_seeded(small_r3_spec(max_step=3))
        _randomize_bn(net, rng)
        x = (rng.standard_normal((20, 1, 16, 16)) * 25 + 128) \
            .astype(np.float32)
        batched = net.forward(x, 3, training=False).data
        for i in range(len(x)):
            npt.assert_array_equal(
                batched[i], net.forward(x[i:i + 1], 3, training=False).data[0])


@pytest.mark.parametrize("arch", ["r2", "r4"])
def test_classifier_eval_forward_is_batch_invariant(arch, rng):
    # the logits of one image forwarded alone are its row of a batch of
    # 300, bit for bit, so `infer` and `eval` agree on a near-tie
    spec = small_spec(arch, "independent", 2)
    net = build_seeded(spec)
    _randomize_bn(net, rng)
    x = rng.standard_normal((300, *spec.image_shape)).astype(np.float32)
    batched = net.forward(x, 2, training=False).data
    for i in range(len(x)):
        npt.assert_array_equal(
            batched[i], net.forward(x[i:i + 1], 2, training=False).data[0])
