"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Structural criteria use the paper-scale layouts; training criteria
run at desk scale (narrow widths, small synthetic datasets) within their
stated CPU budgets.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (build_seeded, finite_difference_check, param_checksums,
                      small_r2_spec)
from rcnet import functional as F
from rcnet.autodiff import Parameter, Tensor
from rcnet.checkpoint import load_checkpoint, save_checkpoint
from rcnet.data import (DenoiseSet, load_cifar10, make_denoise_eval_set,
                        make_synthetic_classification, make_synthetic_textures,
                        read_pgm, write_pgm)
from rcnet.layers import BnGroup, CellBody, run_cell_body
from rcnet.networks import NetworkSpec, cost_report, expand_to_standard
from rcnet.rc import BnBank, StepDistribution
from rcnet.training import (TrainConfig, evaluate_classification,
                            evaluate_denoise, noisy_input_psnr,
                            train_cost_adjustable, train_fixed)

GOLDEN = Path(__file__).parent / "golden"


def report(cid, ok, detail=""):
    print(f"\n[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} "
          f"{detail}")
    assert ok, f"criterion {cid}: {detail}"


def desk_r2(bn_mode, max_step, precision="float32"):
    return NetworkSpec(arch="r2", task="classify", bn_mode=bn_mode,
                       max_step=max_step, widths=(16, 64),
                       image_shape=(3, 16, 16), num_classes=3,
                       precision=precision)


def desk_data(seed=0, samples=2000, test_samples=500):
    train = make_synthetic_classification(
        3, samples, 16, np.random.SeedSequence([seed, 11]))
    test = make_synthetic_classification(
        3, test_samples, 16, np.random.SeedSequence([seed, 12]),
        split="test")
    return train, test


def desk_cfg(step_dist, seed=0, epochs=3, lr=0.05):
    return TrainConfig(lr=lr, momentum=0.9, epochs=epochs, batch_size=50,
                       seed=seed, step_distribution=step_dist,
                       eval_each_epoch=False)


def test_criterion_1_expansion_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = {"float32": 0.0, "float64": 0.0}
    worst_grad = 0.0
    for precision, tol in (("float32", 1e-5), ("float64", 1e-10)):
        spec = NetworkSpec(arch="r2", task="classify", bn_mode="independent",
                           max_step=4, widths=(64, 256),
                           image_shape=(3, 16, 16), num_classes=10,
                           precision=precision)
        net = build_seeded(spec, seed=1)
        srng = np.random.default_rng(23)
        for g in net.named_bn_groups().values():
            g.gamma.data[...] = srng.uniform(0.7, 1.3, g.channels)
            g.beta.data[...] = srng.normal(0, 0.1, g.channels)
            g.running_mean[...] = srng.normal(0, 0.3, g.channels)
            g.running_var[...] = srng.uniform(0.5, 1.5, g.channels)
        x = rng.standard_normal((16, 3, 16, 16)).astype(spec.dtype)
        labels = rng.integers(0, 10, 16)
        for s in (1, 2, 3, 4):
            exp = expand_to_standard(net, s)
            for training in (False, True):
                a = net.forward(x, s, training=training,
                                update_stats=False).data
                b = exp.forward(x, training=training).data
                worst[precision] = max(worst[precision],
                                       float(np.abs(a - b).max()))
            if precision == "float64":
                from rcnet.autodiff import Tape, backward
                for p in net.parameters():
                    p.grad[...] = 0.0
                with Tape() as tape:
                    loss = F.softmax_cross_entropy(
                        net.forward(x, s, training=True,
                                    update_stats=False), labels)
                backward(tape, loss)
                with Tape() as tape:
                    loss2 = F.softmax_cross_entropy(
                        exp.forward(x, training=True, update_stats=False),
                        labels)
                backward(tape, loss2)
                eparams = exp.named_parameters()
                for cname, mod in net.modules:
                    if not mod.recurrent:
                        continue
                    for q, w in enumerate(mod.cell.body.convs):
                        summed = sum(
                            eparams[f"{cname}.depth{j}.conv{q}.weight"].grad
                            for j in range(1, s + 1))
                        worst_grad = max(worst_grad,
                                         float(np.abs(w.grad - summed).max()))
    elapsed = time.time() - t0
    ok = (worst["float32"] < 1e-5 and worst["float64"] < 1e-10
          and worst_grad < 1e-10 and elapsed < 120)
    report(1, ok, f"fwd dev f32={worst['float32']:.2e} "
                  f"f64={worst['float64']:.2e} grad sum dev={worst_grad:.2e} "
                  f"({elapsed:.0f}s)")


def test_criterion_2_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(5)
    results = {}

    def away_from_zero(a, margin=0.1):
        a = a.copy()
        a[np.abs(a) < margin] += 2 * margin
        return a

    # conv2d, pad 1, with bias
    x = Parameter(rng.standard_normal((2, 3, 6, 6)))
    w = Parameter(rng.standard_normal((4, 3, 3, 3)) * 0.4)
    b = Parameter(rng.standard_normal(4) * 0.2)
    tgt = rng.standard_normal((2, 4, 6, 6))
    results["conv2d"] = finite_difference_check(
        lambda: F.mse_loss(F.conv2d(x, w, b, padding=1), Tensor(tgt)),
        [x, w, b])

    # conv2d, stride 2, odd input
    x2 = Parameter(rng.standard_normal((2, 2, 7, 7)))
    w2 = Parameter(rng.standard_normal((3, 2, 3, 3)) * 0.4)
    tgt2 = rng.standard_normal((2, 3, 4, 4))
    results["conv2d_stride2"] = finite_difference_check(
        lambda: F.mse_loss(F.conv2d(x2, w2, stride=2, padding=1),
                           Tensor(tgt2)), [x2, w2])

    # batch norm, train and eval
    g = BnGroup.create(3, np.float64)
    g.running_mean[...] = rng.normal(0, 0.5, 3)
    g.running_var[...] = rng.uniform(0.5, 2.0, 3)
    xb = Parameter(rng.standard_normal((4, 3, 5, 5)) * 2 + 0.5)
    tgtb = rng.standard_normal((4, 3, 5, 5))
    results["batchnorm_train"] = finite_difference_check(
        lambda: F.mse_loss(
            F.batchnorm2d(xb, g, training=True, update_stats=False),
            Tensor(tgtb)), [xb, g.gamma, g.beta])
    results["batchnorm_eval"] = finite_difference_check(
        lambda: F.mse_loss(F.batchnorm2d(xb, g, training=False),
                           Tensor(tgtb)), [xb, g.gamma, g.beta])

    # relu (inputs away from the kink)
    xr = Parameter(away_from_zero(rng.standard_normal((3, 4, 4))))
    tgtr = rng.standard_normal((3, 4, 4))
    results["relu"] = finite_difference_check(
        lambda: F.mse_loss(F.relu(xr), Tensor(tgtr)), [xr])

    # add
    xa = Parameter(rng.standard_normal((2, 3, 4, 4)))
    xc = Parameter(rng.standard_normal((2, 3, 4, 4)))
    tgta = rng.standard_normal((2, 3, 4, 4))
    results["add"] = finite_difference_check(
        lambda: F.mse_loss(F.add(xa, xc), Tensor(tgta)), [xa, xc])

    # pools
    xp = Parameter(rng.standard_normal((2, 3, 6, 6)))
    tgtp = rng.standard_normal((2, 3, 3, 3))
    results["avgpool2d"] = finite_difference_check(
        lambda: F.mse_loss(F.avgpool2d(xp), Tensor(tgtp)), [xp])
    tgtg = rng.standard_normal((2, 3))
    results["global_avgpool"] = finite_difference_check(
        lambda: F.mse_loss(F.global_avgpool(xp), Tensor(tgtg)), [xp])

    # invpool both directions
    tgti = rng.standard_normal((2, 12, 3, 3))
    results["invpool"] = finite_difference_check(
        lambda: F.mse_loss(F.invpool(xp), Tensor(tgti)), [xp])
    xi = Parameter(rng.standard_normal((2, 12, 3, 3)))
    tgtj = rng.standard_normal((2, 3, 6, 6))
    results["invpool_inverse"] = finite_difference_check(
        lambda: F.mse_loss(F.invpool_inverse(xi), Tensor(tgtj)), [xi])

    # linear
    xl = Parameter(rng.standard_normal((5, 6)))
    wl = Parameter(rng.standard_normal((4, 6)) * 0.5)
    bl = Parameter(rng.standard_normal(4) * 0.2)
    tgtl = rng.standard_normal((5, 4))
    results["linear"] = finite_difference_check(
        lambda: F.mse_loss(F.linear(xl, wl, bl), Tensor(tgtl)), [xl, wl, bl])

    # losses
    logits = Parameter(rng.standard_normal((6, 4)))
    labels = rng.integers(0, 4, 6)
    results["softmax_ce"] = finite_difference_check(
        lambda: F.softmax_cross_entropy(logits, labels), [logits])
    xm = Parameter(rng.standard_normal((3, 5)))
    tm = rng.standard_normal((3, 5))
    results["mse"] = finite_difference_check(
        lambda: F.mse_loss(xm, Tensor(tm)), [xm])

    # cell bodies end to end
    rng_body = np.random.default_rng(8)
    body = CellBody.create("preact_resblock", 4, rng_body, np.float64)
    groups = [BnGroup.create(4, np.float64) for _ in range(2)]
    for gg in groups:
        gg.gamma.data[...] = rng.uniform(0.7, 1.3, 4)
        gg.beta.data[...] = rng.normal(0, 0.1, 4)
    xcell = Parameter(rng.standard_normal((2, 4, 4, 4)))
    tcell = rng.standard_normal((2, 4, 4, 4))
    results["preact_resblock"] = finite_difference_check(
        lambda: F.mse_loss(
            run_cell_body(body, xcell, groups, training=True,
                          update_stats=False), Tensor(tcell)),
        [xcell, body.convs[0], body.convs[1], groups[0].gamma,
         groups[0].beta, groups[1].gamma, groups[1].beta])

    body2 = CellBody.create("conv_bn_relu", 4, rng_body, np.float64)
    g2 = BnGroup.create(4, np.float64)
    results["conv_bn_relu"] = finite_difference_check(
        lambda: F.mse_loss(
            run_cell_body(body2, xcell, [g2], training=True,
                          update_stats=False), Tensor(tcell)),
        [xcell, body2.convs[0], g2.gamma, g2.beta])

    elapsed = time.time() - t0
    worst_op = max(results, key=results.get)
    ok = max(results.values()) < 1e-6 and elapsed < 120
    report(2, ok, f"max rel err {results[worst_op]:.2e} ({worst_op}), "
                  f"{len(results)} op configs ({elapsed:.0f}s)")


def test_criterion_3_table1_structure():
    def spec_n(n):
        return NetworkSpec(arch="r2", task="classify", bn_mode="independent",
                           max_step=n, widths=(64, 256),
                           image_shape=(3, 32, 32), num_classes=10)

    depths = [cost_report(spec_n(n)).unrolled_depth for n in (1, 2, 3, 4)]
    convs = [cost_report(spec_n(n)).conv_params for n in (1, 2, 3, 4)]
    total4 = cost_report(spec_n(4)).total_params
    exp4 = sum(p.size for p in
               expand_to_standard(build_seeded(spec_n(4)), 4).parameters())
    ok = (depths == [6, 10, 14, 18]
          and len(set(convs)) == 1
          and abs(total4 - 1_263_000) / 1_263_000 < 0.05
          and abs(exp4 - 5_023_000) / 5_023_000 < 0.05)
    report(3, ok, f"depths={depths} R2^4 params={total4} "
                  f"expanded S2^4 params={exp4}")


def test_criterion_4_bank_arithmetic_and_audit():
    # exact group counts per mode
    counts_ok = True
    for m in (1, 2, 3, 4):
        for slots in (1, 2):
            counts_ok &= BnBank("independent", m, slots, 4).n_groups \
                == m * slots
            counts_ok &= BnBank("double_independent", m, slots, 4).n_groups \
                == m * (m + 1) // 2 * slots

    # instrumented 1000-iteration cost-adjustable run
    spec = NetworkSpec(arch="r2", task="classify",
                       bn_mode="double_independent", max_step=4,
                       widths=(8, 32), image_shape=(3, 8, 8), num_classes=3)
    net = build_seeded(spec, seed=2)
    train = make_synthetic_classification(3, 40, 8,
                                          np.random.SeedSequence([2, 11]))
    dist = StepDistribution((2, 3, 4), (0.2, 0.3, 0.5))
    cfg = TrainConfig(lr=0.05, momentum=0.9, epochs=125, batch_size=5,
                      seed=2, step_distribution=dist, eval_each_epoch=False)
    log = train_cost_adjustable(net, train, None, cfg)
    assert len(log.iterations) == 1000
    step_counts = {s: sum(1 for r in log.iterations if r.step == s)
                   for s in (1, 2, 3, 4)}
    # logged frequencies match the distribution within 4 sigma
    for s, p in zip(dist.support, dist.probs):
        sigma = (1000 * p * (1 - p)) ** 0.5
        assert abs(step_counts[s] - 1000 * p) < 4 * sigma, (s, step_counts)

    audit_ok = True
    leaks = 0
    for name, cell in net.cells().items():
        bank = cell.bank
        for addr, (s, j) in enumerate(bank.address_labels()):
            for g in bank.groups[addr]:
                want = step_counts.get(s, 0) if s in dist.support else 0
                if g.use_count != want:
                    audit_ok = False
                    leaks += 1
    # unreachable rows retain their initialization exactly
    init_ok = True
    for cell in net.cells().values():
        for g in cell.bank.select(1, 1):
            init_ok &= bool((g.gamma.data == 1).all()
                            and (g.beta.data == 0).all()
                            and (g.running_mean == 0).all()
                            and (g.running_var == 1).all())
    ok = counts_ok and audit_ok and init_ok and leaks == 0
    report(4, ok, f"1000 iterations, step histogram {step_counts}, "
                  f"leaks={leaks}, untouched rows pristine={init_ok}")


@pytest.mark.slow
def test_criterion_5_bn_mode_comparison():
    t0 = time.time()
    train, test = desk_data()
    results = {}
    for mode in ("none", "shared", "independent"):
        errs, train_errs = [], []
        for seed in (0, 1, 2):
            net = build_seeded(desk_r2(mode, 3), seed=seed)
            cfg = desk_cfg(StepDistribution.fixed(3), seed=seed)
            train_fixed(net, train, test, cfg)
            errs.append(evaluate_classification(net, test, 3))
            train_errs.append(evaluate_classification(net, train, 3))
        results[mode] = (float(np.mean(errs)), train_errs)
    elapsed = time.time() - t0
    indep_mean, indep_train = results["independent"]
    shared_mean, _ = results["shared"]
    ok = (indep_mean < shared_mean
          and all(e <= 0.10 for e in indep_train)
          and elapsed < 900)
    report(5, ok, f"mean test err independent={indep_mean:.3f} < "
                  f"shared={shared_mean:.3f}; independent train errs "
                  f"{[f'{e:.3f}' for e in indep_train]} ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_6_cost_adjustable_vs_fixed(tmp_path):
    t0 = time.time()
    train, test = desk_data()
    ca_spec = desk_r2("double_independent", 4)
    ca_net = build_seeded(ca_spec, seed=0)
    dist = StepDistribution((2, 3, 4), (0.2, 0.3, 0.5))
    train_cost_adjustable(ca_net, train, test,
                          desk_cfg(dist, seed=0, epochs=4))

    # all three steps evaluable from a single checkpointed parameter set
    ckpt = tmp_path / "ca.ckpt"
    save_checkpoint(ckpt, ca_net)
    loaded, _ = load_checkpoint(ckpt)
    ca_err = {s: evaluate_classification(loaded, test, s) for s in (2, 3, 4)}

    gaps = {}
    for s in (2, 3, 4):
        net = build_seeded(desk_r2("independent", s), seed=s)
        train_fixed(net, train, test,
                    desk_cfg(StepDistribution.fixed(s), seed=s))
        gaps[s] = abs(evaluate_classification(net, test, s) - ca_err[s])
    elapsed = time.time() - t0
    ok = all(g <= 0.05 for g in gaps.values()) and elapsed < 900
    report(6, ok, f"ca errs {ca_err} gaps vs fixed "
                  f"{ {s: f'{g:.3f}' for s, g in gaps.items()} } "
                  f"({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_7_denoise_desk_scale():
    t0 = time.time()
    clean = make_synthetic_textures(32, 32, np.random.SeedSequence([0, 21]))
    test_clean = make_synthetic_textures(8, 32, np.random.SeedSequence([0, 22]))
    train = DenoiseSet(clean=clean, sigma=25.0)
    test = make_denoise_eval_set(test_clean, 25.0,
                                 np.random.SeedSequence([0, 23]))
    base = noisy_input_psnr(test)

    spec = NetworkSpec(arch="r3", task="denoise", bn_mode="independent",
                       max_step=2, widths=(32, 32, 32),
                       image_shape=(1, 32, 32))
    zeroed = build_seeded(spec, seed=0)
    zeroed.named_parameters()["head.weight"].data[...] = 0.0
    zeroed.named_parameters()["head.bias"].data[...] = 0.0
    zero_psnr = evaluate_denoise(zeroed, test, 2)

    net = build_seeded(spec, seed=0)
    cfg = TrainConfig(lr=0.02, momentum=0.9, epochs=40, batch_size=8, seed=0,
                      step_distribution=StepDistribution.fixed(2),
                      eval_each_epoch=False)
    train_fixed(net, train, test, cfg)
    psnr_out = evaluate_denoise(net, test, 2)
    elapsed = time.time() - t0
    ok = (zero_psnr == base) and (psnr_out - base >= 3.0) and elapsed < 600
    report(7, ok, f"noisy={base:.2f}dB zeroed-head={zero_psnr:.2f}dB "
                  f"denoised={psnr_out:.2f}dB gain={psnr_out - base:.2f}dB "
                  f"({elapsed:.0f}s)")


TOY_INI = """
[network]
arch = r2
bn_mode = double_independent
max_step = 3
widths = 8,32
image_size = 8
num_classes = 3

[train]
lr = 0.05
epochs = {epochs}
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


def _cli(args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "rcnet"] + args, env=e,
                          capture_output=True, text=True)


def test_criterion_8_determinism(tmp_path):
    env = {"RCNET_THREADS": "1"}
    # two identical runs are byte-identical
    for tag in ("a", "b"):
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(TOY_INI.format(epochs=2, out=tmp_path / tag))
        r = _cli(["train", "--config", str(cfg)], env)
        assert r.returncode == 0, r.stderr
    same_ckpt = (tmp_path / "a" / "last.ckpt").read_bytes() == \
        (tmp_path / "b" / "last.ckpt").read_bytes()
    same_metrics = (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()

    # save -> load -> save round trip
    net, state = load_checkpoint(tmp_path / "a" / "last.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(resaved, net, state)
    roundtrip = resaved.read_bytes() == \
        (tmp_path / "a" / "last.ckpt").read_bytes()

    # resume from the one-epoch checkpoint matches the two-epoch run
    cfg1 = tmp_path / "part1.ini"
    cfg1.write_text(TOY_INI.format(epochs=1, out=tmp_path / "part1"))
    assert _cli(["train", "--config", str(cfg1)], env).returncode == 0
    cfg2 = tmp_path / "part2.ini"
    cfg2.write_text(TOY_INI.format(epochs=2, out=tmp_path / "part2"))
    r = _cli(["train", "--config", str(cfg2), "--resume",
              str(tmp_path / "part1" / "last.ckpt")], env)
    assert r.returncode == 0, r.stderr
    resumed = (tmp_path / "part2" / "last.ckpt").read_bytes() == \
        (tmp_path / "a" / "last.ckpt").read_bytes()
    full_rows = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
    part_rows = (tmp_path / "part2" / "metrics.csv").read_text().splitlines()
    tail_match = full_rows[-(len(part_rows) - 1):] == part_rows[1:]

    ok = same_ckpt and same_metrics and roundtrip and resumed and tail_match
    report(8, ok, f"rerun ckpt={same_ckpt} metrics={same_metrics} "
                  f"roundtrip={roundtrip} resume={resumed} "
                  f"resume-log-tail={tail_match}")


def test_criterion_9_regime_collapse():
    spec = small_r2_spec(bn_mode="double_independent", max_step=2)
    train = make_synthetic_classification(3, 100, 8,
                                          np.random.SeedSequence([3, 11]))
    # 100 samples / batch 10 = 10 iterations per epoch; 20 epochs = 200
    cfg = TrainConfig(lr=0.05, momentum=0.9, epochs=20, batch_size=10,
                      seed=3, step_distribution=StepDistribution.fixed(2),
                      eval_each_epoch=False)
    net_f = build_seeded(spec, seed=3)
    log_f = train_fixed(net_f, train, None, cfg)
    net_c = build_seeded(spec, seed=3)
    log_c = train_cost_adjustable(net_c, train, None, cfg)
    assert len(log_f.iterations) == 200
    identical = param_checksums(net_f) == param_checksums(net_c)
    same_losses = [r.loss for r in log_f.iterations] == \
        [r.loss for r in log_c.iterations]
    ok = identical and same_losses
    report(9, ok, f"200 iterations, params bit-identical={identical}, "
                  f"loss trace identical={same_losses}")


def test_criterion_10_format_suite(tmp_path):
    # CIFAR binary fixture: labels, channel planes, scaling
    rng = np.random.default_rng(0)
    n = 30
    labels = (np.arange(n) % 10).astype(np.uint8)
    pixels = rng.integers(0, 256, size=(n, 3072)).astype(np.uint8)
    shard = tmp_path / "fix.bin"
    shard.write_bytes(np.concatenate([labels[:, None], pixels],
                                     axis=1).tobytes())
    ds = load_cifar10(shard)
    cifar_ok = (len(ds) == n
                and np.array_equal(ds.labels, labels)
                and np.array_equal(
                    ds.images,
                    pixels.reshape(n, 3, 32, 32).astype(np.float32) / 255.0))

    # PGM round trip through cmd_infer preserves dimensions
    dcfg = tmp_path / "den.ini"
    dcfg.write_text("""
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
dir = %s
""" % (tmp_path / "drun"))
    assert _cli(["train", "--config", str(dcfg)]).returncode == 0
    img = make_synthetic_textures(1, 16, 4)[0, 0]
    write_pgm(tmp_path / "in.pgm", img)
    r = _cli(["infer", "--checkpoint", str(tmp_path / "drun" / "last.ckpt"),
              "--input", str(tmp_path / "in.pgm"), "--step", "2",
              "--output", str(tmp_path / "out.pgm")])
    assert r.returncode == 0, r.stderr
    pgm_ok = read_pgm(tmp_path / "out.pgm").shape == img.shape

    # golden CSV schemas
    metrics_hdr = (tmp_path / "drun" / "metrics.csv").read_text() \
        .splitlines()[0]
    golden_metrics = GOLDEN.joinpath("metrics_header.csv").read_text().strip()
    ccfg = tmp_path / "cost.ini"
    ccfg.write_text("[network]\narch = r2\nbn_mode = independent\n"
                    "max_step = 4\nwidths = 64,256\nimage_size = 32\n"
                    "num_classes = 10\n"
                    "[train]\nregime = fixed\nstep_support = 4\n")
    assert _cli(["cost", "--config", str(ccfg), "--out-dir",
                 str(tmp_path)]).returncode == 0
    cost_ok = (tmp_path / "cost.csv").read_text() == \
        GOLDEN.joinpath("cost_r2_n4.csv").read_text()

    ok = cifar_ok and pgm_ok and metrics_hdr == golden_metrics and cost_ok
    report(10, ok, f"cifar={cifar_ok} pgm={pgm_ok} "
                   f"metrics-header={metrics_hdr == golden_metrics} "
                   f"cost-golden={cost_ok}")
