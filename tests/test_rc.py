"""BN-bank addressing, unroll semantics, and step sampling."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcnet.autodiff import Tensor
from rcnet.layers import CellBody, init_weights, run_cell_body
from rcnet.rc import BnBank, RcCell, StepDistribution, unroll


def make_cell(rng, mode="independent", max_step=3, channels=4,
              kind="conv_bn_relu", pool=False, dtype=np.float64):
    body = CellBody.create(kind, channels, dtype)
    init_weights(body.convs, rng)
    bank = BnBank(mode, max_step, body.bn_slots, channels, dtype)
    return RcCell(body, bank, pool_after_half=pool)


class TestBankArithmetic:
    @pytest.mark.parametrize("mode,m,slots,want", [
        ("shared", 4, 2, 2),
        ("independent", 4, 2, 8),
        ("double_independent", 4, 2, 20),   # m(m+1)/2 = 10 addresses
        ("double_independent", 3, 1, 6),
        ("none", 4, 2, 0),
    ])
    def test_group_counts(self, mode, m, slots, want):
        bank = BnBank(mode, m, slots, 4)
        assert bank.n_groups == want

    def test_shared_always_same_group(self):
        bank = BnBank("shared", 4, 1, 4)
        picks = {id(bank.select(s, j)[0])
                 for s in range(1, 5) for j in range(1, s + 1)}
        assert len(picks) == 1

    def test_independent_indexes_by_unroll_position(self):
        bank = BnBank("independent", 3, 1, 4)
        assert bank.select(3, 2)[0] is bank.groups[1][0]
        assert bank.select(2, 2)[0] is bank.groups[1][0]

    def test_double_independent_row_prefix_pattern(self):
        # a 3-step unroll touches exactly the first three elements of the
        # step-3 row, in order: (3,1), (3,2), (3,3)
        bank = BnBank("double_independent", 4, 1, 4)
        want = [bank.address(3, j) for j in (1, 2, 3)]
        base = 3 * 2 // 2
        assert want == [base, base + 1, base + 2]

    def test_full_sweep_touches_each_address_once(self):
        bank = BnBank("double_independent", 4, 2, 4)
        seen = [bank.address(s, j) for s in range(1, 5)
                for j in range(1, s + 1)]
        assert sorted(seen) == list(range(10))

    def test_canonical_linear_index(self):
        bank = BnBank("double_independent", 4, 1, 4)
        for s in range(1, 5):
            for j in range(1, s + 1):
                assert bank.address(s, j) == s * (s - 1) // 2 + (j - 1)

    @pytest.mark.parametrize("s,j", [(2, 3), (5, 1), (0, 0), (1, 0)])
    def test_bad_addresses_rejected(self, s, j):
        bank = BnBank("double_independent", 4, 1, 4)
        with pytest.raises(ValueError, match="invalid bank address"):
            bank.select(s, j)

    @pytest.mark.parametrize("mode,unrolled,want", [
        ("shared", True, [(0, 0)]),
        ("shared", False, [(0, 0)]),
        ("independent", True, [(0, 1), (0, 2), (0, 3)]),
        ("independent", False, [(0, 0)]),
        ("double_independent", True,
         [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]),
        ("double_independent", False, [(1, 0), (2, 0), (3, 0)]),
        ("none", True, []),
        ("none", False, []),
    ])
    def test_address_rule(self, mode, unrolled, want):
        # an address keeps the coordinates the input statistics depend on
        bank = BnBank(mode, 3, 1, 4, unrolled=unrolled)
        assert bank.address_labels() == want
        for s in range(1, 4):
            for j in range(1, s + 1):
                if want:
                    label = want[bank.address(s, j)]
                    assert all(v in (0, w) for v, w in zip(label, (s, j)))
                else:
                    assert bank.select(s, j) is None

    def test_address_names(self):
        def names(mode):
            bank = BnBank(mode, 2, 1, 4)
            return [bank.address_name(a) for a in range(bank.n_addresses)]
        assert names("shared") == ["shared"]
        assert names("independent") == ["j1", "j2"]
        assert names("double_independent") == ["s1j1", "s2j1", "s2j2"]

    def test_untie_copies_one_address(self):
        bank = BnBank("double_independent", 3, 2, 4, np.float64)
        one = bank.untie(3, 2)
        assert one.n_addresses == 1 and one.max_step == 1
        for src, dst in zip(bank.select(3, 2), one.select(1, 1)):
            assert dst is not src and dst.gamma is not src.gamma
            npt.assert_array_equal(dst.running_var, src.running_var)
            assert dst.gamma.dtype == np.float64
        assert BnBank("none", 3, 1, 4).untie(2, 1).select(1, 1) is None

    def test_slot_mismatch_with_body_rejected(self, rng):
        body = CellBody.create("preact_resblock", 4, np.float64)
        init_weights(body.convs, rng)
        bank = BnBank("independent", 3, 1, 4)
        with pytest.raises(ValueError, match="slots"):
            RcCell(body, bank)


class TestUnroll:
    def test_single_step_equals_body_call(self, rng):
        cell = make_cell(rng)
        x = rng.standard_normal((2, 4, 6, 6))
        got = unroll(cell, Tensor(x), 1, training=False)
        want = run_cell_body(cell.body, Tensor(x), cell.bank.select(1, 1),
                             training=False)
        npt.assert_array_equal(got.data, want.data)

    def test_pooling_after_half(self, rng):
        cell = make_cell(rng, max_step=4, pool=True)
        x = Tensor(rng.standard_normal((1, 4, 8, 8)))
        collected: list = []
        y = unroll(cell, x, 4, training=False, collect=collected)
        # pool after step ceil(4/2) = 2: steps 1-2 at 8x8, 3-4 at 4x4
        assert [t.shape[-1] for t in collected] == [8, 4, 4, 4]
        assert y.shape == (1, 4, 4, 4)

    def test_pool_step_odd_extent_rejected(self, rng):
        cell = make_cell(rng, max_step=2, pool=True)
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        with pytest.raises(ValueError, match="odd"):
            unroll(cell, x, 2, training=False)

    def test_steps_out_of_range(self, rng):
        cell = make_cell(rng, max_step=3)
        x = Tensor(np.zeros((1, 4, 4, 4)))
        for bad in (0, 4):
            with pytest.raises(ValueError, match="outside"):
                unroll(cell, x, bad, training=False)

    def test_double_independent_touches_one_row(self, rng):
        cell = make_cell(rng, mode="double_independent", max_step=4)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        unroll(cell, x, 3, training=True)
        touched = {addr for addr in range(cell.bank.n_addresses)
                   if cell.bank.groups[addr][0].use_count}
        want = {cell.bank.address(3, j) for j in (1, 2, 3)}
        assert touched == want

    def test_row_restriction_consistency(self, rng):
        # DI bank with row s copied from an independent bank unrolls
        # identically at step s
        indep = make_cell(rng, mode="independent", max_step=3)
        di = make_cell(rng, mode="double_independent", max_step=3)
        for q, w in enumerate(indep.body.convs):
            di.body.convs[q].data[...] = w.data
        rng2 = np.random.default_rng(7)
        for j in range(1, 4):
            for slot in range(indep.bank.slots):
                src = indep.bank.select(3, j)[slot]
                src.gamma.data[...] = rng2.uniform(0.5, 1.5, 4)
                src.beta.data[...] = rng2.normal(0, 0.2, 4)
                src.running_mean[...] = rng2.normal(0, 0.2, 4)
                src.running_var[...] = rng2.uniform(0.5, 1.5, 4)
                dst = di.bank.select(3, j)[slot]
                dst.gamma.data[...] = src.gamma.data
                dst.beta.data[...] = src.beta.data
                dst.running_mean[...] = src.running_mean
                dst.running_var[...] = src.running_var
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        a = unroll(indep, x, 3, training=False)
        b = unroll(di, x, 3, training=False)
        npt.assert_allclose(a.data, b.data, atol=1e-6, rtol=0)

    def test_shared_mode_prefix_composes(self, rng):
        # eval mode, no pooling: s steps == 1 step applied to (s-1)-step output
        cell = make_cell(rng, mode="shared", max_step=4)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)))
        for s in (2, 3, 4):
            full = unroll(cell, x, s, training=False)
            prefix = unroll(cell, x, s - 1, training=False)
            step = run_cell_body(cell.body, prefix, cell.bank.select(1, 1),
                                 training=False)
            npt.assert_allclose(full.data, step.data, atol=1e-12, rtol=0)

    def test_param_count_invariance_in_max_step(self, rng):
        # conv parameters are independent of max_step; only BN groups grow
        def counts(m, mode):
            cell = make_cell(rng, mode=mode, max_step=m, kind="preact_resblock")
            conv = sum(w.size for w in cell.body.convs)
            bn = sum(g.gamma.size + g.beta.size
                     for addr in cell.bank.groups for g in addr)
            return conv, bn

        c = 4
        addresses = {"shared": (1, 1), "independent": (1, 4),
                     "double_independent": (1, 10)}
        for mode, (at1, at4) in addresses.items():
            conv1, bn1 = counts(1, mode)
            conv4, bn4 = counts(4, mode)
            assert conv1 == conv4
            assert bn1 == at1 * 2 * 2 * c   # slots=2, gamma+beta
            assert bn4 == at4 * 2 * 2 * c


class TestStepDistribution:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        d = StepDistribution.fixed(3)
        assert all(d.sample(rng) == 3 for _ in range(20))

    def test_seeded_sequences_identical(self):
        d = StepDistribution((2, 3, 4), (0.2, 0.3, 0.5))
        rng_a = np.random.Generator(np.random.PCG64(123))
        rng_b = np.random.Generator(np.random.PCG64(123))
        seq_a = [d.sample(rng_a) for _ in range(200)]
        seq_b = [d.sample(rng_b) for _ in range(200)]
        assert seq_a == seq_b

    def test_empirical_frequencies_within_4_sigma(self):
        d = StepDistribution((2, 3, 4), (0.2, 0.3, 0.5))
        rng = np.random.default_rng(2024)
        n = 100_000
        draws = np.array([d.sample(rng) for _ in range(n)])
        for s, p in zip(d.support, d.probs):
            count = int((draws == s).sum())
            sigma = (n * p * (1 - p)) ** 0.5
            assert abs(count - n * p) < 4 * sigma, (s, count)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_samples_stay_in_support(self, seed):
        d = StepDistribution((1, 3, 4), (0.5, 0.25, 0.25))
        assert d.sample(np.random.default_rng(seed)) in d.support

    @pytest.mark.parametrize("support,probs", [
        ((2, 1), (0.5, 0.5)),        # unsorted
        ((1, 1), (0.5, 0.5)),        # duplicate
        ((0,), (1.0,)),              # step < 1
        ((1, 2), (0.6, 0.6)),        # sum != 1
        ((1, 2), (1.2, -0.2)),       # negative
        ((1, 2), (1.0,)),            # length mismatch
    ])
    def test_invalid_distributions_rejected(self, support, probs):
        with pytest.raises(ValueError):
            StepDistribution(support, probs)

    def test_nan_probabilities_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            StepDistribution((2, 3), (float("nan"), float("nan")))
