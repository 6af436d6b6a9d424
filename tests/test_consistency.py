"""Noise schedule, curriculum, index sampling, Pseudo-Huber, skip/out
coefficients, normalization, CT losses, multistep sampling, and ensembles."""

import math
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specproj.consistency import (
    CtConfig,
    DEFAULT_TIME_POINTS,
    DenoiserBundle,
    DenoiserHyper,
    RangeNormalizer,
    ToyDenoiser,
    consistency_pair_loss,
    ct_loss,
    curriculum_n,
    default_huber_c,
    diffpcno_step,
    index_weights,
    noise_injection_scale,
    sample_index,
    sample_multistep,
    skip_out_coeffs,
    timesteps,
    train_ct,
    uncertainty_ensemble,
)
from specproj.consistency.schedule import P_MEAN, P_STD, SIGMA_DATA, T_MAX, T_MIN
from specproj.errors import ContractError
from specproj.optim import Adam
from specproj.rng import substream
from specproj.surrogate import FnoHyper, fno_forward_batch, init_params, rollout, surrogate_step


# oracles of the distance and weight that consistency_pair_loss computes inline
def pseudo_huber(x: np.ndarray, y: np.ndarray, c: float) -> float:
    """sqrt(|x - y|^2 + c^2) - c: smooth between L1 and squared-L2."""
    d2 = float(np.sum((np.asarray(x) - np.asarray(y)) ** 2))
    return math.sqrt(d2 + c * c) - c


def pseudo_huber_grad(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """d/dx of pseudo_huber(x, y, c)."""
    diff = np.asarray(x) - np.asarray(y)
    return diff / math.sqrt(float(np.sum(diff * diff)) + c * c)


def loss_weight(t_lo: float, t_hi: float) -> float:
    """lambda(t_i) = 1 / (t_{i+1} - t_i)."""
    return 1.0 / (t_hi - t_lo)


class TestTimestep:
    def test_endpoints_exact_for_all_n(self):
        for n in range(2, 1282):
            t = timesteps(n)
            assert t[0] == 0.002
            assert t[-1] == 80.0
            assert np.all(np.diff(t) > 0)

    def test_midpoint_derived_value(self):
        assert timesteps(10)[4] == pytest.approx(1.501741979068008, rel=1e-12)

    def test_bounds_checked(self):
        with pytest.raises(ContractError):
            timesteps(1)


class TestCurriculum:
    def test_first_step(self):
        assert curriculum_n(0, CtConfig(steps=800)) == 11

    def test_doubling_at_k_prime(self):
        cur = CtConfig(steps=800)  # K' = 800 // (7 + 1) = 100
        assert curriculum_n(100, cur) == 21
        assert curriculum_n(99, cur) == 11

    def test_cap(self):
        cur = CtConfig(steps=8000)
        assert curriculum_n(7999, cur) == 1281

    def test_non_decreasing_and_capped(self):
        cur = CtConfig(steps=900)
        vals = [curriculum_n(k, cur) for k in range(900)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) <= 1281

    @pytest.mark.parametrize("s0,s1,message", [(0, 1280, "s0 must be >= 1, got 0"),
                                               (-1, 10, "s0 must be >= 1, got -1"),
                                               (20, 10, "s0 <= s1 required, got s0 = 20")])
    def test_impossible_curriculum_rejected(self, s0, s1, message):
        """s0 below 1 breaks its field's rule, s0 above s1 the cross-field one."""
        with pytest.raises(ContractError, match=f"^{message}"):
            CtConfig(s0=s0, s1=s1)


class TestIndexSampling:
    def test_weights_normalized_and_positive(self):
        w = index_weights(20)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)

    def test_weights_match_the_normal_cdf(self):
        # The weights are differences of nearby cdf values, so a rounding
        # difference in the cdf moves a small weight by many of its own ulps;
        # what is bounded is the absolute difference, by one ulp of 1.0, the
        # scale of the cdf values.
        cdf = statistics.NormalDist(P_MEAN, P_STD).cdf
        for n in [2, 3, 11, 21, 41, 81, 161, 321, 641, 1281]:
            ref = np.diff([cdf(math.log(t)) for t in timesteps(n)])
            ref /= ref.sum()
            w = index_weights(n)
            assert np.all(w > 0)
            assert np.max(np.abs(w - ref)) <= np.spacing(1.0), n

    def test_cached_weights_leave_draws_unchanged(self):
        n = 41
        direct = substream(2, "t")
        expected = [int(direct.choice(n - 1, p=index_weights(n))) + 1 for _ in range(200)]
        rng = substream(2, "t")
        assert [sample_index(n, rng) for _ in range(200)] == expected

    def test_two_levels_always_one(self):
        rng = substream(0, "t")
        assert all(sample_index(2, rng) == 1 for _ in range(50))

    @pytest.mark.parametrize("n", [2, 11, 21, 81, 1281])
    def test_batched_draws_are_the_per_sample_stream(self, n):
        one, batched = substream(3, "t"), substream(3, "t")
        expected = [sample_index(n, one) for _ in range(16)]
        got = sample_index(n, batched, size=16)
        assert got.dtype.kind == "i" and got.tolist() == expected
        # the stream goes on alike: the noise drawn after the indices matches
        assert one.standard_normal(4).tobytes() == batched.standard_normal(4).tobytes()

    def test_empirical_law_matches_weights(self):
        n = 20
        w = index_weights(n)
        rng = substream(1, "t")
        draws = rng.choice(n - 1, size=1_000_000, p=w) + 1
        counts = np.bincount(draws, minlength=n)[1:]
        total = counts.sum()
        for i in range(n - 1):
            sigma = math.sqrt(total * w[i] * (1 - w[i]))
            assert abs(counts[i] - total * w[i]) < 3 * sigma + 1


class TestPseudoHuber:
    def test_zero_at_equality(self):
        x = np.arange(5.0)
        assert pseudo_huber(x, x, c=0.3) == 0.0

    def test_three_four_five(self):
        x = np.array([3.0, 0.0])
        y = np.zeros(2)
        assert pseudo_huber(x, y, c=4.0) == pytest.approx(1.0, abs=1e-14)

    def test_asymptotically_l1(self):
        x = np.array([1000.0])
        d = pseudo_huber(x, np.zeros(1), c=0.1)
        assert 1000.0 - 0.1 <= d <= 1000.0

    @settings(max_examples=40, deadline=None)
    @given(
        vals=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        c=st.floats(1e-3, 10.0),
    )
    def test_bounds_property(self, vals, c):
        x = np.array(vals)
        y = np.zeros_like(x)
        d = pseudo_huber(x, y, c)
        norm = np.linalg.norm(x)
        assert 0.0 <= d <= norm + 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        g = pseudo_huber_grad(x, y, 0.2)
        for j in range(6):
            e = np.zeros(6)
            e[j] = 1e-7
            fd = (pseudo_huber(x + e, y, 0.2) - pseudo_huber(x - e, y, 0.2)) / 2e-7
            assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-9)


class TestSkipOut:
    def test_boundary_exact(self):
        c_skip, c_out = skip_out_coeffs(0.002)
        assert c_skip == 1.0 and c_out == 0.0

    def test_large_t_limit(self):
        c_skip, _ = skip_out_coeffs(1e6)
        assert c_skip == pytest.approx(SIGMA_DATA**2 / 1e12, rel=1e-3)

    def test_c_skip_monotone_decreasing(self):
        ts = np.geomspace(0.002, 80.0, 200)
        vals = [skip_out_coeffs(float(t))[0] for t in ts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_array_form_equals_scalar_formula(self):
        ts = np.concatenate([timesteps(1281), np.random.default_rng(0).uniform(
            T_MIN, T_MAX, 100_000)])
        c_skip, c_out = skip_out_coeffs(ts)
        sd, t_min = SIGMA_DATA, T_MIN
        want_skip = [sd * sd / ((t - t_min) * (t - t_min) + sd * sd) for t in ts.tolist()]
        want_out = [sd * (t - t_min) / math.sqrt(sd * sd + t * t) for t in ts.tolist()]
        assert np.array_equal(c_skip, want_skip) and np.array_equal(c_out, want_out)

    def test_any_t_below_t_min_rejected(self):
        with pytest.raises(ContractError):
            skip_out_coeffs(np.array([1.0, 0.001, 2.0]))


class TestNormalizer:
    def test_round_trip_identity(self):
        norm = RangeNormalizer(np.array([-2.0, 0.5]), np.array([3.0, 1.5]))
        rng = np.random.default_rng(0)
        r = np.stack([rng.uniform(-2, 3, (4, 4)), rng.uniform(0.5, 1.5, (4, 4))])[None]
        back = norm.inverse(norm.forward(r))
        assert np.max(np.abs(back - r)) < 1e-12

    def test_inverse_clamps_out_of_range(self):
        norm = RangeNormalizer(np.array([0.0]), np.array([1.0]))
        out = norm.inverse(np.array([[[-5.0, 5.0]]]))[0]
        assert out[0, 0] == 0.0 and out[0, 1] == 1.0

    def test_n_by_c_batch_round_trip(self):
        """The channel axis is axis 1: an (N, C) batch round-trips, and an
        unbatched (C, *spatial) array is refused."""
        rng = np.random.default_rng(2)
        samples = np.stack([rng.uniform(-2, 3, 5), rng.uniform(10, 11, 5)], axis=1)  # (5, 2)
        norm = RangeNormalizer.fit(samples)
        z = norm.forward(samples)
        assert z.min() >= -1.0 - 1e-12 and z.max() <= 1.0 + 1e-12
        assert np.max(np.abs(norm.inverse(z) - samples)) < 1e-12
        with pytest.raises(ContractError):
            norm.forward(np.zeros((2, 3, 4)))
        with pytest.raises(ContractError):
            norm.forward(np.zeros(2))

    def test_fit_covers_samples(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((10, 2, 3, 3))
        norm = RangeNormalizer.fit(samples)
        z = norm.forward(samples)
        assert z.min() >= -1.0 - 1e-12 and z.max() <= 1.0 + 1e-12

    def test_degenerate_range_rejected(self):
        with pytest.raises(ContractError):
            RangeNormalizer(np.array([1.0]), np.array([1.0]))


def _toy_denoiser(field=(1, 8), cond=(2, 8), hidden=16, seed=0):
    """A denoiser for (C, *grid) fields with (C_cond, *grid) conditioning,
    on the largest corner that fits the grid."""
    hyper = DenoiserHyper(channels=field[0], cond_channels=cond[0],
                          modes=tuple((n + 1) // 2 for n in field[1:]), hidden=hidden)
    return ToyDenoiser.init(hyper, substream(seed, "den/init"))


class TestCtLoss:
    def test_identical_branch_inputs_give_zero_distance_and_gradients(self):
        den = _toy_denoiser()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 1, 8))
        cond = rng.standard_normal((3, 2, 8))
        t = np.full(3, 1.3)
        z = rng.standard_normal(x.shape)
        loss, dist, grads = consistency_pair_loss(den, x, cond, t, t, z)
        assert dist == 0.0 and loss == 0.0
        assert all(np.max(np.abs(g)) == 0.0 for g in grads.values())

    def test_mean_reduction_is_permutation_invariant(self):
        den = _toy_denoiser(seed=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 1, 8))
        cond = rng.standard_normal((5, 2, 8))
        t_lo = np.array([0.1, 0.5, 1.0, 2.0, 5.0])
        t_hi = t_lo * 1.5
        z = rng.standard_normal(x.shape)
        loss1, _, _ = consistency_pair_loss(den, x, cond, t_lo, t_hi, z)
        perm = np.array([3, 1, 4, 0, 2])
        loss2, _, _ = consistency_pair_loss(
            den, x[perm], cond[perm], t_lo[perm], t_hi[perm], z[perm]
        )
        assert loss1 == pytest.approx(loss2, rel=1e-12)

    def test_single_sample_matches_hand_composed_replay(self):
        # replay the per-step loss on a residual target with a frozen RNG
        den = _toy_denoiser(field=(1, 8), cond=(2, 8), seed=2)
        rng_data = np.random.default_rng(3)
        u_t = rng_data.standard_normal((1, 1, 8))
        u_hat = rng_data.standard_normal((1, 1, 8))
        y = rng_data.standard_normal((1, 1, 8))
        norm = RangeNormalizer(np.array([-4.0]), np.array([4.0]))
        cur = CtConfig(steps=100, s0=10, s1=1280)
        k = 0

        r_n = norm.forward(y - u_hat)
        cond = np.concatenate([u_t, u_hat], axis=1)

        loss, _ = ct_loss(den, r_n, cond, k, cur, substream(9, "replay"))

        # hand evaluation with the same stream
        rng = substream(9, "replay")
        n = curriculum_n(k, cur)
        ts = timesteps(n)
        i = sample_index(n, rng)
        t_lo, t_hi = ts[i - 1], ts[i]
        z = rng.standard_normal(r_n.shape)
        f_hi, _ = den.forward_batch(r_n + t_hi * z, np.array([t_hi]), cond)
        f_lo, _ = den.forward_batch(r_n + t_lo * z, np.array([t_lo]), cond)
        expect = loss_weight(t_lo, t_hi) * pseudo_huber(f_hi, f_lo, default_huber_c(8))
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_arbitrary_target_matches_hand_composed_replay(self):
        # ct_loss noises whatever target it is given, here not a residual
        den = _toy_denoiser(field=(1, 8), cond=(2, 8), seed=6)
        rng_data = np.random.default_rng(7)
        u_t = rng_data.standard_normal((1, 1, 8))
        u_hat = rng_data.standard_normal((1, 1, 8))
        y = rng_data.standard_normal((1, 1, 8))
        norm = RangeNormalizer(np.array([-4.0]), np.array([4.0]))
        cur = CtConfig(steps=100, s0=10, s1=1280)
        y_n = norm.forward(y)
        cond = np.concatenate([u_t, u_hat], axis=1)
        loss, _ = ct_loss(den, y_n, cond, 0, cur, substream(2, "replay"))

        rng = substream(2, "replay")
        n = curriculum_n(0, cur)
        ts = timesteps(n)
        i = sample_index(n, rng)
        t_lo, t_hi = ts[i - 1], ts[i]
        z = rng.standard_normal(y_n.shape)
        f_hi, _ = den.forward_batch(y_n + t_hi * z, np.array([t_hi]), cond)
        f_lo, _ = den.forward_batch(y_n + t_lo * z, np.array([t_lo]), cond)
        expect = loss_weight(t_lo, t_hi) * pseudo_huber(f_hi, f_lo, default_huber_c(8))
        assert loss == pytest.approx(expect, rel=1e-12)

    @staticmethod
    def _check_pair_loss_fd(field, cond_shape, seed):
        # the teacher branch is gradient-stopped, so the finite-difference
        # oracle must hold its output fixed while perturbing the student
        den = _toy_denoiser(field=field, cond=cond_shape, hidden=12, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((2,) + field)
        cond = rng.standard_normal((2,) + cond_shape)
        z = rng.standard_normal(x.shape)
        t_lo = np.array([0.4, 1.1])
        t_hi = np.array([0.9, 2.0])
        c = default_huber_c(int(np.prod(field)))
        per_row = (-1,) + (1,) * len(field)
        x_hi = x + t_hi.reshape(per_row) * z
        x_lo = x + t_lo.reshape(per_row) * z
        f_lo_frozen, _ = den.forward_batch(x_lo, t_lo, cond)
        weights = 1.0 / (t_hi - t_lo)

        def loss_of():
            f_hi, _ = den.forward_batch(x_hi, t_hi, cond)
            diff = (f_hi - f_lo_frozen).reshape(2, -1)
            dist = np.sqrt(np.sum(diff * diff, axis=1) + c * c) - c
            return float(np.mean(weights * dist))

        loss, _, grads = consistency_pair_loss(den, x, cond, t_lo, t_hi, z)
        assert loss == pytest.approx(loss_of(), rel=1e-12)
        assert set(grads) == set(den.arrays)
        eps = 1e-6
        for name, p in den.arrays.items():
            d = grads[name] / max(np.linalg.norm(grads[name]), 1e-300)
            p += eps * d
            lp = loss_of()
            p -= 2 * eps * d
            lm = loss_of()
            p += eps * d
            fd = (lp - lm) / (2 * eps)
            an = float(np.sum(grads[name] * d))
            assert abs(fd - an) / max(abs(fd), abs(an), 1e-12) < 1e-5, name

    def test_pair_loss_gradients_match_fd_with_frozen_teacher(self):
        self._check_pair_loss_fd((1, 6), (1, 6), seed=4)

    def test_pair_loss_gradients_match_fd_on_a_2d_grid(self):
        # every array of the corner and pointwise paths, on a non-square
        # grid with two field channels
        self._check_pair_loss_fd((2, 6, 5), (3, 6, 5), seed=7)


class TestCornerDenoiser:
    """One set of weights on every grid the corner modes fit."""

    @staticmethod
    def _band_limited(rng, shape, n_fine):
        """A random field on ``shape`` with no Nyquist content, and the same
        function sampled on an n_fine x n_fine grid by spectral padding."""
        n = shape[-1]
        xh = np.fft.rfft2(rng.standard_normal(shape))
        xh[..., n // 2, :] = 0.0
        xh[..., n // 2] = 0.0
        fine = np.zeros(shape[:-2] + (n_fine, n_fine // 2 + 1), dtype=complex)
        fine[..., : n // 2, : n // 2 + 1] = xh[..., : n // 2, :]
        fine[..., n_fine - n // 2 + 1:, : n // 2 + 1] = xh[..., n // 2 + 1:, :]
        scale = (n_fine / n) ** 2
        return np.fft.irfft2(xh, s=(n, n)), np.fft.irfft2(fine, s=(n_fine, n_fine)) * scale

    def test_forward_on_a_finer_grid_restricts_to_the_coarse_forward(self):
        hyper = DenoiserHyper(channels=2, cond_channels=4, modes=(8, 8), hidden=32)
        den = ToyDenoiser.init(hyper, substream(0, "den/res"))
        rng = np.random.default_rng(11)
        x32, x64 = self._band_limited(rng, (3, 2, 32, 32), 64)
        c32, c64 = self._band_limited(rng, (3, 4, 32, 32), 64)
        assert np.max(np.abs(x64[..., ::2, ::2] - x32)) < 1e-12 * np.max(np.abs(x32))
        t = np.array([0.05, 1.7, 60.0])
        coarse, _ = den.forward_batch(x32, t, c32)
        fine, _ = den.forward_batch(x64, t, c64)
        assert np.max(np.abs(fine[..., ::2, ::2] - coarse)) < 1e-12 * np.max(np.abs(coarse))

    def test_weights_do_not_depend_on_the_grid(self):
        hyper = DenoiserHyper(channels=2, cond_channels=4, modes=(8, 8))
        den = ToyDenoiser.init(hyper, substream(0, "den/size"))
        # the benchmark's corrector, a quarter of the dense network's 1.07 M:
        # 120 corner modes of 6 channels in (re, im) pairs, 16 embedding
        # features, hidden 128, and the pointwise path's 12 + 64 + 4
        in_dim, out_dim = 2 * 120 * 6 + 16, 2 * 120 * 2
        mlp = 128 * in_dim + 128 + 128 * 128 + 128 + out_dim * 128 + out_dim
        assert sum(a.size for a in den.arrays.values()) == mlp + 80 == 265_008
        for n in (15, 32, 64):
            f, _ = den.forward_batch(np.zeros((1, 2, n, n)), np.ones(1), np.zeros((1, 4, n, n)))
            assert f.shape == (1, 2, n, n)
        with pytest.raises(ContractError, match="do not fit"):
            den.forward_batch(np.zeros((1, 2, 14, 14)), np.ones(1), np.zeros((1, 4, 14, 14)))


class TestTrainCt:
    def test_one_step_replays_the_ct_train_stream(self):
        den = _toy_denoiser(field=(1, 8), cond=(2, 8), seed=8)
        data = np.random.default_rng(9)
        x = data.standard_normal((5, 1, 8))
        cond = data.standard_normal((5, 2, 8))
        cfg = CtConfig(steps=1, batch=3, lr=1e-3, seed=4)
        before = den.copy()
        trained, curve = train_ct(den, x, cond, cfg)

        # batch indices, then per-sample time pairs, then the shared noise
        rng = substream(4, "ct/train")
        idx = rng.integers(0, 5, size=3)
        n = curriculum_n(0, cfg)
        ts = timesteps(n)
        i = np.array([sample_index(n, rng) for _ in range(3)])
        z = rng.standard_normal((3, 1, 8))
        loss, _, grads = consistency_pair_loss(den, x[idx], cond[idx], ts[i - 1], ts[i], z)
        expect = den.copy()
        Adam(expect.arrays, lr=1e-3).step(grads)

        assert curve == [(0, loss, 1e-3)]
        for name, arr in expect.arrays.items():
            assert np.array_equal(trained.arrays[name], arr)
            assert np.array_equal(den.arrays[name], before.arrays[name])  # input untouched


class TestSampling:
    _COND = np.linspace(-1.0, 1.0, 16).reshape(1, 2, 8)  # one (u_t, u_hat) pair

    def test_default_time_points(self):
        assert DEFAULT_TIME_POINTS == (80.0, 24.4, 5.84, 0.9, 0.661)

    def test_injection_scale_at_0p9(self):
        assert noise_injection_scale(0.9) == pytest.approx(0.8999977777750343, rel=1e-12)

    def test_single_time_point_is_one_evaluation(self):
        den = _toy_denoiser()
        calls = []
        orig = den.forward_batch

        def counting(x, t, cond, **kw):
            calls.append(float(t[0]))
            return orig(x, t, cond, **kw)

        den.forward_batch = counting
        bundle = DenoiserBundle(den, RangeNormalizer(np.array([-1.0]), np.array([1.0])))
        bundle = replace(bundle, time_points=(80.0,))
        sample_multistep(bundle, self._COND, [substream(0, "s")])
        assert calls == [80.0]

    def test_ascending_time_points_rejected(self):
        den = _toy_denoiser()
        bundle = DenoiserBundle(den, RangeNormalizer(np.array([-1.0]), np.array([1.0])))
        for tps in ((80.0, 90.0), (40.0, 10.0)):
            with pytest.raises(ContractError):
                sample_multistep(replace(bundle, time_points=tps), self._COND,
                                 [substream(0, "s")])

    def test_fixed_rng_reproducible(self):
        den = _toy_denoiser()
        bundle = DenoiserBundle(den, RangeNormalizer(np.array([-1.0]), np.array([1.0])))
        a = sample_multistep(bundle, self._COND, [substream(5, "s")])
        b = sample_multistep(bundle, self._COND, [substream(5, "s")])
        assert np.array_equal(a, b)

    def test_huber_default_constant(self):
        assert default_huber_c(4) == pytest.approx(0.00054 * 2.0, rel=1e-12)


class _ZeroDenoiser(ToyDenoiser):
    def forward_batch(self, x, t, cond, **kw):
        return np.zeros_like(x), {}


class TestEnsemble:
    def _field(self, seed=0):
        return np.random.default_rng(seed).standard_normal((1, 8))

    def test_zero_residual_denoiser_is_deterministic(self):
        # f == 0 with a symmetric range denormalizes to a zero residual
        from specproj.rng import substream as ss
        from specproj.surrogate import FnoHyper, init_params

        hyper = DenoiserHyper(channels=1, cond_channels=2, modes=(4,))
        den = _ZeroDenoiser(hyper, {})
        bundle = DenoiserBundle(den, RangeNormalizer(np.array([-1.0]), np.array([1.0])))
        fhyper = FnoHyper(n_layers=1, modes=(3,), width=4, in_channels=1, out_channels=1)
        pcno = init_params(fhyper, (8,), ss(0, "m"))
        from specproj.consistency import diffpcno_step
        from specproj.surrogate import fno_forward_batch

        u0 = self._field()
        out = diffpcno_step(pcno, bundle, u0[None], [ss(3, "r")])[0]
        det = fno_forward_batch(pcno, u0[None])[0][0]
        assert np.array_equal(out, det)

        step_fn = lambda ws, rngs: diffpcno_step(pcno, bundle, ws, rngs)
        mean, std = uncertainty_ensemble(step_fn, u0, steps=2, n_traj=5, seed=1)
        assert np.all(std == 0.0)

    def test_injected_gaussian_std_within_chi_bound(self):
        sigma = 0.7
        n_traj = 60

        def step_fn(ws, rngs):
            return np.stack([w + rng.normal(0.0, sigma, w.shape) for w, rng in zip(ws, rngs)])

        u0 = self._field(1)
        mean, std = uncertainty_ensemble(step_fn, u0, steps=1, n_traj=n_traj, seed=2)
        bound = 3 * sigma / math.sqrt(2 * (n_traj - 1))
        assert abs(float(std.mean()) - sigma) < bound

    def test_deterministic_mean_equals_rollout(self):
        def step_fn(ws, rngs):
            return 0.5 * ws + 0.1

        u0 = self._field(2)
        mean, std = uncertainty_ensemble(step_fn, u0, steps=3, n_traj=4, seed=3)
        direct = np.concatenate(list(rollout(step_fn, u0[None], 3, [substream(0, "x")])))
        assert np.array_equal(mean, direct)
        assert np.all(std == 0.0)

    def test_n_traj_bound(self):
        with pytest.raises(ContractError):
            uncertainty_ensemble(lambda ws, rngs: ws, self._field(), 1, n_traj=1)


def _trained_diffpcno(t_in, n=8, seed=0):
    """A frozen random pcno on t_in frames of one channel, a corrector
    briefly trained on a Gaussian residual around it, and an input window."""
    fh = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=t_in, out_channels=1)
    pcno = init_params(fh, (n, n), substream(seed, "toy/pcno"))
    rng = substream(seed, "toy/data")
    u_t = rng.standard_normal((32, t_in, n, n))
    u_hat, _ = fno_forward_batch(pcno, u_t)
    res = rng.normal(0.5, 0.2, size=u_hat.shape)
    norm = RangeNormalizer.fit(res)
    hyper = DenoiserHyper(channels=1, cond_channels=t_in + 1, modes=(4, 4), hidden=32)
    den, _ = train_ct(ToyDenoiser.init(hyper, substream(seed, "toy/den")), norm.forward(res),
                      np.concatenate([u_t, u_hat], axis=1), CtConfig(steps=40, batch=16))
    return pcno, DenoiserBundle(den, norm), rng.standard_normal((t_in, n, n))


class TestBatchedEnsemble:
    """``uncertainty_ensemble`` steps every member at once; each member still
    draws from its own ``ensemble/j`` sub-stream."""

    @pytest.mark.parametrize("t_in", [1, 2])
    def test_matches_serial_members(self, t_in):
        pcno, bundle, window = _trained_diffpcno(t_in)
        step = lambda ws, rngs: diffpcno_step(pcno, bundle, ws, rngs)
        n_traj, steps, seed = 8, 3, 4
        mean, std = uncertainty_ensemble(step, window, steps, n_traj=n_traj, seed=seed)
        # the reference: one batch-1 rollout per member, reduced over all of them
        acc = np.stack([np.concatenate(list(rollout(
            step, window[None], steps, [substream(seed, f"ensemble/{j}")])))
            for j in range(n_traj)])
        for got, ref in ((mean, acc.mean(axis=0)), (std, acc.std(axis=0, ddof=1))):
            assert got.shape == (steps, 1, 8, 8)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert std.min() > 0.0

        zero = DenoiserBundle(_ZeroDenoiser(bundle.denoiser.hyper, {}),
                              RangeNormalizer(np.array([-1.0]), np.array([1.0])))
        zstep = lambda ws, rngs: diffpcno_step(pcno, zero, ws, rngs)
        zmean, zstd = uncertainty_ensemble(zstep, window, steps, n_traj=n_traj, seed=seed)
        assert np.all(zstd == 0.0)
        det = np.concatenate(list(rollout(surrogate_step(pcno), window[None], steps)))
        assert np.array_equal(zmean, det)

    def test_memory_grows_with_steps_by_the_outputs_alone(self):
        # on 32 x 32 the outputs outweigh the garbage that numpy's FFTs leave
        # for the cycle collector, a few hundred bytes a step
        pcno, bundle, window = _trained_diffpcno(1, n=32)
        step = lambda ws, rngs: diffpcno_step(pcno, bundle, ws, rngs)
        uncertainty_ensemble(step, window, 2, n_traj=8)  # fill the caches first
        peak = {}
        for steps in (2, 16):
            tracemalloc.start()
            try:
                uncertainty_ensemble(step, window, steps, n_traj=8)
                peak[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        outputs = 2 * 14 * window.size * 8  # mean and std of 14 more steps, float64
        assert peak[16] - peak[2] <= 1.1 * outputs


class TestScheduleEdges:
    def test_weights_at_max_discretization(self):
        w = index_weights(1281)
        assert w.shape == (1280,)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)
