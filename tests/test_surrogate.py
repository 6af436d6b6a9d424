"""Surrogate algebra, loss convention, training behavior, serialization,
and autoregressive rollout."""

import numpy as np
import pytest

from specproj.errors import ContractError
from specproj.metrics import divergence_loss
from specproj.projection import compose_forward
from specproj.rng import substream
from specproj.surrogate import (
    FnoHyper,
    TrainConfig,
    fno_forward_batch,
    init_params,
    load_model,
    loss_relative_mse,
    markov_pairs,
    rollout,
    save_model,
    surrogate_step,
    train,
)

from raw_trunk import raw_trunk


def _hyper_1d(**kw):
    base = dict(n_layers=1, modes=(4,), width=6, in_channels=1, out_channels=1)
    base.update(kw)
    return FnoHyper(**base)


def _params_1d(seed=0, **kw):
    hyper = _hyper_1d(**kw)
    return init_params(hyper, (16,), substream(seed, "test/init"))


def _rollout(params, window, steps):
    """A surrogate rollout of one window, frames stacked as (steps, C, *spatial)."""
    return np.concatenate(list(rollout(surrogate_step(params), window[None], steps)))


class TestForward:
    def test_zero_weights_give_constant_head_bias(self):
        params = _params_1d()
        for name, arr in params.arrays.items():
            arr[...] = 0.0
        params.arrays["head2_b"][...] = 1.75
        x = np.random.default_rng(0).standard_normal((1, 1, 16))
        out, _ = fno_forward_batch(params, x)
        assert np.max(np.abs(out - 1.75)) < 1e-14

    def test_identity_layer_reduces_to_lift_head_composition(self):
        params = _params_1d(activation="identity")
        a = params.arrays
        a["spectral_0"][...] = 0.0
        a["pw_w_0"][...] = np.eye(6)
        a["pw_b_0"][...] = 0.0
        x = np.random.default_rng(1).standard_normal((1, 16))
        out = fno_forward_batch(params, x[None])[0][0]
        # hand-composed affine chain: head2 @ (head1 @ (lift @ x + bl) + b1) + b2
        v = a["lift_w"] @ x + a["lift_b"][:, None]
        v = a["head1_w"] @ v + a["head1_b"][:, None]
        v = a["head2_w"] @ v + a["head2_b"][:, None]
        assert np.max(np.abs(out - v)) < 1e-12

    def test_shift_equivariance(self):
        params = _params_1d(seed=3)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 16))
        shifted = np.roll(x, 5, axis=2)
        lhs, _ = fno_forward_batch(params, shifted)
        rhs = np.roll(fno_forward_batch(params, x)[0], 5, axis=2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_conditioning_channels_enter_lift(self):
        params = _params_1d(cond_dim=2)
        x = np.ones((1, 1, 16))
        a, _ = fno_forward_batch(params, x, cond=np.array([0.1, 0.9]))
        b, _ = fno_forward_batch(params, x, cond=np.array([0.2, 0.9]))
        assert np.max(np.abs(a - b)) > 0
        with pytest.raises(ContractError):
            fno_forward_batch(params, x)  # missing conditioning

    def test_shape_mismatch_rejected(self):
        params = _params_1d()
        with pytest.raises(ContractError):
            fno_forward_batch(params, np.zeros((1, 2, 16)))

    def test_modes_the_grid_cannot_hold_rejected_at_init(self):
        # the hyperparameters fix the shapes, but a grid must still hold the modes
        for kw in ({"modes": (9,)}, {"selector": "mass", "wspe_modes": (9,)}):
            with pytest.raises(ContractError, match="do not fit"):
                _params_1d(**kw)


def _array_bytes(obj) -> int:
    """The bytes of the arrays in a tape or a cache, nested dicts and lists
    included (the cached mode grids are shared, not counted)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v) for v in obj)
    return 0


class TestTape:
    @pytest.mark.parametrize("padding", [(), (3, 2)])
    def test_tape_keeps_each_layers_pre_and_corner_modes_and_nothing_of_the_head(self, padding):
        hyper = FnoHyper(n_layers=3, modes=(4, 4), width=8, in_channels=2, out_channels=2,
                         fno_padding=padding, selector="both", wspe_modes=(4, 4),
                         momentum_padding=(0, 0))
        params = init_params(hyper, (16, 16), substream(0, "test/tape"))
        x = np.random.default_rng(0).standard_normal((4, 2, 16, 16))
        _, tape = fno_forward_batch(params, x)
        assert set(tape) == {"x", "cond", "modes", "layers", "proj"}
        assert tape["x"] is x and tape["cond"] is None
        layer = (4, 8) + tuple(n + p for n, p in zip((16, 16), padding or (0, 0)))
        corner = tape["modes"].gather(np.zeros(layer)).shape
        assert [sorted(r) for r in tape["layers"]] == [["pre", "vm"]] * 3
        for r in tape["layers"]:
            assert r["pre"].shape == layer and r["vm"].shape == corner
        one_layer = np.zeros(layer).nbytes + np.zeros(corner, complex).nbytes
        assert _array_bytes(tape) <= 3 * one_layer + x.nbytes + _array_bytes(tape["proj"])


class TestPcnoForward:
    def _params_2d(self, selector, seed=0, modes=(3, 3), **kw):
        hyper = FnoHyper(
            n_layers=1, modes=modes, width=5, in_channels=2, out_channels=2,
            selector=selector,
            momentum_padding=(0, 0) if selector in ("momentum", "both") else None, **kw,
        )
        return init_params(hyper, (8, 8), substream(seed, "t"))

    def test_mass_projection_for_any_weights(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            params = self._params_2d("mass", seed=seed)
            out, _ = fno_forward_batch(params, rng.standard_normal((1, 2, 8, 8)))
            assert divergence_loss(out[0]) < 1e-10

    def test_both_with_unit_kernel_doubles_mass_fluctuation(self):
        # on an odd grid the largest corner set, modes 4 on 7, covers every mode
        params = self._params_2d("both", seed=2, modes=(4, 4))
        params.arrays["momentum_free"][...] = 1.0  # unit kernel
        x = np.random.default_rng(3).standard_normal((1, 2, 7, 7))
        both, _ = fno_forward_batch(params, x)
        mass, _ = compose_forward(fno_forward_batch(raw_trunk(params), x)[0], "mass")
        assert np.max(np.abs(both - (2 * mass - mass.mean(axis=(2, 3), keepdims=True)))) < 1e-10

    def test_both_divergence_free_and_sums_kept_for_any_weights(self):
        # the mass stage runs last, so the momentum kernel cannot undo it
        rng = np.random.default_rng(4)
        for seed in range(3):
            params = self._params_2d("both", seed=seed, wspe_modes=(3, 3))
            for name in ("momentum_free", "w_spe"):
                shape = params.arrays[name].shape
                params.arrays[name] += rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = rng.standard_normal((2, 2, 8, 8))
            out, _ = fno_forward_batch(params, x)
            raw, _ = fno_forward_batch(raw_trunk(params), x)
            for o in out:
                assert divergence_loss(o) < 1e-10
            np.testing.assert_allclose(out.sum(axis=(2, 3)), raw.sum(axis=(2, 3)), rtol=1e-12)


class TestLoss:
    def test_equal_gives_zero(self):
        y = np.random.default_rng(0).standard_normal((3, 2, 8))
        assert loss_relative_mse(y, y) == 0.0

    def test_zero_prediction_gives_one(self):
        y = np.random.default_rng(1).standard_normal((3, 2, 8))
        assert loss_relative_mse(np.zeros_like(y), y) == pytest.approx(1.0, abs=1e-12)

    def test_double_target_gives_one(self):
        y = np.random.default_rng(2).standard_normal((4, 1, 16))
        assert loss_relative_mse(2 * y, y) == pytest.approx(1.0, abs=1e-12)


class TestTraining:
    def _identity_data(self, n_samples=32, n=16, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_samples, 1, n))
        return x, x.copy()

    def test_learns_identity_map(self):
        inputs, targets = self._identity_data()
        params = _params_1d(seed=1, width=16)
        cfg = TrainConfig(epochs=200, batch=32, lr=2e-2, weight_decay=0.0, seed=0)
        trained, curve = train(params, inputs, targets, cfg)
        assert len(curve) == 200
        assert curve[-1][1] < 1e-4

    def test_zero_epochs_returns_params_bit_exact(self):
        inputs, targets = self._identity_data(8)
        params = _params_1d(seed=2)
        trained, curve = train(params, inputs, targets,
                               TrainConfig(epochs=0, seed=0))
        assert curve == []
        for name in params.arrays:
            assert np.array_equal(trained.arrays[name], params.arrays[name])

    def test_seed_determinism(self):
        inputs, targets = self._identity_data(16, seed=3)
        cfg = TrainConfig(epochs=3, batch=4, seed=11)
        r1 = train(_params_1d(seed=4), inputs, targets, cfg)
        r2 = train(_params_1d(seed=4), inputs, targets, cfg)
        assert r1[1] == r2[1]
        for name in r1[0].arrays:
            assert np.array_equal(r1[0].arrays[name], r2[0].arrays[name])

    def test_markov_pairs_windowing(self):
        traj = np.arange(5 * 2 * 3, dtype=float).reshape(5, 2, 3)
        x, y = markov_pairs([traj], t_in=2)
        assert x.shape == (3, 4, 3) and y.shape == (3, 2, 3)
        assert np.array_equal(x[0], traj[0:2].reshape(4, 3))
        assert np.array_equal(y[0], traj[2])


class TestRollout:
    def test_single_step_equals_forward(self):
        params = _params_1d(seed=5)
        u0 = np.random.default_rng(4).standard_normal((1, 16))
        frames = _rollout(params, u0, steps=1)
        direct, _ = fno_forward_batch(params, u0[None])
        assert np.array_equal(frames[0], direct[0])

    def test_identity_trained_rollout_stays_near_initial(self):
        rng = np.random.default_rng(6)
        inputs = rng.standard_normal((32, 1, 16))
        params = _params_1d(seed=7, width=16)
        cfg = TrainConfig(epochs=200, batch=32, lr=2e-2, weight_decay=0.0, seed=1)
        trained, curve = train(params, inputs, inputs.copy(), cfg)
        u0 = rng.standard_normal((1, 16))
        frames = _rollout(trained, u0, steps=5)
        for f in frames:
            rel = np.linalg.norm(f - u0) / np.linalg.norm(u0)
            assert rel < 0.15

    def test_mass_selector_keeps_frames_divergence_free(self):
        hyper = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=2,
                         out_channels=2, selector="mass")
        params = init_params(hyper, (8, 8), substream(9, "t"))
        u0 = np.random.default_rng(8).standard_normal((2, 8, 8))
        for f in _rollout(params, u0, steps=4):
            assert divergence_loss(f) < 1e-10

    def test_zero_steps_rejected_at_the_call(self):
        params = _params_1d()
        with pytest.raises(ContractError):
            rollout(surrogate_step(params), np.zeros((1, 1, 16)), 0)

    def test_multi_frame_window(self):
        params = _params_1d(seed=10, in_channels=3)
        u0 = np.random.default_rng(9).standard_normal((3, 16))
        frames = _rollout(params, u0, steps=3)
        assert frames.shape == (3, 1, 16)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        hyper = FnoHyper(
            n_layers=2, modes=(3, 3), width=5, in_channels=2, out_channels=2,
            cond_dim=1, selector="both", wspe_modes=(2, 2),
            momentum_padding=(2, 2),
        )
        params = init_params(hyper, (8, 8), substream(1, "s"))
        params.arrays["momentum_free"] += 0.1 + 0.2j
        path = tmp_path / "model.mdl"
        save_model(path, params)
        loaded, header = load_model(path)
        assert loaded.hyper == params.hyper
        for name in params.arrays:
            assert np.array_equal(loaded.arrays[name], params.arrays[name])
        save_model(tmp_path / "again.mdl", loaded)
        assert (tmp_path / "again.mdl").read_bytes() == path.read_bytes()

    def test_older_file_with_mass_mode_line_loads_and_rolls_out(self, tmp_path):
        # files written before the grid fixed the mass projection carry a
        # `mass_mode` header line, which loading ignores
        hyper = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=2,
                         out_channels=2, selector="mass")
        params = init_params(hyper, (8, 8), substream(3, "s"))
        path = tmp_path / "new.mdl"
        save_model(path, params)
        old = tmp_path / "old.mdl"
        old.write_bytes(path.read_bytes().replace(
            b"selector = mass\n", b"selector = mass\nmass_mode = spatial2d\n", 1))
        loaded, header = load_model(old)
        assert header["mass_mode"] == "spatial2d"
        assert loaded.hyper == params.hyper
        u0 = np.random.default_rng(4).standard_normal((2, 8, 8))
        got = _rollout(loaded, u0, steps=2)
        want = _rollout(params, u0, steps=2)
        assert np.array_equal(got, want)
        for a in got:
            assert divergence_loss(a) < 1e-10

    def test_parameter_count_pure_function_of_hyper(self):
        p1 = _params_1d(seed=1)
        p2 = _params_1d(seed=2)
        assert {k: v.shape for k, v in p1.arrays.items()} == {
            k: v.shape for k, v in p2.arrays.items()
        }

    def test_one_shot_3d_with_time_padding(self):
        # spatiotemporal surrogate: 3 flux channels, temporal padding 6

        hyper = FnoHyper(
            n_layers=1, modes=(3, 3, 3), width=4, in_channels=3, out_channels=3,
            fno_padding=(6, 0, 0), selector="mass",
        )
        params = init_params(hyper, (8, 8, 8), substream(2, "t"))
        u = np.random.default_rng(0).standard_normal((3, 8, 8, 8))
        out, _ = fno_forward_batch(params, u[None])
        assert out.shape == (1, 3, 8, 8, 8)
        assert divergence_loss(out[0]) < 1e-10


class TestOneShot:
    def test_one_shot_training_on_spatiotemporal_fields(self):
        """Whole-grid 3D training: flux trajectories in, flux trajectories
        out, mass projection across (t, x, y)."""

        # whole-grid pairs: the initial frame broadcast along t maps to the
        # (C, T, x, y) trajectory
        y = np.random.default_rng(0).standard_normal((4, 3, 6, 8, 8))
        x = np.broadcast_to(y[:, :, :1], y.shape).copy()

        hyper = FnoHyper(n_layers=1, modes=(2, 3, 3), width=4, in_channels=3,
                         out_channels=3, fno_padding=(6, 0, 0),
                         selector="mass")
        params = init_params(hyper, (6, 8, 8), substream(11, "t"))
        cfg = TrainConfig(epochs=2, batch=2, lr=1e-3, seed=0)
        trained, curve = train(params, x, y, cfg)
        assert len(curve) == 4
        out, _ = fno_forward_batch(trained, x[:1])
        assert divergence_loss(out[0]) < 1e-10
