"""Reference solvers: analytic decay/dispersion oracles, conservation
bookkeeping, convergence order, and dataset determinism."""

import dataclasses
import hashlib

import full_layout
import numpy as np
import pytest

from specproj import fldio, spectral
from specproj.errors import ContractError, NumericsError
from specproj.metrics import divergence_loss
from specproj.rng import substream
from specproj.runconfig import boolean
from specproj.solvers import (
    KolmogorovConfig,
    KseConfig,
    KseIntegrator,
    SweConfig,
    gaussian_random_vorticity,
    generate_dataset,
    load_dataset,
    read_manifest,
    solve_kolmogorov,
    solve_kse,
    solve_swe_flood,
    tilted_dem,
)
from specproj.solvers import datasets
from specproj.solvers.kolmogorov import FORCING_AMPLITUDE, velocity_from_vorticity_hat
from specproj.solvers.kse import initial_condition, sample_config
from specproj.solvers.swe import CFL_TARGET, MAX_DT


def vorticity_to_velocity(w):
    """The (2, n, n) velocity with curl ``w`` and zero divergence, from a
    square (n, n) vorticity (its zero mode is gauge)."""
    return np.stack(velocity_from_vorticity_hat(np.fft.rfft2(w), w.shape[0]))


def full_spectrum_kolmogorov(cfg, w0, forcing, frames):
    """The Kolmogorov scheme on the full complex spectrum, 4 ifft2 and 1 fft2
    per substep: an oracle for the half-spectrum solver."""
    n = cfg.n
    kx, ky = full_layout.wavenumber_mesh((n, n), zero_nyquist=True)
    inv_k2 = full_layout.inverse_k_squared((n, n))
    k2 = full_layout.k_squared((n, n))
    dealias = full_layout.dealias_mask((n, n))
    xx, yy = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
    phase = 2.0 * np.pi * (xx + yy)
    fhat = np.fft.fft2(FORCING_AMPLITUDE * (np.sin(phase) + np.cos(phase))) if forcing else 0.0
    cn_minus = 1.0 - 0.5 * cfg.dt * cfg.nu * k2
    cn_plus = 1.0 / (1.0 + 0.5 * cfg.dt * cfg.nu * k2)

    def real_ifft2(a):
        return np.real(np.fft.ifft2(a))

    def velocity(what):
        psi_hat = what * inv_k2
        return real_ifft2(1j * ky * psi_hat), real_ifft2(-1j * kx * psi_hat)

    what, adv_prev, w_frames, u_frames = np.fft.fft2(w0), None, [], []
    for i in range(frames):
        for _ in range(cfg.frame_interval if i else 0):
            ux, uy = velocity(what)
            wx, wy = real_ifft2(1j * kx * what), real_ifft2(1j * ky * what)
            adv = -(np.fft.fft2(ux * wx + uy * wy) * dealias)
            expl = adv if adv_prev is None else 1.5 * adv - 0.5 * adv_prev
            what = cn_plus * (cn_minus * what + cfg.dt * (expl + fhat))
            adv_prev = adv
        w_frames.append(real_ifft2(what))
        u_frames.append(np.stack(velocity(what)))
    return np.stack(w_frames)[None], np.stack(u_frames, axis=1)


def reference_kse(cfg, u0, nonlinear=True):
    """The ETDRK2 scheme for one trajectory with fresh temporaries every
    step, the nonlinear multiplier formed on every call and the dealias mask
    applied to the transform: an oracle for the batched in-place solver,
    which must match it byte for byte."""
    k = spectral.wavenumbers(cfg.n, cfg.length, half=True)
    ik = 1j * spectral.wavenumbers(cfg.n, cfg.length, zero_nyquist=True, half=True)
    lin = k**2 - cfg.nu * k**4
    h = cfg.dt / cfg.substeps
    roots = np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
    zr = (h * lin)[:, None] + roots[None, :]
    f1 = h * np.real(((np.exp(zr) - 1.0) / zr).mean(axis=1))
    f2 = h * np.real(((np.exp(zr) - 1.0 - zr) / (zr * zr)).mean(axis=1))
    exp_h = np.exp(h * lin)
    dealias = spectral.dealias_mask((cfg.n,))

    def nonlinear_term(uhat):
        if not nonlinear:
            return np.zeros_like(uhat)
        u = np.fft.irfft(uhat, n=cfg.n)
        return -0.5 * ik * (np.fft.rfft(u * u) * dealias)

    uhat, frames = np.fft.rfft(u0), []
    for rec in range(cfg.warmup + cfg.steps):
        for _ in range(cfg.substeps):
            n0 = nonlinear_term(uhat)
            a = exp_h * uhat + f1 * n0
            uhat = a + f2 * (nonlinear_term(a) - n0)
        if rec >= cfg.warmup:
            frames.append(np.fft.irfft(uhat, n=cfg.n))
    return np.stack(frames)[None]


def kse_rows(count, seed, vary_nu, **shared):
    """``count`` configs and initial conditions drawn the way ``generate``
    draws them: distinct L and dt, and distinct nu when ``vary_nu``."""
    cfgs, u0 = [], []
    for i in range(count):
        rng = substream(seed, f"solver/{i}")
        cfgs.append(sample_config(rng, vary_nu=vary_nu, **shared))
        u0.append(initial_condition(cfgs[-1], rng))
    return cfgs, np.stack(u0)


def solve_one(cfg, u0=None, seed=0, nonlinear=True):
    """One (1, steps, n) KSE trajectory, a batch of one; a missing ``u0`` is
    drawn from ``substream(seed, "kse/init")``."""
    if u0 is None:
        u0 = initial_condition(cfg, substream(seed, "kse/init"))
    return solve_kse([cfg], np.asarray(u0)[None], nonlinear)[0]


def blowup_case():
    """The unstable row of ``test_blowup_detected`` and its initial state."""
    cfg = KseConfig(n=32, length=64.0, dt=5.0, nu=1e-6, warmup=0, steps=50, substeps=1)
    x = np.arange(cfg.n) * (cfg.length / cfg.n)
    return cfg, 10.0 * np.sin(2 * np.pi * x / cfg.length)


class TestKse:
    def test_strong_dissipation_decays_monotonically(self):
        cfg = KseConfig(n=64, length=32.0, dt=0.2, nu=100.0, warmup=0, steps=40, substeps=4)
        traj = solve_one(cfg, seed=1)
        u = traj[0]
        means = u.mean(axis=1)
        energy = ((u - means[:, None]) ** 2).sum(axis=1)
        assert np.all(np.diff(energy) < 0)

    def test_spatial_mean_conserved(self):
        cfg = KseConfig(steps=400, warmup=10)
        traj = solve_one(cfg, seed=2)
        means = traj[0].mean(axis=1)
        assert np.max(np.abs(means - means[0])) < 1e-8

    def test_linear_dispersion_relation(self):
        cfg = KseConfig(n=64, length=32.0, dt=0.2, nu=1.0, warmup=0, steps=6, substeps=4)
        x = np.arange(cfg.n) * (cfg.length / cfg.n)
        u0 = 1e-3 * np.sin(2 * np.pi * x / cfg.length)
        traj = solve_one(cfg, u0, nonlinear=False)
        k1 = 2 * np.pi / cfg.length
        growth = np.exp((k1**2 - cfg.nu * k1**4) * cfg.dt)
        amps = np.max(np.abs(traj[0]), axis=1)
        for i in range(len(amps) - 1):
            assert amps[i + 1] / amps[i] == pytest.approx(growth, rel=1e-6)

    def test_dealiasing_zeroes_top_third(self):
        cfg = KseConfig(n=48, warmup=0, steps=1)
        stepper = KseIntegrator([cfg])
        rng = np.random.default_rng(0)
        uhat = np.fft.rfft(rng.standard_normal((1, cfg.n)))
        nl = stepper.nonlinear_term(uhat)
        assert np.all(nl[:, cfg.n // 3 + 1 :] == 0.0)

    def test_blowup_detected(self):
        cfg, u0 = blowup_case()
        with pytest.raises(NumericsError):
            solve_one(cfg, u0)

    def test_blowup_in_one_row_of_a_batch_names_that_row(self):
        unstable, u0 = blowup_case()
        stable = dataclasses.replace(unstable, dt=0.2, nu=1.0)
        assert np.all(np.isfinite(solve_one(stable, 0.1 * u0)))
        with pytest.raises(NumericsError,
                           match=r"trajectory 1 .*L=64\.000, dt=5\.000, nu=0\.000"):
            solve_kse([stable, unstable], np.stack([0.1 * u0, u0]))

    @pytest.mark.parametrize("field", ["n", "warmup", "steps", "substeps"])
    def test_batch_rows_must_share_grid_and_schedule(self, field):
        base = KseConfig(n=32, warmup=0, steps=2, substeps=1)
        other = dataclasses.replace(base, **{field: getattr(base, field) + 2})
        with pytest.raises(ContractError, match=field):
            solve_kse([base, other], np.zeros((2, base.n)))

    def test_initial_condition_shape_checked_against_the_batch(self):
        cfgs, u0 = kse_rows(2, seed=1, vary_nu=False, n=32, warmup=0, steps=1)
        for bad in (u0[0], u0[:1], u0[:, :16]):
            with pytest.raises(ContractError, match="initial condition"):
                solve_kse(cfgs, bad)

    @pytest.mark.parametrize("rows,vary_nu,shared,nonlinear", [
        pytest.param(1, False, dict(n=64, warmup=3, steps=8, substeps=4), True, id="one_row"),
        pytest.param(3, True, dict(n=48, warmup=2, steps=6, substeps=2), True, id="vary_nu"),
        pytest.param(3, False, dict(n=64, warmup=0, steps=5, substeps=3), False, id="linear"),
        pytest.param(2, True, dict(warmup=2, steps=5), True, id="default_n"),
    ])
    def test_batch_matches_per_trajectory_reference_bytes(self, rows, vary_nu, shared, nonlinear):
        cfgs, u0 = kse_rows(rows, seed=12, vary_nu=vary_nu, **shared)
        assert len({(c.length, c.dt, c.nu) for c in cfgs}) == rows
        got = solve_kse(cfgs, u0, nonlinear=nonlinear)
        assert got.shape == (rows, 1, cfgs[0].steps, cfgs[0].n)
        for cfg, u, g in zip(cfgs, u0, got):
            want = reference_kse(cfg, u, nonlinear)
            assert g.tobytes() == want.tobytes()
            assert solve_one(cfg, u, nonlinear=nonlinear).tobytes() == want.tobytes()

    def test_second_order_in_time(self):
        # error against a quarter-dt reference shrinks ~4x when dt halves
        base = dict(n=64, length=32.0, dt=0.4, nu=1.0, warmup=0, steps=5)
        u0 = initial_condition(KseConfig(substeps=1, **base), substream(5, "kse/init"))
        coarse = solve_one(KseConfig(substeps=1, **base), u0)[0, -1]
        medium = solve_one(KseConfig(substeps=2, **base), u0)[0, -1]
        ref = solve_one(KseConfig(substeps=8, **base), u0)[0, -1]
        e_coarse = np.max(np.abs(coarse - ref))
        e_medium = np.max(np.abs(medium - ref))
        assert e_coarse / e_medium > 3.0

    def test_sampled_config_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = sample_config(rng, vary_nu=True)
            assert 0.9 * 64 <= cfg.length <= 1.1 * 64
            assert 0.18 <= cfg.dt <= 0.22
            assert 0.5 <= cfg.nu <= 1.5


class TestKolmogorov:
    @pytest.mark.parametrize("forcing", [True, False])
    def test_half_spectrum_matches_full_spectrum_oracle(self, forcing):
        cfg = KolmogorovConfig(n=32, dt=1e-3, frame_interval=10)
        w0 = gaussian_random_vorticity(cfg, substream(6, "t"))
        got = [a[0] for a in solve_kolmogorov(cfg, w0=w0[None], forcing=forcing, frames=10)]
        want = full_spectrum_kolmogorov(cfg, w0, forcing, frames=10)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) < 1e-12 * np.max(np.abs(w))
        for i in range(10):
            assert divergence_loss(got[1][:, i]) < 1e-12

    def test_single_mode_analytic_decay(self):
        cfg = KolmogorovConfig(n=64, nu=1e-3, dt=1e-4, frame_interval=1)
        x = np.arange(64) / 64
        xx, yy = np.meshgrid(x, x, indexing="ij")
        w0 = np.sin(2 * np.pi * (xx + yy))
        w_traj, u_traj = (a[0] for a in solve_kolmogorov(cfg, w0=w0[None], forcing=False,
                                                          frames=101))
        lam = 8 * np.pi**2 * cfg.nu
        for i in range(101):
            expect = w0 * np.exp(-lam * i * cfg.dt)
            err = np.max(np.abs(w_traj[0, i] - expect)) / np.max(np.abs(expect))
            assert err < 1e-6

    def test_recovered_velocity_divergence_every_frame(self):
        cfg = KolmogorovConfig(n=32, dt=1e-3, frame_interval=10)
        w0 = gaussian_random_vorticity(cfg, substream(0, "kolmogorov/init"))
        w_traj, u_traj = (a[0] for a in solve_kolmogorov(cfg, w0[None], frames=12))
        for i in range(12):
            assert divergence_loss(u_traj[:, i]) < 1e-10

    def test_forcing_keeps_single_mode_family(self):
        cfg = KolmogorovConfig(n=32, dt=1e-3, frame_interval=10)
        w_traj = solve_kolmogorov(cfg, w0=np.zeros((1, 32, 32)), forcing=True, frames=6)[0][0]
        wh = np.fft.fft2(w_traj[0, -1])
        mask = np.zeros((32, 32), bool)
        mask[1, 1] = mask[-1, -1] = True
        assert np.max(np.abs(wh[~mask])) < 1e-10 * np.max(np.abs(wh[mask]))

    def test_energy_decays_without_forcing(self):
        cfg = KolmogorovConfig(n=32, dt=1e-3, frame_interval=20)
        w0 = gaussian_random_vorticity(cfg, substream(3, "t"))
        u_traj = solve_kolmogorov(cfg, w0=w0[None], forcing=False, frames=10)[1][0]
        ke = (u_traj**2).sum(axis=(0, 2, 3))
        assert np.all(np.diff(ke) <= 0)

    def test_cfl_violation_aborts(self):
        cfg = KolmogorovConfig(n=32, dt=0.5, frame_interval=1, init_scale=50.0)
        w0 = gaussian_random_vorticity(cfg, substream(4, "t"))
        with pytest.raises(NumericsError):
            solve_kolmogorov(cfg, w0=w0[None], frames=3)

    @pytest.mark.parametrize("t_in,t_out", [(0, 0), (1, 0), (0, 1), (-1, 5), (5, -1)])
    def test_fewer_than_two_frames_or_negative_count_rejected(self, t_in, t_out):
        with pytest.raises(ContractError):
            KolmogorovConfig(n=16, t_in=t_in, t_out=t_out)

    @pytest.mark.parametrize("field,value", [
        ("init_tau", 0.0), ("init_tau", np.inf), ("init_scale", -1.0), ("init_scale", np.nan),
        ("init_alpha", np.inf), ("init_alpha", np.nan),
    ])
    def test_initial_field_envelope_values_checked(self, field, value):
        """The CLI refuses nan and inf as it parses a number; the config
        refuses them too, and every value outside the range, naming the
        field and its value."""
        with pytest.raises(ContractError, match=rf"^{field} must be .*, got {value!r}$"):
            KolmogorovConfig(n=16, **{field: value})

    def test_diffusion_second_order(self):
        # nonlinear single-vortex problem integrated at dt, dt/2 vs dt/4 ref
        n = 32
        x = np.arange(n) / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        w0 = np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy) + 0.3 * np.sin(2 * np.pi * yy)
        frames = 3

        def run(dt, interval):
            cfg = KolmogorovConfig(n=n, nu=1e-2, dt=dt, frame_interval=interval)
            w, _ = solve_kolmogorov(cfg, w0=w0[None], forcing=True, frames=frames)
            return w[0, 0, -1]

        coarse = run(4e-3, 25)
        medium = run(2e-3, 50)
        ref = run(5e-4, 200)
        e1 = np.max(np.abs(coarse - ref))
        e2 = np.max(np.abs(medium - ref))
        assert e1 / e2 > 3.0


class TestVorticityToVelocity:
    def test_analytic_streamfunction(self):
        x = np.arange(32) / 32
        u = vorticity_to_velocity(np.broadcast_to(np.sin(2 * np.pi * x)[:, None], (32, 32)))
        expect_uy = -np.cos(2 * np.pi * x) / (2 * np.pi)
        assert np.max(np.abs(u[0])) < 1e-12
        assert np.max(np.abs(u[1] - expect_uy[:, None])) < 1e-12

    def test_zero_vorticity(self):
        u = vorticity_to_velocity(np.zeros((16, 16)))
        assert np.max(np.abs(u)) == 0.0

    def test_curl_recovers_vorticity(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((32, 32))
        # strip the band the real-preserving derivative cannot represent
        wh = np.fft.fft2(w)
        wh[16, :] = 0.0
        wh[:, 16] = 0.0
        w = np.real(np.fft.ifft2(wh))
        u = vorticity_to_velocity(w)
        k = 2 * np.pi * np.fft.fftfreq(32, d=1.0 / 32)
        k[16] = 0.0
        curl = np.real(
            np.fft.ifft2(
                1j * k[:, None] * np.fft.fft2(u[1])
                - 1j * k[None, :] * np.fft.fft2(u[0])
            )
        )
        assert np.max(np.abs(curl - (w - w.mean()))) < 1e-10
        assert divergence_loss(u) < 1e-12


def cbrt_power(h):
    """h^(7/3) in the solver's form."""
    return np.cbrt(h) * h * h


def reference_face_flux(q, h_l, h_r, z_l, z_r, slope, n_mann, dt, seen, power):
    """One face family's local-inertial update, out of place, masks always
    applied; counts the calls that met a dry face in ``seen["dry"]``.
    ``power`` gives the friction term's h^(7/3)."""
    h_flow = np.maximum(h_l + z_l, h_r + z_r) - np.maximum(z_l, z_r)
    wet = h_flow > 1e-6
    seen["dry"] += not wet.all()
    h_flow = np.where(wet, h_flow, 1.0)
    num = q - 9.81 * h_flow * dt * slope
    den = 1.0 + dt * 9.81 * n_mann**2 * np.abs(q) / power(h_flow)
    return np.where(wet, num / den, 0.0)


def reference_swe_flood(cfg, h0, seen, power=cbrt_power):
    """The local-inertial flood scheme with fresh temporaries every step and
    the dry-face masks and positivity limiter always applied: an oracle for
    the in-place solver, which must match it byte for byte with the solver's
    friction power. ``seen`` counts face updates that met a dry face ("dry")
    and steps on which the limiter scaled some flux ("limited")."""
    z = cfg.dem
    ny, nx = z.shape
    dx = cfg.cell_size
    h = np.zeros((ny, nx)) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    qx = np.zeros((ny, nx - 1))
    qy = np.zeros((ny - 1, nx))

    frames = [h.copy()]
    t = recorded = 0.0
    next_record = cfg.record_interval
    while t < cfg.duration - 1e-12:
        if cfg.fixed_dt is not None:
            dt = cfg.fixed_dt
        else:
            c = np.sqrt(9.81 * max(h.max(), 0.0))
            dt = MAX_DT if c == 0.0 else min(CFL_TARGET * dx / c, MAX_DT)
        dt = min(dt, cfg.duration - t, next_record - t)
        assert dt >= 1e-6
        seen["steps"] += 1

        eta = h + z
        slope_x = (eta[:, 1:] - eta[:, :-1]) / dx
        qx = reference_face_flux(qx, h[:, :-1], h[:, 1:], z[:, :-1], z[:, 1:], slope_x,
                                 cfg.manning_n, dt, seen, power)
        slope_y = (eta[1:, :] - eta[:-1, :]) / dx
        qy = reference_face_flux(qy, h[:-1, :], h[1:, :], z[:-1, :], z[1:, :], slope_y,
                                 cfg.manning_n, dt, seen, power)

        out = np.zeros_like(h)
        out[:, :-1] += np.maximum(qx, 0.0)
        out[:, 1:] += np.maximum(-qx, 0.0)
        out[:-1, :] += np.maximum(qy, 0.0)
        out[1:, :] += np.maximum(-qy, 0.0)
        need = out * dt / dx
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(need > 0.0, np.minimum(1.0, h / np.where(need > 0, need, 1.0)), 1.0)
        seen["limited"] += bool((scale < 1.0).any())
        qx = np.where(qx > 0, qx * scale[:, :-1], qx * scale[:, 1:])
        qy = np.where(qy > 0, qy * scale[:-1, :], qy * scale[1:, :])

        div = np.zeros_like(h)
        div[:, :-1] += qx / dx
        div[:, 1:] -= qx / dx
        div[:-1, :] += qy / dx
        div[1:, :] -= qy / dx
        h = h + dt * (cfg.rainfall - cfg.infiltration - div)
        h = np.maximum(h, 0.0)

        t += dt
        if t >= next_record - 1e-12:
            frames.append(h.copy())
            recorded = t
            next_record += cfg.record_interval
    if recorded < cfg.duration - 1e-12 or len(frames) == 1:
        frames.append(h.copy())
    return np.stack(frames)[None]


class TestSwe:
    def test_exact_water_balance_with_rain(self):
        cfg = SweConfig(dem=np.zeros((16, 16)), rainfall=2e-5, duration=900.0,
                        record_interval=300.0, cell_size=10.0)
        traj = solve_swe_flood(cfg)[0]
        vols = traj[0].sum(axis=(1, 2)) * cfg.cell_size**2
        area = 16 * 16 * cfg.cell_size**2
        for frame, t in enumerate((0.0, 300.0, 600.0, 900.0)):
            expect = 2e-5 * t * area
            assert vols[frame] == pytest.approx(expect, rel=1e-10, abs=1e-12)

    def test_still_water_is_stationary(self):
        cfg = SweConfig(dem=np.zeros((12, 12)), duration=600.0, record_interval=200.0)
        traj = solve_swe_flood(cfg, h0=0.37 * np.ones((12, 12)))[0]
        assert np.max(np.abs(traj - 0.37)) == 0.0

    def test_pulse_moves_downslope(self):
        dem = tilted_dem(8, 32, cell=10.0, slope=0.02)
        h0 = np.zeros((8, 32))
        h0[:, 4:8] = 0.5
        cfg = SweConfig(dem=dem, duration=80.0, record_interval=10.0)
        traj = solve_swe_flood(cfg, h0=h0)[0]
        xcoord = np.arange(32)[None, :]
        centers = [
            float((traj[0, i] * xcoord).sum() / traj[0, i].sum())
            for i in range(traj.shape[1])
        ]
        assert all(b > a for a, b in zip(centers, centers[1:]))

    def test_depth_never_negative(self):
        rng = np.random.default_rng(5)
        dem = tilted_dem(12, 12, cell=10.0, slope=0.05) + 0.2 * rng.standard_normal((12, 12))
        h0 = np.where(rng.uniform(size=(12, 12)) > 0.7, 0.3, 0.0)
        cfg = SweConfig(dem=dem, duration=400.0, record_interval=50.0)
        traj = solve_swe_flood(cfg, h0=h0)[0]
        assert np.all(traj >= 0.0)

    def test_first_order_in_time(self):
        dem = tilted_dem(6, 24, cell=10.0, slope=0.01)
        h0 = np.zeros((6, 24))
        h0[:, 3:6] = 0.4

        def run(dt):
            cfg = SweConfig(dem=dem, duration=40.0, record_interval=40.0, fixed_dt=dt)
            return solve_swe_flood(cfg, h0=h0)[0][0, -1]

        e1 = np.max(np.abs(run(0.8) - run(0.1)))
        e2 = np.max(np.abs(run(0.4) - run(0.1)))
        assert e1 / e2 > 1.5

    def test_infiltration_on_flat_dem_dries_at_zero(self):
        # no flow on a flat DEM with uniform depth: each cell loses R - I per
        # second until it is dry, and infiltration stops at the available depth
        h0, rain, infil = 0.01, 1e-5, 3e-5
        cfg = SweConfig(dem=np.zeros((8, 8)), rainfall=rain, infiltration=infil,
                        duration=900.0, record_interval=100.0)
        traj = solve_swe_flood(cfg, h0=np.full((8, 8), h0))[0]
        for frame, t in enumerate(np.arange(0.0, 901.0, 100.0)):
            expect = max(h0 + (rain - infil) * t, 0.0)
            assert np.max(np.abs(traj[0, frame] - expect)) < 1e-12
        assert np.all(traj[0, -1] == 0.0)

    def test_infiltration_volume_between_naive_budget_and_no_loss(self):
        # cells that dry out stop infiltrating, so the final volume exceeds
        # initial + rain - naive infiltration (57.6 m^3) and stays below
        # initial + rain (230.4 m^3)
        cfg = SweConfig(dem=tilted_dem(12, 12, cell=10.0), rainfall=1e-5, infiltration=2e-5,
                        duration=600.0, record_interval=600.0)
        traj = solve_swe_flood(cfg, h0=np.full((12, 12), 0.01))[0]
        final = traj[0, -1].sum() * cfg.cell_size**2
        assert 57.6 < final < 230.4

    def test_clamped_volume_closes_the_ledger_as_cells_dry(self):
        # V(0) + (R - I) t A + clamped(t) = V(t) at every frame, on flowing
        # terrain where the naive budget V(0) + (R - I) t A is far off
        rng = np.random.default_rng(4)
        dem = tilted_dem(24, 24, cell=10.0, slope=0.02) + 0.3 * rng.standard_normal((24, 24))
        rain, infil = 1e-5, 3e-5
        cfg = SweConfig(dem=dem, rainfall=rain, infiltration=infil, duration=1800.0,
                        record_interval=300.0)
        traj, clamped = solve_swe_flood(cfg, h0=np.full((24, 24), 0.02))
        area = 24 * 24 * cfg.cell_size**2
        vols = traj[0].sum(axis=(1, 2)) * cfg.cell_size**2
        times = 300.0 * np.arange(len(vols))
        assert clamped.shape == vols.shape and clamped[0] == 0.0
        assert np.all(np.diff(clamped) >= 0.0)
        naive = vols[0] + (rain - infil) * times * area
        scale = vols[0] + rain * times * area
        assert np.max(np.abs(naive - vols) / scale) > 0.1
        assert np.max(np.abs(naive + clamped - vols) / scale) < 1e-12

    def test_water_balance_on_flowing_terrain(self):
        # rough tilted terrain under rain: water runs and ponds, and the
        # positivity limiter acts on about a quarter of the steps
        rng = np.random.default_rng(0)
        dem = tilted_dem(24, 24, cell=10.0, slope=0.02) + 0.3 * rng.standard_normal((24, 24))
        cfg = SweConfig(dem=dem, rainfall=1e-4, duration=1800.0, record_interval=300.0)
        traj = solve_swe_flood(cfg)[0]
        vols = traj[0].sum(axis=(1, 2)) * cfg.cell_size**2
        area = 24 * 24 * cfg.cell_size**2
        assert len(vols) == 7
        for frame, v in enumerate(vols):
            assert v == pytest.approx(1e-4 * 300.0 * frame * area, rel=1e-12, abs=0.0)

    ORACLE_CASES = ["tilted_rain", "partly_dry", "non_square", "fixed_dt_infiltration",
                    "three_columns", "three_rows", "tilted_along_y", "dry_edge_columns"]

    @staticmethod
    def _oracle_case(name):
        rng = np.random.default_rng({"tilted_rain": 1, "partly_dry": 5, "non_square": 2,
                                     "fixed_dt_infiltration": 3, "three_columns": 6,
                                     "three_rows": 7, "tilted_along_y": 8,
                                     "dry_edge_columns": 9}[name])
        # the last four stress the faces that wrap from a row's last cell to
        # the next row's first in the solver's raveled layout
        if name in ("three_columns", "three_rows"):  # every third x-face entry wraps, or 2 of 50
            ny, nx = (11, 3) if name == "three_columns" else (3, 17)
            dem = tilted_dem(ny, nx, cell=10.0, slope=0.02) + 0.1 * rng.standard_normal((ny, nx))
            h0 = np.where(rng.uniform(size=(ny, nx)) > 0.5, 0.2, 0.0)
            return SweConfig(dem=dem, rainfall=5e-5, duration=300.0, record_interval=60.0), h0
        if name == "tilted_along_y":  # each wrap joins cells 5 m apart in height
            dem = np.broadcast_to(-5.0 * np.arange(12.0)[:, None], (12, 9)) \
                + 0.05 * rng.standard_normal((12, 9))
            h0 = np.zeros((12, 9))
            h0[1:4, 2:7] = 0.5
            return SweConfig(dem=dem, rainfall=2e-5, duration=300.0, record_interval=50.0), h0
        if name == "dry_edge_columns":  # wet between dry first and last columns
            dem = tilted_dem(10, 14, cell=10.0, slope=0.03) + 0.1 * rng.standard_normal((10, 14))
            h0 = np.full((10, 14), 0.3)
            h0[:, [0, -1]] = 0.0
            return SweConfig(dem=dem, infiltration=1e-5, duration=300.0, record_interval=100.0), h0
        if name == "tilted_rain":  # wet almost everywhere: both skips taken
            dem = tilted_dem(16, 16, cell=10.0, slope=0.005) + 0.05 * rng.standard_normal((16, 16))
            return SweConfig(dem=dem, rainfall=1e-4, duration=1800.0, record_interval=300.0), None
        if name == "partly_dry":  # dry faces and an active limiter: the full paths
            dem = tilted_dem(12, 12, cell=10.0, slope=0.05) + 0.2 * rng.standard_normal((12, 12))
            h0 = np.where(rng.uniform(size=(12, 12)) > 0.7, 0.3, 0.0)
            return SweConfig(dem=dem, duration=400.0, record_interval=50.0), h0
        if name == "non_square":
            dem = tilted_dem(10, 23, cell=10.0, slope=0.01) + 0.1 * rng.standard_normal((10, 23))
            h0 = np.zeros((10, 23))
            h0[2:5, 3:9] = 0.4
            return SweConfig(dem=dem, rainfall=5e-5, duration=600.0, record_interval=100.0), h0
        dem = tilted_dem(8, 16, cell=10.0, slope=0.01) + 0.02 * rng.standard_normal((8, 16))
        return SweConfig(dem=dem, rainfall=1e-5, infiltration=3e-5, duration=120.0,
                         record_interval=30.0, fixed_dt=0.5), np.full((8, 16), 0.05)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_matches_out_of_place_reference_bytes(self, name):
        cfg, h0 = self._oracle_case(name)
        seen = {"dry": 0, "limited": 0, "steps": 0}
        want = reference_swe_flood(cfg, h0, seen)
        got = solve_swe_flood(cfg, h0)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if name in ("partly_dry", "dry_edge_columns"):
            assert seen["dry"] > 0 and seen["limited"] > 0
        if name == "tilted_rain":
            assert seen["limited"] < seen["steps"] // 10 and seen["dry"] < seen["steps"]

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_friction_power_matches_np_power_to_rounding(self, name):
        # cbrt(h) * h * h and np.power(h, 7/3) differ at rounding level only
        cfg, h0 = self._oracle_case(name)
        seen = {"dry": 0, "limited": 0, "steps": 0}
        want = reference_swe_flood(cfg, h0, seen, power=lambda h: np.power(h, 7.0 / 3.0))
        got, clamped = solve_swe_flood(cfg, h0)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        area = got.shape[2] * got.shape[3] * cfg.cell_size**2
        vols = got[0].sum(axis=(1, 2)) * cfg.cell_size**2
        times = cfg.record_interval * np.arange(len(vols))
        ledger = vols[0] + (cfg.rainfall - cfg.infiltration) * times * area + clamped
        assert np.max(np.abs(ledger - vols)) < 1e-12 * max(vols.max(), ledger.max())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_left_alone(self, order):
        """The solver's flat views of the DEM (a view of a C-ordered one, a
        copy of an F-ordered one) and of h0 write into neither: both are
        read-only here, so a write raises, and the bytes match the C run."""
        cfg, h0 = self._oracle_case("partly_dry")
        want = solve_swe_flood(cfg, h0)
        dem, h0 = cfg.dem.copy(order), h0.copy(order)
        dem_bytes, h0_bytes = dem.tobytes(), h0.tobytes()
        dem.flags.writeable = h0.flags.writeable = False
        cfg = SweConfig(dem=dem, duration=cfg.duration, record_interval=cfg.record_interval)
        assert cfg.dem is dem
        got = solve_swe_flood(cfg, h0)
        assert dem.tobytes() == dem_bytes and h0.tobytes() == h0_bytes
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("field,value", [
        ("cell_size", 0.0), ("cell_size", -10.0), ("duration", -10.0), ("duration", np.inf),
        ("record_interval", 0.0), ("fixed_dt", 0.0), ("rainfall", -1.0),
        ("infiltration", -1e-5), ("manning_n", -0.03), ("manning_n", np.nan),
        ("manning_n", 1e160),
    ])
    def test_impossible_settings_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            SweConfig(dem=np.zeros((8, 8)), **{field: value})

    @pytest.mark.parametrize("duration,interval,dt,frames", [(100.0, 10.0, 0.1, 11),
                                                             (900.0, 300.0, 0.3, 4)])
    def test_record_time_reached_within_the_smallest_step(self, duration, interval, dt, frames):
        """Summed steps of 0.1 s fall short of 90 s by 1.4e-12 s; that gap
        counts as reached, where a step across it was a false underflow."""
        cfg = SweConfig(dem=np.zeros((3, 3)), duration=duration, record_interval=interval,
                        fixed_dt=dt)
        traj, clamped = solve_swe_flood(cfg, h0=np.full((3, 3), 1e-3))
        assert traj.shape == (1, frames, 3, 3) and clamped.shape == (frames,)
        assert np.all(traj == 1e-3)

    def test_dt_underflow_aborts(self):
        cfg = SweConfig(dem=np.zeros((8, 8)), duration=10.0, fixed_dt=1e-8)
        with pytest.raises(NumericsError):
            solve_swe_flood(cfg, h0=np.ones((8, 8)))


class TestDatasets:
    def _sha_all(self, d):
        return {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(d.glob("*.fld"))
        }

    def test_seed_determinism(self, tmp_path):
        over = {"n": 64, "steps": 6, "warmup": 2, "substeps": 2}
        a = generate_dataset("kse", tmp_path / "a", 3, seed=7, overrides=over)
        b = generate_dataset("kse", tmp_path / "b", 3, seed=7, overrides=over)
        assert self._sha_all(a) == self._sha_all(b)
        c = generate_dataset("kse", tmp_path / "c", 3, seed=8, overrides=over)
        assert self._sha_all(a) != self._sha_all(c)

    def test_threaded_generation_identical(self, tmp_path):
        over = {"n": 32, "dt": 1e-3, "frame_interval": 5, "t_in": 1, "t_out": 3}
        a = generate_dataset("kolmogorov", tmp_path / "a", 4, seed=1, overrides=over)
        b = generate_dataset("kolmogorov", tmp_path / "b", 4, seed=1,
                             overrides=over, threads=3)
        assert self._sha_all(a) == self._sha_all(b)

    @pytest.mark.parametrize("cpus,started", [(8, [2]), (1, []), (None, [])])
    def test_thread_pool_is_capped(self, tmp_path, monkeypatch, cpus, started):
        """64 threads asked for 2 shallow-water trajectories start
        min(64, 2, CPU count) workers, and no pool on one CPU (or an unknown
        count)."""
        import concurrent.futures
        import os

        real, asked = concurrent.futures.ThreadPoolExecutor, []

        def recording(max_workers):
            asked.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        over = {"ny": 8, "nx": 8, "duration": 200.0, "record_interval": 100.0}
        out = generate_dataset("swe", tmp_path / "s", 2, seed=1, overrides=over, threads=64)
        assert asked == started and len(list(out.glob("*.fld"))) == 2

    def test_kolmogorov_trajectory_bytes_do_not_depend_on_the_count(self, tmp_path,
                                                                     monkeypatch):
        over = {"n": 16, "dt": 1e-3, "frame_interval": 3, "t_in": 1, "t_out": 2}
        one = generate_dataset("kolmogorov", tmp_path / "one", 1, seed=5, overrides=over)
        four = generate_dataset("kolmogorov", tmp_path / "four", 4, seed=5, overrides=over)
        name = "traj_0000.fld"
        assert (one / name).read_bytes() == (four / name).read_bytes()
        # nor on the chunking: chunks of 2 rows against one-at-a-time solves
        monkeypatch.setattr(datasets, "_CHUNK_POINTS", 2 * 16 * 16)
        five = generate_dataset("kolmogorov", tmp_path / "five", 5, seed=5, overrides=over)
        cfg = KolmogorovConfig(**over)
        for i in range(5):
            w0 = gaussian_random_vorticity(cfg, substream(5, f"solver/{i}"))
            got = fldio.read_array(five / f"traj_{i:04d}.fld")
            assert got.tobytes() == solve_kolmogorov(cfg, w0[None])[1][0].tobytes()
            if i < 4:
                assert (four / f"traj_{i:04d}.fld").read_bytes() == fldio.pack_array(got)

    def test_a_kolmogorov_set_within_one_chunk_is_one_solve(self, tmp_path, monkeypatch):
        rows, real = [], datasets.solve_kolmogorov

        def counting(cfg, w0, *args, **kwargs):
            rows.append(len(w0))
            return real(cfg, w0, *args, **kwargs)

        monkeypatch.setattr(datasets, "solve_kolmogorov", counting)
        over = {"n": 32, "dt": 1e-3, "frame_interval": 2, "t_in": 1, "t_out": 2}
        generate_dataset("kolmogorov", tmp_path / "k", 4, seed=1, overrides=over)
        assert rows == [4]

    def test_cfl_abort_names_the_trajectory_of_the_set(self, tmp_path, monkeypatch):
        """One substep from the initial state, in chunks of one row: the abort
        names the first trajectory over the limit by its index in the set."""
        n, count, seed = 16, 6, 2
        cfg = KolmogorovConfig(n=n, frame_interval=1, t_in=1, t_out=1)
        peaks = [np.max(np.abs(vorticity_to_velocity(
            gaussian_random_vorticity(cfg, substream(seed, f"solver/{i}"))))) for i in range(count)]
        assert peaks[0] < max(peaks)
        limit = 0.5 * (peaks[0] + max(peaks))  # the max |u| at which CFL = 1
        first = next(i for i, p in enumerate(peaks) if p >= limit)
        monkeypatch.setattr(datasets, "_CHUNK_POINTS", n * n)
        over = {"n": n, "dt": 1.0 / (n * limit), "frame_interval": 1, "t_in": 1, "t_out": 1}
        with pytest.raises(NumericsError, match=rf"^kolmogorov trajectory {first}: advective "
                                                 rf"CFL \d+\.\d{{3}} >= 1\.0$"):
            generate_dataset("kolmogorov", tmp_path / "k", count, seed=seed, overrides=over)
        assert not (tmp_path / "k").exists()

    def test_kse_threaded_generation_identical(self, tmp_path):
        over = {"n": 32, "steps": 4, "warmup": 1, "substeps": 2}
        a = generate_dataset("kse", tmp_path / "a", 3, seed=1, overrides=over)
        b = generate_dataset("kse", tmp_path / "b", 3, seed=1, overrides=over, threads=3)
        assert self._sha_all(a) == self._sha_all(b)

    def test_kse_trajectory_bytes_do_not_depend_on_the_count(self, tmp_path):
        over = {"n": 48, "steps": 4, "warmup": 2, "substeps": 2, "vary_nu": True}
        one = generate_dataset("kse", tmp_path / "one", 1, seed=5, overrides=over)
        three = generate_dataset("kse", tmp_path / "three", 3, seed=5, overrides=over)
        name = "traj_0000.fld"
        assert (one / name).read_bytes() == (three / name).read_bytes()
        del over["vary_nu"]
        cfgs, u0 = kse_rows(3, seed=5, vary_nu=True, **over)
        for i, (cfg, u) in enumerate(zip(cfgs, u0)):
            got = fldio.read_array(three / f"traj_{i:04d}.fld")
            assert got.tobytes() == reference_kse(cfg, u).tobytes()

    # the generator's own lines, ahead of the config fields that no line names
    _STANZA_HEAD = {
        "kse": ["index", "file", "seed", "dt", "nu", "warmup", "steps", "substeps"],
        "kolmogorov": ["index", "file", "seed", "nu", "dt", "frame_interval", "steps",
                       "form", "init_tau", "init_alpha"],
        "swe": ["index", "file", "seed", "ny", "nx", "manning_n", "rainfall",
                "duration", "steps"],
    }

    @pytest.mark.parametrize("kind,solver,over", [
        ("kse", "solve_kse", {"n": 32, "steps": 3, "warmup": 0, "substeps": 2, "vary_nu": True}),
        ("kolmogorov", "solve_kolmogorov", {"n": 16, "dt": 1e-3, "frame_interval": 2,
                                            "t_in": 1, "t_out": 2, "init_scale": 0.5}),
        ("swe", "solve_swe_flood", {"ny": 8, "nx": 9, "slope": 0.05, "duration": 200.0,
                                    "record_interval": 100.0, "rainfall": 2e-5}),
        ("kse", "solve_kse", {"n": 32, "steps": 3, "warmup": 0, "substeps": 2}),
    ])
    def test_manifest_stanza_rebuilds_the_solved_config(self, tmp_path, monkeypatch, kind,
                                                        solver, over):
        solved = []
        real = getattr(datasets, solver)

        def spy(cfg, *args, **kwargs):
            # a KSE batch has a config per row, a Kolmogorov batch one for all rows
            if kind == "kse":
                solved.extend(cfg)
            else:
                solved.extend([cfg] * (len(args[0]) if kind == "kolmogorov" else 1))
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(datasets, solver, spy)
        out = generate_dataset(kind, tmp_path / kind, 2, seed=3, overrides=over)
        _, stanzas = read_manifest(out / "manifest")
        assert len(solved) == len(stanzas) == 2
        for cfg, stanza in zip(solved, stanzas):
            assert list(stanza)[:len(self._STANZA_HEAD[kind])] == self._STANZA_HEAD[kind]
            rng = substream(int(stanza["seed"]), f"solver/{stanza['index']}")
            if kind == "swe":
                rebuilt = fldio.from_header(SweConfig, stanza, dem=cfg.dem)
                assert float(stanza["slope"]) == over["slope"]
                # the DEM from its recipe and the trajectory's sub-stream
                dem = tilted_dem(*cfg.dem.shape, cell=float(stanza["cell_size"]),
                                 slope=float(stanza["slope"]))
                dem += float(stanza["dem_noise"]) * rng.standard_normal(cfg.dem.shape)
                assert dem.tobytes() == cfg.dem.tobytes()
            else:
                rebuilt = fldio.from_header(type(cfg), stanza)
            if kind == "kse":  # the sampled fields again, from the stanza's vary_nu
                assert boolean(stanza["vary_nu"]) == over.get("vary_nu", False)
                fixed = {k: int(stanza[k]) for k in ("n", "warmup", "steps", "substeps")}
                assert sample_config(rng, vary_nu=boolean(stanza["vary_nu"]), **fixed) == cfg
            for field in dataclasses.fields(cfg):
                if field.name != "dem":
                    assert getattr(rebuilt, field.name) == getattr(cfg, field.name), field.name

    @pytest.mark.parametrize("kind,over", [
        ("kse", {"n": 32, "steps": 3, "warmup": 1, "substeps": 2, "vary_nu": True, "dt": 0.25}),
        ("kolmogorov", {"n": 16, "dt": 1e-3, "frame_interval": 2, "t_in": 1, "t_out": 2,
                        "form": "vorticity"}),
        ("swe", {"ny": 8, "nx": 9, "slope": 0.05, "duration": 200.0,
                 "record_interval": 100.0, "rainfall": 2e-5}),
        ("swe", {"ny": 8, "nx": 8, "slope": 0.01, "cell_size": 20.0, "duration": 200.0,
                 "record_interval": 100.0, "rainfall": 2e-5}),
    ])
    def test_trajectory_re_solves_from_its_stanza_alone(self, tmp_path, kind, over):
        out = generate_dataset(kind, tmp_path / kind, 2, seed=6, overrides=over)
        stanza = read_manifest(out / "manifest")[1][1]
        rng = substream(int(stanza["seed"]), f"solver/{stanza['index']}")
        if kind == "kse":
            cfg = fldio.from_header(KseConfig, stanza)
            # the draws that made the config come first on the sub-stream
            assert sample_config(rng, vary_nu=boolean(stanza["vary_nu"]),
                                 **dataclasses.asdict(cfg)) == cfg
            traj = solve_one(cfg, initial_condition(cfg, rng))
        elif kind == "kolmogorov":
            cfg = fldio.from_header(KolmogorovConfig, stanza)
            w_traj, u_traj = solve_kolmogorov(cfg, w0=gaussian_random_vorticity(cfg, rng)[None])
            traj = {"velocity": u_traj, "vorticity": w_traj}[stanza["form"]][0]
        else:
            ny, nx = int(stanza["ny"]), int(stanza["nx"])
            dem = (tilted_dem(ny, nx, cell=float(stanza["cell_size"]), slope=float(stanza["slope"]))
                   + float(stanza["dem_noise"]) * rng.standard_normal((ny, nx)))
            traj = solve_swe_flood(fldio.from_header(SweConfig, stanza, dem=dem))[0]
        assert fldio.pack_array(traj) == (out / stanza["file"]).read_bytes()

    def test_kse_parameters_sampled_in_ranges_and_distinct(self, tmp_path):
        over = {"n": 32, "steps": 3, "warmup": 0, "substeps": 2}
        out = generate_dataset("kse", tmp_path / "d", 3, seed=9, overrides=over)
        _, stanzas = read_manifest(out / "manifest")
        ls = [float(s["length"]) for s in stanzas]
        dts = [float(s["dt"]) for s in stanzas]
        assert len(set(ls)) == 3 and len(set(dts)) == 3
        assert all(0.9 * 64 <= l <= 1.1 * 64 for l in ls)
        assert all(0.18 <= dt <= 0.22 for dt in dts)

    def test_manifest_round_trip(self, tmp_path):
        over = {"n": 32, "steps": 3, "warmup": 0, "substeps": 2}
        out = generate_dataset("kse", tmp_path / "m", 2, seed=3, overrides=over)
        header, stanzas, trajs = load_dataset(out)
        assert header["kind"] == "kse"
        assert int(header["count"]) == 2
        assert len(stanzas) == 2 and len(trajs) == 2
        assert trajs[0].shape == (3, 1, 32)

    def test_trajectory_lengths_may_differ(self, tmp_path):
        for i, frames in enumerate((3, 5)):
            fldio.write_array(tmp_path / f"t{i}.fld", np.ones((2, frames, 4, 4)))
        (tmp_path / "manifest").write_text("kind = x\n\nfile = t0.fld\n\nfile = t1.fld\n")
        _, _, trajs = load_dataset(tmp_path)
        assert [t.shape for t in trajs] == [(3, 2, 4, 4), (5, 2, 4, 4)]

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            generate_dataset("weather", tmp_path / "x", 1, seed=0)

    def test_non_finite_trajectory_raises_before_any_file(self, tmp_path, monkeypatch):
        from specproj.solvers import datasets

        def nan_trajectory(index, seed, overrides):
            traj = np.zeros((1, 3, 8, 8))
            traj[0, 2, 4, 4] = np.nan if index == 1 else 0.0
            return traj, {"index": index}

        monkeypatch.setattr(datasets, "_generate_swe", nan_trajectory)
        out = tmp_path / "s"
        with pytest.raises(NumericsError, match="trajectory 1 is not finite"):
            generate_dataset("swe", out, 2, seed=0)
        assert not out.exists()

    def test_swe_dataset(self, tmp_path):
        over = {"ny": 10, "nx": 10, "duration": 100.0, "record_interval": 50.0}
        out = generate_dataset("swe", tmp_path / "s", 2, seed=4, overrides=over)
        header, stanzas, trajs = load_dataset(out)
        assert trajs[0].shape[1:] == (1, 10, 10)
        assert np.all(trajs[0] >= 0.0)
