"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned
here, not configurable. The slow criteria (toy consistency training,
desk-scale surrogate training) stay well inside their stated budgets.
"""

import math
import time

import numpy as np
import pytest

import full_layout
from specproj import fldio
from specproj.cli import main as cli_main
from specproj.consistency import (
    CtConfig,
    DEFAULT_TIME_POINTS,
    DenoiserBundle,
    DenoiserHyper,
    RangeNormalizer,
    ToyDenoiser,
    curriculum_n,
    diffpcno_step,
    index_weights,
    timesteps,
    train_ct,
    uncertainty_ensemble,
)
from specproj.metrics import divergence_loss
from specproj.projection import P4Stencil, compose_forward, mass_project_forward, momentum_forward
from specproj.rng import substream
from specproj.solvers import (
    KolmogorovConfig,
    KseConfig,
    SweConfig,
    gaussian_random_vorticity,
    initial_condition,
    solve_kolmogorov,
    solve_kse,
    solve_swe_flood,
)
from specproj.spectral import corner_dims, corner_mode_axes
from specproj.surrogate import (
    FnoHyper,
    TrainConfig,
    fno_backward_batch,
    fno_forward_batch,
    init_params,
    loss_relative_mse,
    loss_relative_mse_grad,
    markov_pairs,
    train,
)


def _mass(v):
    """The mass stage on one (C, *grid) field."""
    return mass_project_forward(v[None])[0][0]


def _momentum(v, kernel, w_inv):
    """The unpadded momentum stage on one (C, *grid) field."""
    return momentum_forward(v[None], kernel, w_inv, (0, 0))[0][0]


def _report(num, text, t0):
    print(f"\nACCEPTANCE {num} PASS ({time.time() - t0:.1f}s): {text}")


def test_criterion_1_architectural_mass_conservation():
    t0 = time.time()
    h_mass = FnoHyper(n_layers=1, modes=(8, 8), width=8, in_channels=2,
                      out_channels=2, selector="mass")
    h_plain = FnoHyper(n_layers=1, modes=(8, 8), width=8, in_channels=2, out_channels=2)
    worst_mass, best_plain = 0.0, math.inf
    for trial in range(100):
        rng = substream(1000 + trial, "acceptance/1")
        pm = init_params(h_mass, (32, 32), rng)
        pp = init_params(h_plain, (32, 32), rng)
        for name in pp.arrays:
            pp.arrays[name] = pm.arrays[name].copy()
        x = rng.standard_normal((1, 2, 32, 32))
        om, _ = fno_forward_batch(pm, x)
        op, _ = fno_forward_batch(pp, x)
        worst_mass = max(worst_mass, divergence_loss(om[0]))
        best_plain = min(best_plain, divergence_loss(op[0]))
    assert worst_mass < 1e-10
    assert best_plain > 1e-3
    assert time.time() - t0 < 30.0
    _report(1, f"100 random (params, input) pairs: projected divergence loss "
               f"<= {worst_mass:.2e}, plain >= {best_plain:.2e}", t0)


def test_criterion_2_projection_algebra():
    t0 = time.time()
    rng = np.random.default_rng(2)
    v = rng.standard_normal((2, 8, 8))

    once = _mass(v)
    twice = _mass(once)
    assert np.max(np.abs(twice - once)) < 1e-10  # idempotence

    w = rng.standard_normal((2, 8, 8))
    a, b = 1.7, -0.3
    lin_lhs = _mass(a * v + b * w)
    lin_rhs = a * _mass(v) + b * _mass(w)
    assert np.max(np.abs(lin_lhs - lin_rhs)) < 1e-10  # linearity

    x = np.arange(8) / 8
    xx, yy = np.meshgrid(x, x, indexing="ij")
    sol = np.stack([
        2 * np.pi * np.sin(2 * np.pi * xx) * np.cos(2 * np.pi * yy),
        -2 * np.pi * np.cos(2 * np.pi * xx) * np.sin(2 * np.pi * yy),
    ])
    assert np.max(np.abs(_mass(sol) - sol)) < 1e-10

    grad = np.stack([
        2 * np.pi * np.cos(2 * np.pi * xx) * np.cos(2 * np.pi * yy),
        -2 * np.pi * np.sin(2 * np.pi * xx) * np.sin(2 * np.pi * yy),
    ])
    assert np.max(np.abs(_mass(grad))) < 1e-10

    # dense least-squares oracle built from explicit DFT matrices
    j = np.arange(8)
    f1 = np.exp(-2j * np.pi * np.outer(j, j) / 8)
    finv2 = np.kron(np.conj(f1) / 8, np.conj(f1) / 8)
    f2 = np.kron(f1, f1)
    k = 2 * np.pi * np.fft.fftfreq(8, d=1.0 / 8)
    k[4] = 0.0
    dx = np.real(finv2 @ np.diag(1j * np.repeat(k, 8)) @ f2)
    dy = np.real(finv2 @ np.diag(1j * np.tile(k, 8)) @ f2)
    grad_op = np.vstack([dx, dy])
    vflat = v.reshape(2, -1).ravel()
    phi, *_ = np.linalg.lstsq(grad_op, vflat, rcond=None)
    oracle = vflat - grad_op @ phi
    got = _mass(v).reshape(2, -1).ravel()
    assert np.max(np.abs(got - oracle)) < 1e-10
    assert time.time() - t0 < 10.0
    _report(2, "idempotence, linearity, solenoidal identity, gradient "
               "annihilation, dense-oracle equivalence all < 1e-10", t0)


def test_criterion_3_momentum_projection_symmetry():
    t0 = time.time()
    rng = np.random.default_rng(3)
    modes = (16, 16)  # the largest corner set on 32 x 32
    kshape = (2,) + corner_dims(modes)
    kernel = rng.standard_normal(kshape) + 1j * rng.standard_normal(kshape)
    # the oracle's full-layout expansion of the kernel, which production
    # matches through irfftn's completion of the half spectrum
    full = full_layout.hermitian_expand(kernel, corner_mode_axes((32, 32), modes), (32, 32),
                                        fill=0.0)
    mir = (slice(None),) + full_layout.point_mirror((32, 32))
    assert np.array_equal(full[mir], np.conj(full))  # exact, not approximate

    v = rng.standard_normal((2, 32, 32))
    w_inv = P4Stencil(0.6, 0.15, -0.05)
    got = _momentum(v, kernel, w_inv)
    want = full_layout.momentum_forward(v[None], kernel, modes, w_inv, (0, 0))[0][0]
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    shift = (7, 13)
    lhs = _momentum(np.roll(v, shift, axis=(1, 2)), kernel, w_inv)
    rhs = np.roll(_momentum(v, kernel, w_inv), shift, axis=(1, 2))
    assert np.max(np.abs(lhs - rhs)) < 1e-10

    # channel sums exact for any kernel, the unit kernel included
    for k in (kernel, np.ones(kshape, dtype=np.complex128)):
        out = _momentum(v + 0.5, k, w_inv)
        np.testing.assert_allclose(out.sum(axis=(1, 2)), (v + 0.5).sum(axis=(1, 2)),
                                   rtol=1e-12)

    # realness: run the complex pipeline and measure the imaginary residue
    vhat = np.fft.fftn(v, axes=(1, 2))
    spec = np.fft.ifftn(full * vhat, axes=(1, 2))
    assert np.max(np.abs(spec.imag)) < 1e-12 * max(np.max(np.abs(spec)), 1.0)
    assert time.time() - t0 < 10.0
    _report(3, "K(rot180 k) = conj(K(k)) exact; full-layout oracle < 1e-12; "
               "shift equivariance < 1e-10; "
               "channel sums exact (1e-12) for any kernel; imaginary residue < 1e-12", t0)


def test_criterion_4_gradient_correctness():
    t0 = time.time()
    eps = 1e-6

    def check(params, x, y, cond):
        def loss_of():
            out, _ = fno_forward_batch(params, x, cond)
            return loss_relative_mse(out, y)

        out, tape = fno_forward_batch(params, x, cond)
        grads = fno_backward_batch(params, tape, loss_relative_mse_grad(out, y))
        worst = {}
        for name, p in sorted(params.arrays.items()):
            d = grads[name].copy()
            norm = np.linalg.norm(d.view(np.float64) if np.iscomplexobj(d) else d)
            assert norm > 0, f"group {name} has zero gradient"
            d /= norm
            p += eps * d
            lp = loss_of()
            p -= 2 * eps * d
            lm = loss_of()
            p += eps * d
            fd = (lp - lm) / (2 * eps)
            an = float(np.sum(grads[name].real * d.real))
            if np.iscomplexobj(d):
                an += float(np.sum(grads[name].imag * d.imag))
            worst[name] = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
        return worst

    # the 16-point 1-layer desk model
    h1 = FnoHyper(n_layers=1, modes=(5,), width=6, in_channels=1, cond_dim=1,
                  out_channels=1)
    p1 = init_params(h1, (16,), substream(4, "acceptance/4"))
    rng = np.random.default_rng(4)
    w1 = check(p1, rng.standard_normal((4, 1, 16)), rng.standard_normal((4, 1, 16)),
               rng.standard_normal((4, 1)))

    # projected 2D variant covering the momentum and spectral-multiplier groups
    h2 = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=2, out_channels=2,
                  selector="both", wspe_modes=(3, 3),
                  momentum_padding=(0, 0))
    p2 = init_params(h2, (8, 8), substream(5, "acceptance/4"))
    p2.arrays["momentum_free"] += 0.3 * (rng.standard_normal(p2.arrays["momentum_free"].shape)
                                         + 1j * rng.standard_normal(p2.arrays["momentum_free"].shape))
    p2.arrays["w_spe"] += 0.2 * (rng.standard_normal(p2.arrays["w_spe"].shape)
                                 + 1j * rng.standard_normal(p2.arrays["w_spe"].shape))
    w2 = check(p2, rng.standard_normal((3, 2, 8, 8)), rng.standard_normal((3, 2, 8, 8)),
               None)

    worst = max(max(w1.values()), max(w2.values()))
    assert worst < 1e-5, (w1, w2)
    assert time.time() - t0 < 60.0
    _report(4, f"central finite differences across "
               f"{len(w1) + len(w2)} parameter groups, worst relative error "
               f"{worst:.2e}", t0)


def test_criterion_5_solver_physics():
    t0 = time.time()
    # Kolmogorov single-mode decay
    cfg = KolmogorovConfig(n=64, nu=1e-3, dt=1e-4, frame_interval=1)
    x = np.arange(64) / 64
    xx, yy = np.meshgrid(x, x, indexing="ij")
    w0 = np.sin(2 * np.pi * (xx + yy))
    w_traj, u_traj = (a[0] for a in solve_kolmogorov(cfg, w0=w0[None], forcing=False, frames=101))
    lam = 8 * np.pi**2 * cfg.nu
    worst_decay = 0.0
    for i in range(101):
        expect = w0 * np.exp(-lam * i * cfg.dt)
        err = np.max(np.abs(w_traj[0, i] - expect)) / np.max(np.abs(expect))
        worst_decay = max(worst_decay, err)
    assert worst_decay < 1e-6

    worst_div = max(divergence_loss(u_traj[:, i]) for i in range(101))
    assert worst_div < 1e-10

    # KSE mean drift over 400 recorded steps
    kse_cfg = KseConfig(steps=400, warmup=5)
    kse = solve_kse([kse_cfg], initial_condition(kse_cfg, substream(5, "kse/init"))[None])[0]
    means = kse[0].mean(axis=1)
    drift = np.max(np.abs(means - means[0]))
    assert drift < 1e-8

    # SWE closed-domain water balance
    swe_cfg = SweConfig(dem=np.zeros((16, 16)), rainfall=2e-5, duration=900.0,
                        record_interval=300.0, cell_size=10.0)
    traj = solve_swe_flood(swe_cfg)[0]
    vols = traj[0].sum(axis=(1, 2)) * swe_cfg.cell_size**2
    area = 16 * 16 * swe_cfg.cell_size**2
    for frame, tt in enumerate((0.0, 300.0, 600.0, 900.0)):
        expect = 2e-5 * tt * area
        if expect == 0.0:
            assert vols[frame] == 0.0
        else:
            assert abs(vols[frame] - expect) / expect < 1e-10
    assert time.time() - t0 < 120.0
    _report(5, f"single-mode decay err {worst_decay:.2e}; velocity divergence "
               f"{worst_div:.2e}; KSE mean drift {drift:.2e}; water balance exact", t0)


def test_criterion_6_schedule_exactness():
    t0 = time.time()
    for n in range(2, 1282):
        ts = timesteps(n)
        assert ts[0] == 0.002 and ts[-1] == 80.0
    assert curriculum_n(0, CtConfig(steps=800)) == 11
    assert curriculum_n(7999, CtConfig(steps=8000)) == 1281
    assert DEFAULT_TIME_POINTS == (80.0, 24.4, 5.84, 0.9, 0.661)
    assert time.time() - t0 < 1.0
    _report(6, "endpoints exact for N in 2..1281; curriculum 11 -> 1281; "
               "default time points match", t0)


def test_criterion_7_index_sampler_law():
    t0 = time.time()
    n = 20
    w = index_weights(n)
    rng = substream(7, "acceptance/7")
    draws = rng.choice(n - 1, size=1_000_000, p=w) + 1
    counts = np.bincount(draws, minlength=n)[1:]
    total = counts.sum()
    for i in range(n - 1):
        sigma = math.sqrt(total * w[i] * (1.0 - w[i]))
        assert abs(counts[i] - total * w[i]) <= 3.0 * sigma
    assert time.time() - t0 < 30.0
    _report(7, "1e6 draws within 3-sigma multinomial bounds for N = 20", t0)


def test_criterion_8_toy_residual_fidelity():
    t0 = time.time()
    mu, sigma = 0.8, 0.25
    n, n_samples = 8, 64
    fh = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=1, out_channels=1)
    pcno = init_params(fh, (n, n), substream(0, "toy/pcno"))  # frozen
    rng = substream(0, "toy/data")
    u_t = rng.standard_normal((n_samples, 1, n, n))
    u_hat, _ = fno_forward_batch(pcno, u_t)
    y = u_hat + rng.normal(mu, sigma, size=u_hat.shape)

    normalizer = RangeNormalizer.fit(y - u_hat)
    hyper = DenoiserHyper(channels=1, cond_channels=2, modes=(4, 4), hidden=128)
    den = ToyDenoiser.init(hyper, substream(0, "toy/den"))
    den, curve = train_ct(den, normalizer.forward(y - u_hat),
                          np.concatenate([u_t, u_hat], axis=1),
                          CtConfig(steps=6000, batch=32, lr=1e-3, seed=0))
    train_time = time.time() - t0
    assert train_time < 300.0

    bundle = DenoiserBundle(den, normalizer)
    u0 = rng.standard_normal((1, n, n))
    det, _ = fno_forward_batch(pcno, u0[None])
    step_fn = lambda ws, rngs: diffpcno_step(pcno, bundle, ws, rngs)
    mean, std = uncertainty_ensemble(step_fn, u0, steps=1, n_traj=50, seed=100)
    res_mean = float((mean[0] - det[0]).mean())
    res_std = float(std[0].mean())
    assert abs(res_mean - mu) / mu < 0.10
    assert abs(res_std - sigma) / sigma < 0.10

    # the same corrector, trained at 8x8, from a 16x16 init: its corner
    # inputs of white noise are half the amplitude seen in training
    u0_fine = rng.standard_normal((1, 2 * n, 2 * n))
    det_fine, _ = fno_forward_batch(pcno, u0_fine[None])
    mean, std = uncertainty_ensemble(step_fn, u0_fine, steps=1, n_traj=50, seed=100)
    fine_mean = float((mean[0] - det_fine[0]).mean())
    fine_std = float(std[0].mean())
    assert abs(fine_mean - mu) / mu < 0.10
    assert abs(fine_std - sigma) / sigma < 0.10

    # zero-residual model: exactly zero spread
    class _Zero(ToyDenoiser):
        def forward_batch(self, x, t, cond, **kw):
            return np.zeros_like(x), {}

    zero_bundle = DenoiserBundle(
        _Zero(hyper, {}),
        RangeNormalizer(np.array([-1.0]), np.array([1.0])),
    )
    zstep = lambda ws, rngs: diffpcno_step(pcno, zero_bundle, ws, rngs)
    _, zstd = uncertainty_ensemble(zstep, u0, steps=1, n_traj=50, seed=101)
    assert np.all(zstd == 0.0)
    _report(8, f"ensemble residual mean {res_mean:.3f} (target {mu}), std "
               f"{res_std:.3f} (target {sigma}); from a 16x16 init mean {fine_mean:.3f}, "
               f"std {fine_std:.3f}; zero-residual std identically 0", t0)


def test_criterion_9_desk_scale_learning_signal():
    t0 = time.time()
    n = 32
    cfg = KolmogorovConfig(n=n, dt=1e-3, frame_interval=100, t_in=1, t_out=9)
    trajs = []
    for i in range(24):
        w0 = gaussian_random_vorticity(cfg, substream(7, f"solver/{i}"))
        _, u = solve_kolmogorov(cfg, w0=w0[None])
        trajs.append(np.moveaxis(u[0], 0, 1))
    x, y = markov_pairs(trajs[:20])
    xt, yt = markov_pairs(trajs[20:])
    hyper = FnoHyper(n_layers=1, modes=(8, 8), width=8, in_channels=2, out_channels=2,
                     selector="none")
    params = init_params(hyper, (n, n), substream(1, "acceptance/9"))
    tc = TrainConfig(epochs=16, batch=16, lr=2e-3, weight_decay=1e-4, seed=0)
    trained, _ = train(params, x, y, tc)
    assert time.time() - t0 < 300.0

    out, _ = fno_forward_batch(trained, xt)
    rel_plain = loss_relative_mse(out, yt)
    out_mass, _ = compose_forward(fno_forward_batch(trained, xt)[0], "mass")
    rel_mass = loss_relative_mse(out_mass, yt)
    worst_div = max(divergence_loss(o) for o in out_mass)
    assert rel_plain < 0.5
    assert worst_div < 1e-10
    assert rel_mass <= rel_plain  # projection onto the solenoidal targets
    _report(9, f"held-out one-step relMSE {rel_plain:.3f} (plain) vs "
               f"{rel_mass:.3f} (mass-projected), divergence {worst_div:.2e}", t0)


def test_criterion_10_metrics_unit_suite():
    t0 = time.time()
    from specproj.metrics import csi, momentum_loss, nrmse

    y = np.random.default_rng(10).standard_normal((3, 16))
    assert abs(nrmse(2 * y, y) - 1.0) < 1e-12

    x4 = np.arange(4) / 4
    vx = np.broadcast_to(np.sin(2 * np.pi * x4)[:, None], (4, 4))
    assert abs(divergence_loss(np.stack([vx, np.zeros((4, 4))])) - math.pi) < 1e-12

    assert abs(momentum_loss(np.full((1, 4), 0.5), np.zeros((1, 4))) - 1.0) < 1e-12

    pred = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    truth = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    assert abs(csi(pred, truth, 0.5) - 0.6) < 1e-12
    assert time.time() - t0 < 1.0
    _report(10, "nRMSE(2y, y) = 1; divergence loss pi on the 4-point case; "
                "momentum loss 1.0; CSI 0.6 -- all at 1e-12", t0)


def test_criterion_11_cli_reproducibility(tmp_path):
    import hashlib

    t0 = time.time()

    def sha(p):
        return hashlib.sha256(p.read_bytes()).hexdigest()

    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text("n = 32\ndt = 0.001\nframe_interval = 20\nt_in = 1\nt_out = 4\n")
    assert cli_main(["--seed", "11", "--out", str(tmp_path / "ds"), "--config",
                     str(gen_cfg), "generate", "kolmogorov", "--count", "3"]) == 0
    # rerun from the snapshot, and with a different thread count
    assert cli_main(["--out", str(tmp_path / "ds2"), "--config",
                     str(tmp_path / "ds" / "config.snapshot"),
                     "generate", "kolmogorov"]) == 0
    assert cli_main(["--threads", "3", "--out", str(tmp_path / "ds3"), "--config",
                     str(tmp_path / "ds" / "config.snapshot"),
                     "generate", "kolmogorov"]) == 0
    for name in ("traj_0000.fld", "traj_0001.fld", "traj_0002.fld", "manifest"):
        assert sha(tmp_path / "ds" / name) == sha(tmp_path / "ds2" / name)
        assert sha(tmp_path / "ds" / name) == sha(tmp_path / "ds3" / name)

    tr_cfg = tmp_path / "tr.cfg"
    tr_cfg.write_text("epochs = 1\nbatch = 8\nwidth = 4\nmodes = 4,4\nn_layers = 1\n")
    assert cli_main(["--seed", "3", "--out", str(tmp_path / "m1.mdl"), "--config",
                     str(tr_cfg), "train", str(tmp_path / "ds"), "pcno"]) == 0
    assert cli_main(["--out", str(tmp_path / "m2.mdl"), "--config",
                     str(tmp_path / "m1.mdl.config"),
                     "train", str(tmp_path / "ds"), "pcno"]) == 0
    assert sha(tmp_path / "m1.mdl") == sha(tmp_path / "m2.mdl")

    arr = fldio.read_array(tmp_path / "ds" / "traj_0000.fld")
    fldio.write_array(tmp_path / "init.fld", arr[:, 0])
    for out in ("r1.fld", "r2.fld"):
        assert cli_main(["--seed", "5", "--out", str(tmp_path / out), "rollout",
                         str(tmp_path / "m1.mdl"), str(tmp_path / "init.fld"),
                         "--steps", "3"]) == 0
    assert sha(tmp_path / "r1.fld") == sha(tmp_path / "r2.fld")

    for out in ("p1.fld", "p2.fld"):
        assert cli_main(["--out", str(tmp_path / out), "project",
                         str(tmp_path / "init.fld"), "--selector", "mass"]) == 0
    assert sha(tmp_path / "p1.fld") == sha(tmp_path / "p2.fld")

    for out in ("e1", "e2"):
        assert cli_main(["--out", str(tmp_path / out), "evaluate",
                         str(tmp_path / "ds"), str(tmp_path / "ds"),
                         "--metrics", "nrmse,mse"]) == 0
    assert sha(tmp_path / "e1" / "report.csv") == sha(tmp_path / "e2" / "report.csv")
    assert time.time() - t0 < 120.0
    _report(11, "generate/train/rollout/project/evaluate byte-identical under "
                "snapshot rerun and --threads", t0)
