"""Hand-derived reverse-mode gradients against central finite differences.

Each parameter group is checked along a random direction: the directional
derivative concentrates the group's gradient norm, so the comparison is not
drowned by the O(eps_machine / step) rounding floor of coordinate-wise
differences on near-zero entries.
"""

import numpy as np
import pytest

from specproj.rng import substream
from specproj.surrogate import (
    FnoHyper,
    fno_backward_batch,
    fno_forward_batch,
    init_params,
    loss_relative_mse,
    loss_relative_mse_grad,
)

EPS = 1e-6
TOL = 1e-5


def directional_check(params, grads, loss_of, seed=123):
    worst = {}
    for name, p in sorted(params.arrays.items()):
        # probe along the analytic gradient: the best-conditioned direction,
        # and any orthogonal error in the gradient still breaks the equality
        # <dL, g>/|g| = |g|
        d = grads[name].copy()
        norm = np.linalg.norm(d.view(np.float64) if np.iscomplexobj(d) else d)
        if norm == 0.0:
            rng = np.random.default_rng(seed)
            d = rng.standard_normal(p.shape)
            if np.iscomplexobj(p):
                d = d + 1j * rng.standard_normal(p.shape)
            norm = np.linalg.norm(d.view(np.float64) if np.iscomplexobj(d) else d)
        d = d / norm
        p += EPS * d
        lp = loss_of()
        p -= 2 * EPS * d
        lm = loss_of()
        p += EPS * d
        fd = (lp - lm) / (2 * EPS)
        g = grads[name]
        an = float(np.sum(g.real * d.real))
        if np.iscomplexobj(g):
            an += float(np.sum(g.imag * d.imag))
        worst[name] = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
    return worst


def _setup_1d(seed=0):
    """The 16-point single-layer configuration."""
    hyper = FnoHyper(n_layers=1, modes=(5,), width=6, in_channels=1,
                     cond_dim=1, out_channels=1)
    params = init_params(hyper, (16,), substream(seed, "grad/init"))
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((4, 1, 16))
    y = rng.standard_normal((4, 1, 16))
    cond = rng.standard_normal((4, 1))
    return params, x, y, cond


def _setup_2d_projected(seed=0):
    """8x8 two-channel model with both projections and their parameters."""
    hyper = FnoHyper(
        n_layers=1, modes=(3, 3), width=4, in_channels=2, out_channels=2,
        selector="both", wspe_modes=(3, 3),
        momentum_padding=(0, 0),
    )
    params = init_params(hyper, (8, 8), substream(seed, "grad/init"))
    rng = np.random.default_rng(seed + 2)
    params.arrays["momentum_free"] += 0.3 * (
        rng.standard_normal(params.arrays["momentum_free"].shape)
        + 1j * rng.standard_normal(params.arrays["momentum_free"].shape)
    )
    params.arrays["w_spe"] += 0.2 * (
        rng.standard_normal(params.arrays["w_spe"].shape)
        + 1j * rng.standard_normal(params.arrays["w_spe"].shape)
    )
    x = rng.standard_normal((3, 2, 8, 8))
    y = rng.standard_normal((3, 2, 8, 8))
    return params, x, y, None


def _setup_2d_two_layer_odd(seed=0):
    """Two layers on an odd 9x7 grid: odd sizes on both rfft axes."""
    hyper = FnoHyper(n_layers=2, modes=(3, 3), width=4, in_channels=1, out_channels=1)
    params = init_params(hyper, (9, 7), substream(seed, "grad/init"))
    rng = np.random.default_rng(seed + 3)
    x = rng.standard_normal((3, 1, 9, 7))
    y = rng.standard_normal((3, 1, 9, 7))
    return params, x, y, None


def _setup_3d_padded(seed=0):
    """Spatiotemporal (t, x, y) model with time padding and the 3D mass stage."""
    hyper = FnoHyper(
        n_layers=1, modes=(2, 3, 2), width=3, in_channels=3, out_channels=3,
        fno_padding=(3, 0, 0), selector="mass",
    )
    params = init_params(hyper, (5, 6, 6), substream(seed, "grad/init"))
    rng = np.random.default_rng(seed + 4)
    x = rng.standard_normal((2, 3, 5, 6, 6))
    y = rng.standard_normal((2, 3, 5, 6, 6))
    return params, x, y, None


def _setup_no_layers(seed=0):
    """No Fourier layer: lift, then head, with conditioning and the mass stage."""
    hyper = FnoHyper(n_layers=0, modes=(3, 3), width=4, in_channels=2, cond_dim=2,
                     out_channels=2, selector="mass")
    params = init_params(hyper, (8, 8), substream(seed, "grad/init"))
    rng = np.random.default_rng(seed + 5)
    x = rng.standard_normal((3, 2, 8, 8))
    y = rng.standard_normal((3, 2, 8, 8))
    return params, x, y, rng.standard_normal((3, 2))


def _setup_identity_padded(seed=0):
    """The identity activation over three padded layers: each rebuilt layer
    input is its pre-activation itself."""
    hyper = FnoHyper(n_layers=3, modes=(3, 2), width=4, in_channels=1, out_channels=1,
                     activation="identity", fno_padding=(2, 1))
    params = init_params(hyper, (8, 6), substream(seed, "grad/init"))
    rng = np.random.default_rng(seed + 6)
    x = rng.standard_normal((2, 1, 8, 6))
    y = rng.standard_normal((2, 1, 8, 6))
    return params, x, y, None


@pytest.mark.parametrize(
    "setup", [_setup_1d, _setup_2d_projected, _setup_2d_two_layer_odd, _setup_3d_padded,
              _setup_no_layers, _setup_identity_padded]
)
def test_every_parameter_group_passes_fd(setup):
    params, x, y, cond = setup()

    def loss_of():
        out, _ = fno_forward_batch(params, x, cond)
        return loss_relative_mse(out, y)

    out, tape = fno_forward_batch(params, x, cond)
    grads = fno_backward_batch(params, tape, loss_relative_mse_grad(out, y))
    worst = directional_check(params, grads, loss_of)
    assert max(worst.values()) < TOL, worst


def test_gradient_zero_at_exact_fit():
    params, x, _, cond = _setup_1d(seed=5)
    out, tape = fno_forward_batch(params, x, cond)
    grads = fno_backward_batch(params, tape, loss_relative_mse_grad(out, out.copy()))
    assert np.max(np.abs(grads["head2_b"])) == 0.0
    assert all(np.max(np.abs(g)) == 0.0 for g in grads.values())


def test_backward_is_linear_in_upstream_gradient():
    params, x, y, cond = _setup_1d(seed=7)
    # a tape serves one backward: each backward gets its own forward
    runs = [fno_forward_batch(params, x, cond) for _ in range(3)]
    out = runs[0][0]
    assert all(o.tobytes() == out.tobytes() for o, _ in runs)
    rng = np.random.default_rng(0)
    g1 = rng.standard_normal(out.shape)
    g2 = rng.standard_normal(out.shape)
    a, b = 1.3, -0.6
    ga, gb, gc = (fno_backward_batch(params, tape, g)
                  for (_, tape), g in zip(runs, (g1, g2, a * g1 + b * g2)))
    for name in ga:
        combo = a * ga[name] + b * gb[name]
        scale = max(np.max(np.abs(combo)), 1e-12)
        assert np.max(np.abs(gc[name] - combo)) < 1e-12 * scale


def test_gelu_derivative_matches_fd():
    from specproj.surrogate.fno import activate

    x = np.linspace(-4, 4, 101)
    fd = (activate("gelu_tanh", x + 1e-6)[0] - activate("gelu_tanh", x - 1e-6)[0]) / 2e-6
    assert np.max(np.abs(fd - activate("gelu_tanh", x)[1])) < 1e-8
