"""The corner-mode Fourier layer against a dense complex-FFT oracle.

The reference below is the layer in its textbook form: conditioning as
constant input planes, full complex `fftn`, the kernel applied by `einsum` on
the corner modes, `Re(ifftn)` back, and the adjoints spelled out the same
way. The production layer transforms to the corner modes alone with
separable DFT matrix products (a real cos/-sin matrix on the last axis), runs
the contraction as a modes-major matmul, inverts with the conjugate pair and
adds the conditioning as a per-sample lift bias; the two must agree to
rounding on the output and on every gradient group.
"""

import numpy as np
import pytest

from specproj.rng import substream
from specproj.spectral import corner_mode_axes
from specproj.surrogate import FnoHyper, fno_backward_batch, fno_forward_batch, init_params

REL_TOL = 1e-12


def _act(name):
    if name == "identity":
        return (lambda x: x), (lambda x: np.ones_like(x))
    a, c = 0.044715, np.sqrt(2.0 / np.pi)  # the GELU's tanh form
    t = lambda x: np.tanh(c * (x + a * x**3))
    return (
        lambda x: 0.5 * x * (1.0 + t(x)),
        lambda x: 0.5 * (1.0 + t(x)) + 0.5 * x * (1.0 - t(x) ** 2) * c * (1.0 + 3.0 * a * x * x),
    )


def _wgrad(g, v):
    dims = [0] + list(range(2, g.ndim))
    return np.tensordot(g, v, axes=(dims, dims))


def reference_forward_backward(params, x, cond, g_out):
    """Complex-FFT forward and its adjoint -> (out, grads)."""
    h, a = params.hyper, params.arrays
    act, dact = _act(h.activation)
    if h.cond_dim:
        planes = np.broadcast_to(cond.reshape(cond.shape + (1,) * (x.ndim - 2)),
                                 cond.shape + x.shape[2:])
        x = np.concatenate([x, planes], axis=1)
    sp = (1,) * (x.ndim - 2)
    v = np.einsum("wc,bc...->bw...", a["lift_w"], x) + a["lift_b"].reshape((1, -1) + sp)
    pad = h.fno_padding or (0,) * h.ndim
    v = np.pad(v, [(0, 0), (0, 0)] + [(0, p) for p in pad])
    shape = v.shape[2:]
    sel = (slice(None), slice(None)) + np.ix_(*corner_mode_axes(shape, h.modes))
    axes = tuple(range(2, v.ndim))
    n_total = float(np.prod(shape))
    layers = []
    for l in range(h.n_layers):
        vhat = np.fft.fftn(v, axes=axes)[sel]
        wh = np.zeros(v.shape, dtype=np.complex128)
        wh[sel] = np.einsum("oi...,bi...->bo...", a[f"spectral_{l}"], vhat)
        pre = (np.einsum("oi,bi...->bo...", a[f"pw_w_{l}"], v)
               + a[f"pw_b_{l}"].reshape((1, -1) + sp) + np.real(np.fft.ifftn(wh, axes=axes)))
        layers.append((v, vhat, pre))
        v = act(pre)
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in x.shape[2:])
    trunk = v[crop]
    hpre = np.einsum("oi,bi...->bo...", a["head1_w"], trunk) + a["head1_b"].reshape((1, -1) + sp)
    hmid = act(hpre)
    out = np.einsum("oi,bi...->bo...", a["head2_w"], hmid) + a["head2_b"].reshape((1, -1) + sp)

    sum_axes = (0,) + axes
    grads = {"head2_w": _wgrad(g_out, hmid), "head2_b": g_out.sum(axis=sum_axes)}
    g_hpre = np.einsum("oi,bo...->bi...", a["head2_w"], g_out) * dact(hpre)
    grads["head1_w"] = _wgrad(g_hpre, trunk)
    grads["head1_b"] = g_hpre.sum(axis=sum_axes)
    g_v = np.zeros(v.shape)
    g_v[crop] = np.einsum("oi,bo...->bi...", a["head1_w"], g_hpre)
    for l in reversed(range(h.n_layers)):
        v_in, vhat, pre = layers[l]
        g_pre = g_v * dact(pre)
        grads[f"pw_w_{l}"] = _wgrad(g_pre, v_in)
        grads[f"pw_b_{l}"] = g_pre.sum(axis=sum_axes)
        g_v = np.einsum("oi,bo...->bi...", a[f"pw_w_{l}"], g_pre)
        gh = (np.fft.fftn(g_pre, axes=axes) / n_total)[sel]
        grads[f"spectral_{l}"] = np.einsum("bo...,bi...->oi...", gh, np.conj(vhat))
        gvh = np.zeros(v.shape, dtype=np.complex128)
        gvh[sel] = np.einsum("oi...,bo...->bi...", np.conj(a[f"spectral_{l}"]), gh)
        g_v = g_v + n_total * np.real(np.fft.ifftn(gvh, axes=axes))
    g_v = g_v[crop]
    grads["lift_w"] = _wgrad(g_v, x)
    grads["lift_b"] = g_v.sum(axis=sum_axes)
    return out, grads


CASES = {
    "1d_odd": (dict(n_layers=2, modes=(5,), width=5, cond_dim=1), (15,)),
    "2d_odd_nonsquare": (dict(n_layers=2, modes=(3, 4), width=4), (9, 11)),
    "2d_even_nonsquare": (dict(n_layers=2, modes=(4, 3), width=4, in_channels=2,
                               out_channels=2), (12, 8)),
    "3d_padded": (dict(n_layers=2, modes=(2, 3, 2), width=3, in_channels=3, out_channels=3,
                       fno_padding=(3, 0, 0)), (5, 7, 6)),
    "2d_identity": (dict(n_layers=2, modes=(3, 3), width=4, activation="identity"), (8, 7)),
}


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


@pytest.mark.parametrize("case", sorted(CASES))
def test_half_spectrum_layer_matches_dense_oracle(case):
    kw, grid_shape = CASES[case]
    hyper = FnoHyper(**kw)
    params = init_params(hyper, grid_shape, substream(3, f"oracle/{case}"))
    rng = np.random.default_rng(4)
    for name, arr in params.arrays.items():  # nonzero biases, full-size kernels
        arr += 0.3 * rng.standard_normal(arr.shape)
    x = rng.standard_normal((3, hyper.in_channels) + grid_shape)
    cond = rng.standard_normal((3, hyper.cond_dim)) if hyper.cond_dim else None
    g_out = rng.standard_normal((3, hyper.out_channels) + grid_shape)

    out, tape = fno_forward_batch(params, x, cond)
    grads = fno_backward_batch(params, tape, g_out)
    ref_out, ref_grads = reference_forward_backward(params, x, cond, g_out)

    assert _rel(out, ref_out) < REL_TOL
    assert set(grads) == set(ref_grads) == set(params.arrays)
    worst = {k: _rel(grads[k], ref_grads[k]) for k in ref_grads}
    assert max(worst.values()) < REL_TOL, worst
    assert all(grads[k].shape == params.arrays[k].shape for k in grads)
