"""Fourier-layer surrogate: lift, spectral + pointwise layers, two-layer
head, optional conservation projection on the output, and the hand-derived
reverse-mode gradients for all of it.

Shapes are batched and channel-major throughout: (B, C, *spatial), and every
pointwise map (lift, per-layer linear, head) is one `W @ v.reshape(B, C, -1)`.

The spectral kernels act only on the retained corner modes, whose last-axis
range 0..m-1 is already the half spectrum of a real transform, so a layer
takes `rfftn` of its real input. The complex form `Re(ifftn(W))` over the
corner equals `irfftn(W', s=padded_shape)`, where W' is W with its last-axis
k > 0 modes halved: `irfftn` adds the conjugate mirror of those modes, and
takes the real part of the k = 0 plane. The contraction runs modes-major,
as one batched matmul (M, O, I) @ (M, I, B) over the M retained modes. Its
adjoint pair is `rfftn / N` for the forward `irfftn` and `N * irfftn` (same
halving) for the forward `rfftn`; on the input path the two N cancel. The
adjoint of the spectral multiply is the conjugate-transposed kernel, and the
Helmholtz stage is self-adjoint - see projection.py for those pieces.

The GELU's erf is ``specproj._erf``, a NumPy port of the Cephes rational
approximations SciPy uses; it is within 1 ulp of ``scipy.special.erf``.
"""

from __future__ import annotations

import numpy as np

from .._erf import erf
from ..errors import ContractError
from ..projection import compose_backward, compose_forward, corner_mode_axes
from .params import FnoHyper, FnoParams

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def activate(name: str, pre: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(act(pre), act'(pre)); GELU evaluates erf (the NumPy port in
    ``specproj._erf``) once for both."""
    if name == "gelu":
        cdf = 0.5 * (1.0 + erf(pre / _SQRT2))
        return pre * cdf, cdf + pre * np.exp(-0.5 * pre * pre) * _INV_SQRT_2PI
    if name == "identity":
        return pre, np.ones_like(pre)
    raise ContractError(f"unknown activation {name!r}")


def _pointwise(w: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W @ v + b over the channel axis of (B, I, *sp) -> (B, O, *sp)."""
    bsz = v.shape[0]
    out = w @ v.reshape(bsz, v.shape[1], -1)
    out += b[:, None]
    return out.reshape((bsz, w.shape[0]) + v.shape[2:])


def _pointwise_adjoint(
    w: np.ndarray, g_out: np.ndarray, vin: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dL/dW, dL/db, dL/dv) of _pointwise for the upstream (B, O, *sp)."""
    bsz = g_out.shape[0]
    g = g_out.reshape(bsz, g_out.shape[1], -1)
    v = vin.reshape(bsz, vin.shape[1], -1)
    g_w = (g @ v.transpose(0, 2, 1)).sum(axis=0)
    g_b = g.sum(axis=(0, 2))
    g_v = (w.T @ g).reshape(vin.shape)
    return g_w, g_b, g_v


class _ModeGrid:
    """Corner-mode bookkeeping shared by the forward and backward passes."""

    def __init__(self, padded_shape: tuple[int, ...], modes: tuple[int, ...]):
        corner = corner_mode_axes(padded_shape, modes)
        nd = len(padded_shape)
        self.padded_shape = padded_shape
        self.n_total = float(np.prod(padded_shape))
        self.axes = tuple(range(2, 2 + nd))
        # (B, C, *k) arrays viewed as (*k, C, B): a corner gather is modes-major
        self.modes_first = self.axes + (1, 0)
        self.sel = np.ix_(*corner)
        self.kdims = tuple(len(ix) for ix in corner)
        self.n_modes = int(np.prod(self.kdims))
        half = np.where(corner[-1] > 0, 0.5, 1.0)
        self.half = np.broadcast_to(half, self.kdims).reshape(self.n_modes, 1, 1)
        self.half_shape = padded_shape[:-1] + (padded_shape[-1] // 2 + 1,)

    def kernel(self, k: np.ndarray) -> np.ndarray:
        """(O, I, *kd) storage -> the halved modes-major (M, O, I) kernel W'."""
        o, i = k.shape[:2]
        km = np.ascontiguousarray(k.reshape(o, i, self.n_modes).transpose(2, 0, 1))
        km *= self.half
        return km

    def gather(self, v: np.ndarray) -> np.ndarray:
        """rfftn of real (B, C, *padded) -> its corner as (M, C, B)."""
        vhat = np.fft.rfftn(v, axes=self.axes)
        return vhat.transpose(self.modes_first)[self.sel].reshape(
            self.n_modes, v.shape[1], v.shape[0]
        )

    def scatter(self, zm: np.ndarray) -> np.ndarray:
        """(M, C, B) half-spectrum corner -> irfftn on (B, C, *padded)."""
        c, b = zm.shape[1:]
        zh = np.zeros((b, c) + self.half_shape, dtype=np.complex128)
        zh.transpose(self.modes_first)[self.sel] = zm.reshape(self.kdims + (c, b))
        return np.fft.irfftn(zh, s=self.padded_shape, axes=self.axes)


def _with_cond(x: np.ndarray, cond: np.ndarray | None, hyper: FnoHyper) -> np.ndarray:
    if x.shape[1] != hyper.in_channels:
        raise ContractError(
            f"expected {hyper.in_channels} input channels, got {x.shape[1]}"
        )
    if hyper.cond_dim == 0:
        return x
    if cond is None:
        raise ContractError(f"model expects {hyper.cond_dim} conditioning scalars")
    cond = np.asarray(cond, dtype=np.float64)
    if cond.ndim == 1:
        cond = np.broadcast_to(cond, (x.shape[0], cond.shape[0]))
    if cond.shape != (x.shape[0], hyper.cond_dim):
        raise ContractError(f"conditioning shape {cond.shape} != (B, {hyper.cond_dim})")
    spatial = x.shape[2:]
    planes = np.broadcast_to(
        cond.reshape(cond.shape + (1,) * len(spatial)), cond.shape + spatial
    )
    return np.concatenate([x, planes], axis=1)


def fno_forward_batch(
    params: FnoParams, x: np.ndarray, cond: np.ndarray | None = None
) -> tuple[np.ndarray, dict]:
    """Surrogate forward on (B, in_channels, *spatial); returns (out, tape)."""
    h = params.hyper
    a = params.arrays
    tape: dict = {"layers": [], "spatial": x.shape[2:]}

    x0 = _with_cond(x, cond, h)
    tape["x_aug"] = x0
    v = _pointwise(a["lift_w"], a["lift_b"], x0)

    pad = h.fno_padding or (0,) * h.ndim
    if any(pad):
        v = np.pad(v, [(0, 0), (0, 0)] + [(0, p) for p in pad])
    grid = _ModeGrid(v.shape[2:], h.modes)
    tape["modes"] = grid

    for l in range(h.n_layers):
        vm = grid.gather(v)
        w = grid.scatter(grid.kernel(a[f"spectral_{l}"]) @ vm)
        pre = _pointwise(a[f"pw_w_{l}"], a[f"pw_b_{l}"], v)
        pre += w
        v_in = v
        v, dact = activate(h.activation, pre)
        tape["layers"].append({"v": v_in, "vm": vm, "dact": dact})

    if any(pad):
        crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in x.shape[2:])
        tape["v_padded_shape"] = v.shape
        v = v[crop]
    tape["trunk_out"] = v

    hmid, tape["head_dact"] = activate(h.activation, _pointwise(a["head1_w"], a["head1_b"], v))
    tape["head_mid"] = hmid
    out = _pointwise(a["head2_w"], a["head2_b"], hmid)
    return out, tape


def fno_backward_batch(params: FnoParams, tape: dict, g_out: np.ndarray) -> dict[str, np.ndarray]:
    """Adjoint of fno_forward_batch -> gradients for every parameter group."""
    h = params.hyper
    a = params.arrays
    grads: dict[str, np.ndarray] = {}

    grads["head2_w"], grads["head2_b"], g_mid = _pointwise_adjoint(
        a["head2_w"], g_out, tape["head_mid"]
    )
    grads["head1_w"], grads["head1_b"], g_v = _pointwise_adjoint(
        a["head1_w"], g_mid * tape["head_dact"], tape["trunk_out"]
    )

    pad = h.fno_padding or (0,) * h.ndim
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in tape["spatial"])
    if any(pad):
        g_full = np.zeros(tape["v_padded_shape"])
        g_full[crop] = g_v
        g_v = g_full

    grid: _ModeGrid = tape["modes"]
    for l in reversed(range(h.n_layers)):
        rec = tape["layers"][l]
        g_pre = g_v * rec["dact"]
        grads[f"pw_w_{l}"], grads[f"pw_b_{l}"], g_v = _pointwise_adjoint(
            a[f"pw_w_{l}"], g_pre, rec["v"]
        )
        # spectral path: the forward irfftn's adjoint is rfftn / N, and the
        # forward rfftn's is N * irfftn with the same halving (the N cancel)
        gm = grid.gather(g_pre)
        g_k = (gm @ np.conj(rec["vm"]).transpose(0, 2, 1)) / grid.n_total
        grads[f"spectral_{l}"] = g_k.transpose(1, 2, 0).reshape(a[f"spectral_{l}"].shape)
        g_v += grid.scatter(np.conj(grid.kernel(a[f"spectral_{l}"])).transpose(0, 2, 1) @ gm)

    if any(pad):
        g_v = g_v[crop]

    grads["lift_w"], grads["lift_b"], _ = _pointwise_adjoint(a["lift_w"], g_v, tape["x_aug"])
    return grads


def pcno_forward_batch(
    params: FnoParams,
    x: np.ndarray,
    cond: np.ndarray | None = None,
    selector: str | None = None,
) -> tuple[np.ndarray, dict]:
    """Surrogate forward followed by the conservation projection, on the
    grid of ``x``'s trailing axes."""
    selector = params.hyper.selector if selector is None else selector
    raw, tape = fno_forward_batch(params, x, cond)
    out, proj_cache = compose_forward(raw, selector, params.projection())
    tape["proj"] = proj_cache
    return out, tape


def pcno_backward_batch(params: FnoParams, tape: dict, g_out: np.ndarray) -> dict[str, np.ndarray]:
    g, g_kernel, g_wspe = compose_backward(g_out, tape["proj"])
    grads = fno_backward_batch(params, tape, g)
    if "momentum_free" in params.arrays:
        grads["momentum_free"] = (
            g_kernel if g_kernel is not None else np.zeros_like(params.arrays["momentum_free"])
        )
    if "w_spe" in params.arrays:
        grads["w_spe"] = (
            g_wspe if g_wspe is not None else np.zeros_like(params.arrays["w_spe"])
        )
    return grads


def loss_relative_mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over the batch of |pred - target|^2 / |target|^2."""
    if pred.shape != target.shape:
        raise ContractError("prediction and target shapes differ")
    b = pred.shape[0]
    diff = (pred - target).reshape(b, -1)
    ref = target.reshape(b, -1)
    denom = np.sum(ref * ref, axis=1)
    if np.any(denom == 0.0):
        raise ContractError("relative MSE undefined for a zero-norm target")
    return float(np.mean(np.sum(diff * diff, axis=1) / denom))


def loss_relative_mse_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    b = pred.shape[0]
    denom = np.sum((target.reshape(b, -1)) ** 2, axis=1).reshape((b,) + (1,) * (pred.ndim - 1))
    return 2.0 * (pred - target) / (b * denom)
