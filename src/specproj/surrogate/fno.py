"""Fourier-layer surrogate: lift, spectral + pointwise layers, two-layer
head, optional conservation projection on the output, and the hand-derived
reverse-mode gradients for all of it.

Shapes are batched and channel-major throughout: (B, C, *spatial), and every
pointwise map (lift, per-layer linear, head) is one `W @ v.reshape(B, C, -1)`.
Conditioning scalars c enter the lift as a per-sample bias:
lift(concat(x, c)) = W_x x + (W_c c + b), so no constant planes are built;
the adjoint of that bias sums the upstream gradient over space.

Each layer's spectral path runs on the corner mode set through
``spectral.mode_grid``: gather the corner of the layer's input, one batched
matmul (M, O, I) @ (M, I, B) over the M retained modes, scatter. So the
layer's output is Re(sum over the corner of W v^ e^{+ik.x}) / N, the complex
form of the layer, with every k_last slot weighted once; its kernel gradient
is the corner of sum_b g^ conj(v^) / N, not doubled anywhere. On the input
path the adjoint of the spectral multiply is the conjugate-transposed
kernel between N * scatter and gather / N, and the two N cancel.

A taped forward returns, beside its output, what the backward reads: each
layer's input, corner modes and activation derivative, the head's, and the
projection stages' caches. A tape serves one backward, which takes each
entry out as it reads it, so the arrays go as the gradients form and the
tape is left empty; a second backward on it raises ``ContractError``.
``tape=False`` is the inference forward: it keeps no records, builds no
activation derivative, drops the projection cache and frees each layer's
input once the layer has read it, with the same output bytes.

The GELU's erf is ``specproj._erf``, a NumPy port of the Cephes rational
approximations SciPy uses; it is within 1 ulp of ``scipy.special.erf``.
"""

from __future__ import annotations

import numpy as np

from .._erf import erf
from ..errors import ContractError
from ..projection import compose_backward, compose_forward
from ..spectral import crop, mode_grid, pad
from .params import FnoHyper, FnoParams

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def activate(
    name: str, pre: np.ndarray, deriv: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """(act(pre), act'(pre)), leaving ``pre`` as it is; with ``deriv=False``
    the derivative is not built and comes back as None. GELU evaluates erf
    (the NumPy port in ``specproj._erf``) once for both and builds each in
    one buffer, in the operation order of cdf = 0.5 * (1 + erf(pre / sqrt 2)),
    (pre * cdf, cdf + pre * exp(-0.5 * pre * pre) / sqrt(2 pi)), so the bytes
    are that formula's either way."""
    if name == "gelu":
        cdf = erf(pre / _SQRT2)
        cdf += 1.0
        cdf *= 0.5
        d = None
        if deriv:
            d = pre * -0.5
            d *= pre
            np.exp(d, out=d)
            d *= pre
            d *= _INV_SQRT_2PI
            d += cdf
        cdf *= pre
        return cdf, d
    if name == "identity":
        return pre, np.ones_like(pre) if deriv else None
    raise ContractError(f"unknown activation {name!r}")


def _pointwise(w: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W @ v + b over the channel axis of (B, I, *sp) -> (B, O, *sp); b is
    (O,), or (B, O) for a per-sample bias."""
    bsz = v.shape[0]
    out = w @ v.reshape(bsz, v.shape[1], -1)
    out += b[..., None]
    return out.reshape((bsz, w.shape[0]) + v.shape[2:])


def _affine_grads(g_out: np.ndarray, vin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dL/dW, dL/db) of _pointwise for the upstream (B, O, *sp)."""
    bsz = g_out.shape[0]
    g = g_out.reshape(bsz, g_out.shape[1], -1)
    v = vin.reshape(bsz, vin.shape[1], -1)
    return (g @ v.transpose(0, 2, 1)).sum(axis=0), g.sum(axis=(0, 2))


def _pointwise_adjoint(
    w: np.ndarray, g_out: np.ndarray, vin: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dL/dW, dL/db, dL/dv) of _pointwise for the upstream (B, O, *sp)."""
    g_w, g_b = _affine_grads(g_out, vin)
    g_v = (w.T @ g_out.reshape(g_out.shape[0], g_out.shape[1], -1)).reshape(vin.shape)
    return g_w, g_b, g_v


def _cond_of(x: np.ndarray, cond: np.ndarray | None, hyper: FnoHyper) -> np.ndarray | None:
    """The (B, cond_dim) conditioning of a batch, or None for an
    unconditioned model."""
    if x.shape[1] != hyper.in_channels:
        raise ContractError(
            f"expected {hyper.in_channels} input channels, got {x.shape[1]}"
        )
    if hyper.cond_dim == 0:
        return None
    if cond is None:
        raise ContractError(f"model expects {hyper.cond_dim} conditioning scalars")
    cond = np.asarray(cond, dtype=np.float64)
    if cond.ndim == 1:
        cond = np.broadcast_to(cond, (x.shape[0], cond.shape[0]))
    if cond.shape != (x.shape[0], hyper.cond_dim):
        raise ContractError(f"conditioning shape {cond.shape} != (B, {hyper.cond_dim})")
    return cond


def fno_forward_batch(
    params: FnoParams, x: np.ndarray, cond: np.ndarray | None = None, *, tape: bool = True
) -> tuple[np.ndarray, dict | None]:
    """Surrogate forward on (B, in_channels, *spatial); returns (out, tape).
    With ``tape=False`` nothing is kept for a backward, no activation
    derivative is built, and the tape comes back as None; ``out`` has the
    same bytes either way."""
    h = params.hyper
    a = params.arrays

    c = _cond_of(x, cond, h)
    n_in = h.in_channels
    bias = a["lift_b"] if c is None else c @ a["lift_w"][:, n_in:].T + a["lift_b"]
    v = _pointwise(a["lift_w"][:, :n_in], bias, x)

    v = pad(v, h.fno_padding)
    grid = mode_grid(v.shape[2:], h.modes)

    layers = []
    for l in range(h.n_layers):
        vm = grid.gather(v)
        pre = _pointwise(a[f"pw_w_{l}"], a[f"pw_b_{l}"], v)
        pre += grid.scatter(grid.kernel(a[f"spectral_{l}"]) @ vm)
        if tape:
            layers.append({"v": v, "vm": vm})
        del v, vm  # only a tape keeps them past this point
        v, dact = activate(h.activation, pre, deriv=tape)
        del pre
        if tape:
            layers[-1]["dact"] = dact

    v = crop(v, x.shape[2:])
    hmid, head_dact = activate(h.activation, _pointwise(a["head1_w"], a["head1_b"], v), deriv=tape)
    out = _pointwise(a["head2_w"], a["head2_b"], hmid)
    if not tape:
        return out, None
    return out, {"x": x, "cond": c, "modes": grid, "layers": layers, "trunk_out": v,
                 "head_mid": hmid, "head_dact": head_dact}


def _check_tape(tape: dict | None) -> None:
    if not tape:
        raise ContractError("empty tape: a tape serves one backward, and a forward "
                            "with tape=False keeps none")


def fno_backward_batch(params: FnoParams, tape: dict, g_out: np.ndarray) -> dict[str, np.ndarray]:
    """Adjoint of fno_forward_batch -> gradients for every parameter group.
    The tape is single-use: each entry is taken out of it as it is read, so
    its arrays are freed as the backward goes, and the tape is left empty."""
    _check_tape(tape)
    h = params.hyper
    a = params.arrays
    grads: dict[str, np.ndarray] = {}

    grads["head2_w"], grads["head2_b"], g_mid = _pointwise_adjoint(
        a["head2_w"], g_out, tape.pop("head_mid")
    )
    g_mid *= tape.pop("head_dact")  # g_mid is fresh
    grads["head1_w"], grads["head1_b"], g_v = _pointwise_adjoint(
        a["head1_w"], g_mid, tape.pop("trunk_out")
    )
    del g_mid

    g_v = pad(g_v, h.fno_padding)
    grid = tape.pop("modes")
    layers = tape.pop("layers")
    for l in reversed(range(h.n_layers)):
        rec = layers.pop()
        g_pre = g_v  # every g_v here is a fresh array: scale it in place
        g_pre *= rec["dact"]
        grads[f"pw_w_{l}"], grads[f"pw_b_{l}"], g_v = _pointwise_adjoint(
            a[f"pw_w_{l}"], g_pre, rec["v"]
        )
        # spectral path: the forward scatter's adjoint is gather / N, and the
        # forward gather's is N * scatter (the N cancel)
        gm = grid.gather(g_pre)
        g_k = gm @ np.conj(rec["vm"]).transpose(0, 2, 1)
        g_k /= grid.n_total
        grads[f"spectral_{l}"] = grid.storage(g_k)
        k_adj = grid.kernel(a[f"spectral_{l}"])
        np.conjugate(k_adj, out=k_adj)
        g_v += grid.scatter(k_adj.transpose(0, 2, 1) @ gm)

    x, c = tape.pop("x"), tape.pop("cond")
    g_v = crop(g_v, x.shape[2:])
    g_w, grads["lift_b"] = _affine_grads(g_v, x)
    if c is not None:  # the bias W_c c sees each sample's spatial sum
        g_sum = g_v.reshape(x.shape[0], g_v.shape[1], -1).sum(axis=2)
        g_w = np.concatenate([g_w, g_sum.T @ c], axis=1)
    grads["lift_w"] = g_w
    return grads


def pcno_forward_batch(
    params: FnoParams,
    x: np.ndarray,
    cond: np.ndarray | None = None,
    selector: str | None = None,
    *,
    tape: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Surrogate forward followed by the conservation projection, on the
    grid of ``x``'s trailing axes. ``tape=False`` as in fno_forward_batch:
    the projection's cache is dropped too."""
    selector = params.hyper.selector if selector is None else selector
    raw, fwd_tape = fno_forward_batch(params, x, cond, tape=tape)
    out, proj_cache = compose_forward(raw, selector, params.projection())
    if tape:
        fwd_tape["proj"] = proj_cache
    return out, fwd_tape


def pcno_backward_batch(params: FnoParams, tape: dict, g_out: np.ndarray) -> dict[str, np.ndarray]:
    """Adjoint of pcno_forward_batch; it uses the tape up, as fno_backward_batch."""
    _check_tape(tape)
    g, g_kernel, g_wspe = compose_backward(g_out, tape.pop("proj"))
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
