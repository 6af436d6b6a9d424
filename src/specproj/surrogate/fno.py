"""Fourier-layer surrogate: lift, spectral + pointwise layers, two-layer
head, then the projection stages the model's ``selector`` names, and the
hand-derived reverse-mode gradients for all of it.

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

A taped forward returns, beside its output, what the backward reads and
cannot rebuild cheaply: ``x``, the conditioning, the mode grid, the
projection stages' caches, and per layer its pre-activation ``pre`` and its
corner modes. No forward builds an activation derivative, and each layer's
input is freed once its pointwise map has read it. The backward rebuilds
the rest from the tape by the forward's own operations, so every array has
the forward's bytes: last layer first, one in-place ``activate`` of layer
l's ``pre`` gives layer l + 1's input (the trunk's output for the last
layer) and layer l's derivative; layer 0's input is the lift of ``x``, and
the head's pre-activation comes from the trunk's output. A tape serves
one backward, which takes each entry out as it reads it, so the arrays go
as the gradients form and the tape is left empty; a second backward on it
raises ``ContractError``. ``tape=False`` is the inference forward: it keeps
no records, drops the projection cache and writes each activation into
its pre-activation, with the same output bytes.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ContractError
from ..projection import compose_backward, compose_forward
from ..spectral import crop, mode_grid, pad
from .params import FnoHyper, FnoParams

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_TILE = 16384  # float64 values: 128 KiB, so a tile and its scratch stay in cache


def activate(
    name: str, pre: np.ndarray, deriv: bool = True, *, in_place: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """(act(pre), act'(pre)); with ``deriv=False`` the derivative is not
    built and comes back as None. ``pre`` is left as it is, unless
    ``in_place``: then the value is written into ``pre`` and ``pre`` is
    returned as the value.

    ``gelu_tanh`` is the GELU in its tanh form (Hendrycks & Gimpel 2016):
    with s = 0.5 (1 + tanh(c (x + a x^3))), c = sqrt(2 / pi), a = 0.044715,
    the value is x s and the derivative s + k x s (1 - s), k = 2c (1 + 3a x^2).
    The value is built as x - x (1 - s) and the derivative as
    1 - (1 - s)(1 - k x s), forms that need no scratch beyond s. They run
    over tiles of ``_GELU_TILE`` values, so s and the tile's derivative stay
    in cache between the steps; each value sees the same operations in the
    same order whatever the tiling, and the value's bytes are the same with
    or without the derivative and in place or not."""
    if name == "gelu_tanh":
        flat = pre.reshape(-1)  # a copy when pre is not contiguous
        own = in_place and pre.flags.c_contiguous
        val = flat if own else np.empty_like(flat)
        d = np.empty_like(flat) if deriv else None
        s_buf = np.empty(min(flat.size, _GELU_TILE), dtype=flat.dtype)
        for i in range(0, flat.size, _GELU_TILE):
            x = flat[i:i + _GELU_TILE]
            s = s_buf[:x.size]
            np.multiply(x, x, out=s)
            s *= _GELU_A  # a x^2
            if deriv:
                dt = d[i:i + _GELU_TILE]
                np.multiply(s, 3.0, out=dt)
                dt += 1.0
                dt *= x
                dt *= 2.0 * _GELU_C  # k x
            s += 1.0
            s *= x
            s *= _GELU_C
            np.tanh(s, out=s)
            s += 1.0
            s *= 0.5  # s
            if deriv:
                dt *= s
                np.subtract(1.0, dt, out=dt)  # 1 - k x s
            np.subtract(1.0, s, out=s)  # 1 - s
            if deriv:
                dt *= s
                np.subtract(1.0, dt, out=dt)
            s *= x
            np.subtract(x, s, out=val[i:i + _GELU_TILE])  # x is read before it is written
        d = None if d is None else d.reshape(pre.shape)
        if not in_place:
            return val.reshape(pre.shape), d
        if not own:  # the value goes to pre itself, never only to its flat copy
            pre[...] = val.reshape(pre.shape)
        return pre, d
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


def _input_grad(w: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    """dL/dv of _pointwise for the upstream (B, O, *sp)."""
    bsz = g_out.shape[0]
    g_v = w.T @ g_out.reshape(bsz, g_out.shape[1], -1)
    return g_v.reshape((bsz, w.shape[1]) + g_out.shape[2:])


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


def _lift(a: dict, hyper: FnoHyper, x: np.ndarray, c: np.ndarray | None) -> np.ndarray:
    """The lift of (x, c), padded: the first layer's input."""
    n_in = hyper.in_channels
    bias = a["lift_b"] if c is None else c @ a["lift_w"][:, n_in:].T + a["lift_b"]
    return pad(_pointwise(a["lift_w"][:, :n_in], bias, x), hyper.fno_padding)


def fno_forward_batch(
    params: FnoParams, x: np.ndarray, cond: np.ndarray | None = None, *, tape: bool = True
) -> tuple[np.ndarray, dict | None]:
    """Surrogate forward on (B, in_channels, *spatial): the network, then the
    stages the model's ``selector`` names (none for ``none``), with its
    weights; returns (out, tape). With ``tape=False`` nothing is kept for a
    backward and the tape comes back as None; ``out`` has the same bytes
    either way."""
    h = params.hyper
    a = params.arrays

    c = _cond_of(x, cond, h)
    v = _lift(a, h, x, c)
    grid = mode_grid(v.shape[2:], h.modes)

    layers = []
    for l in range(h.n_layers):
        vm = grid.gather(v)
        pre = _pointwise(a[f"pw_w_{l}"], a[f"pw_b_{l}"], v)
        del v  # the backward rebuilds it
        pre += grid.scatter(grid.kernel(a[f"spectral_{l}"]) @ vm)
        if tape:
            layers.append({"pre": pre, "vm": vm})
        del vm
        v, _ = activate(h.activation, pre, deriv=False, in_place=not tape)
        del pre

    v = crop(v, x.shape[2:])
    hmid, _ = activate(h.activation, _pointwise(a["head1_w"], a["head1_b"], v),
                       deriv=False, in_place=True)
    del v
    out, proj = compose_forward(_pointwise(a["head2_w"], a["head2_b"], hmid), h.selector,
                                kernel=a.get("momentum_free"), w_spe=a.get("w_spe"),
                                padding=h.momentum_padding)
    if not tape:
        return out, None
    return out, {"x": x, "cond": c, "modes": grid, "layers": layers, "proj": proj}


def _check_tape(tape: dict | None) -> None:
    if not tape:
        raise ContractError("empty tape: a tape serves one backward, and a forward "
                            "with tape=False keeps none")


def fno_backward_batch(params: FnoParams, tape: dict, g_out: np.ndarray) -> dict[str, np.ndarray]:
    """Adjoint of fno_forward_batch -> gradients for every parameter group,
    stage weights included. The tape is single-use: each entry is taken out
    of it as it is read, so its arrays are freed as the backward goes, and
    the tape is left empty. It rebuilds each layer's input and derivative
    as it reaches the layer (see the module docstring), so it holds the
    ``pre`` arrays below that layer, not every layer's input and derivative
    at once."""
    _check_tape(tape)
    h = params.hyper
    a = params.arrays
    grads: dict[str, np.ndarray] = {}
    g_out, g_kernel, g_wspe = compose_backward(g_out, tape.pop("proj"))
    x, c = tape.pop("x"), tape.pop("cond")
    grid = tape.pop("modes")
    layers = tape.pop("layers")

    def layer_input(l: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(layer l's input, layer l - 1's activation derivative); layer
        n_layers' input is the trunk's output, layer 0's the lift."""
        if l == 0:
            return _lift(a, h, x, c), None
        return activate(h.activation, layers[l - 1].pop("pre"), in_place=True)

    v, dact = layer_input(h.n_layers)
    v = crop(v, x.shape[2:])
    hmid, head_dact = activate(h.activation, _pointwise(a["head1_w"], a["head1_b"], v),
                               in_place=True)
    grads["head2_w"], grads["head2_b"] = _affine_grads(g_out, hmid)
    del hmid
    g_mid = _input_grad(a["head2_w"], g_out)
    g_mid *= head_dact  # g_mid is fresh
    del head_dact
    grads["head1_w"], grads["head1_b"] = _affine_grads(g_mid, v)
    del v
    g_v = pad(_input_grad(a["head1_w"], g_mid), h.fno_padding)
    del g_mid

    for l in reversed(range(h.n_layers)):
        g_pre = g_v  # every g_v here is a fresh array: scale it in place
        g_pre *= dact
        v, dact = layer_input(l)
        grads[f"pw_w_{l}"], grads[f"pw_b_{l}"] = _affine_grads(g_pre, v)
        del v
        # spectral path: the forward scatter's adjoint is gather / N, and the
        # forward gather's is N * scatter (the N cancel)
        gm = grid.gather(g_pre)
        g_k = gm @ np.conj(layers.pop()["vm"]).transpose(0, 2, 1)
        g_k /= grid.n_total
        grads[f"spectral_{l}"] = grid.storage(g_k)
        k_adj = grid.kernel(a[f"spectral_{l}"])
        np.conjugate(k_adj, out=k_adj)
        g_v = grid.scatter(k_adj.transpose(0, 2, 1) @ gm)
        del gm
        g_v += _input_grad(a[f"pw_w_{l}"], g_pre)  # pointwise part: the sum commutes
        del g_pre

    g_v = crop(g_v, x.shape[2:])
    g_w, grads["lift_b"] = _affine_grads(g_v, x)
    if c is not None:  # the bias W_c c sees each sample's spatial sum
        g_sum = g_v.reshape(x.shape[0], g_v.shape[1], -1).sum(axis=2)
        g_w = np.concatenate([g_w, g_sum.T @ c], axis=1)
    grads["lift_w"] = g_w
    for name, g in (("momentum_free", g_kernel), ("w_spe", g_wspe)):
        if g is not None:  # the selector runs every stage whose weights the model holds
            grads[name] = g
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
