"""The in-place, cache-blocked Adam against the textbook out-of-place update.

Both evaluate the same elementwise operations in the same order, so the
parameters and moments must agree bit for bit, not to a tolerance.
"""

import numpy as np
import pytest

from specproj.errors import ContractError
from specproj.optim import _BLOCK, Adam, cosine_lr


def reference_adam(params, grad_seq, lrs, lr0, betas=(0.9, 0.999), eps=1e-8, wd=0.0):
    """Out-of-place Adam with decoupled weight decay on float views."""
    b1, b2 = betas
    params = {k: v.copy() for k, v in params.items()}

    def fv(a):
        return a.view(np.float64) if np.iscomplexobj(a) else a

    m = {k: np.zeros_like(fv(v)) for k, v in params.items()}
    v2 = {k: np.zeros_like(fv(v)) for k, v in params.items()}
    for t, (grads, lr) in enumerate(zip(grad_seq, lrs), start=1):
        lr = lr0 if lr is None else lr
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        for name, p in params.items():
            g = fv(np.ascontiguousarray(grads[name]))
            pf = fv(p)
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v2[name] = b2 * v2[name] + (1.0 - b2) * g * g
            update = (m[name] / bc1) / (np.sqrt(v2[name] / bc2) + eps)
            if wd:
                update = update + wd * pf
            pf[...] = pf - lr * update
    return params


def _groups(rng):
    n_big = 2 * _BLOCK + 123  # several blocks, last one partial
    return {
        "real_small": rng.standard_normal((3, 5)),
        "real_one_block": rng.standard_normal(_BLOCK),
        "real_big": rng.standard_normal((n_big,)),
        "complex_small": rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4)),
        # 2 * 20000 floats: more than one block, not a multiple of it
        "complex_big": rng.standard_normal((4, 5000)) + 1j * rng.standard_normal((4, 5000)),
    }


@pytest.mark.parametrize("wd", [0.0, 1e-2])
def test_in_place_adam_bit_identical_to_reference(wd):
    rng = np.random.default_rng(0)
    params = _groups(rng)
    start = {k: v.copy() for k, v in params.items()}
    grad_seq = []
    for _ in range(5):
        grads = {}
        for k, p in params.items():
            g = rng.standard_normal(p.shape)
            if np.iscomplexobj(p):
                g = g + 1j * rng.standard_normal(p.shape)
            grads[k] = g
        grad_seq.append(grads)
    lrs = [None, cosine_lr(1, 5, 3e-3), cosine_lr(2, 5, 3e-3), 1e-4, None]

    opt = Adam(params, lr=3e-3, weight_decay=wd)
    for grads, lr in zip(grad_seq, lrs):
        opt.step(grads, lr=lr)
    ref = reference_adam(start, grad_seq, lrs, 3e-3, wd=wd)
    for k in params:
        assert np.array_equal(params[k], ref[k]), k
        assert not np.array_equal(params[k], start[k]), k


def test_parameter_without_flat_view_rejected():
    with pytest.raises(ContractError):
        Adam({"w": np.zeros((4, 6)).T})

