"""Adam with decoupled weight decay and a cosine-annealed learning rate.
The moment decay rates and the denominator's epsilon are the usual fixed
(0.9, 0.999) and 1e-8.

Parameters live in a flat name -> ndarray dict and are updated in place.
Complex arrays are treated as interleaved (re, im) float pairs; gradients
for complex parameters follow the convention g.real = dL/dRe, g.imag =
dL/dIm, so the float views line up elementwise.

A step allocates nothing: each group is walked in fixed blocks of
_BLOCK elements that stay in cache, and every moment, parameter and scratch
update is written in place. The elementwise operations and their order are
those of the textbook out-of-place update, so the result is bit-identical
to it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError

_BLOCK = 32768  # float64 elements per block: 256 KiB per operand
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    if total_steps <= 0:
        return lr0
    frac = min(max(step / total_steps, 0.0), 1.0)
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * frac))


def _float_view(a: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a):
        return a.view(np.float64)
    return a


def _flat(a: np.ndarray) -> np.ndarray:
    """1-D float64 view of a contiguous real or complex array."""
    try:
        return _float_view(a).reshape(-1, copy=False)
    except ValueError:
        raise ContractError("Adam needs C-contiguous parameter arrays") from None


class Adam:
    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(_flat(v)) for k, v in params.items()}
        self.v = {k: np.zeros_like(_flat(v)) for k, v in params.items()}
        size = min(max((m.size for m in self.m.values()), default=0), _BLOCK)
        self._s1 = np.empty(size)
        self._s2 = np.empty(size)

    def step(self, grads: dict[str, np.ndarray], lr: float | None = None) -> None:
        self.t += 1
        lr = self.lr if lr is None else lr
        b1, b2, c1, c2 = BETA1, BETA2, 1.0 - BETA1, 1.0 - BETA2
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        eps, wd = EPS, self.weight_decay
        for name, p in self.params.items():
            pf = _flat(p)
            g = _flat(np.ascontiguousarray(grads[name]))
            m, v = self.m[name], self.v[name]
            for lo in range(0, pf.size, _BLOCK):
                hi = min(lo + _BLOCK, pf.size)
                gb, mb, vb, pb = g[lo:hi], m[lo:hi], v[lo:hi], pf[lo:hi]
                s1, s2 = self._s1[: hi - lo], self._s2[: hi - lo]
                # m = b1 m + (1 - b1) g
                mb *= b1
                np.multiply(c1, gb, out=s1)
                mb += s1
                # v = b2 v + (1 - b2) g g
                vb *= b2
                np.multiply(c2, gb, out=s1)
                s1 *= gb
                vb += s1
                # update = (m / bc1) / (sqrt(v / bc2) + eps) [+ wd p]
                np.divide(vb, bc2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += eps
                np.divide(mb, bc1, out=s2)
                s2 /= s1
                if wd:
                    np.multiply(wd, pb, out=s1)
                    s2 += s1
                # p -= lr update
                s2 *= lr
                pb -= s2
