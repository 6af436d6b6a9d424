"""Conditional consistency training (CT).

The caller passes the normalized quantity to be noised (the CLI's DiffPCNO
corrector passes the residual y - u_hat around the frozen surrogate's
forecast) and the conditioning frames (u_t, u_hat) of that surrogate;
nothing here updates the surrogate.

Each step evaluates the model at adjacent noise levels with one shared noise
draw per sample and pulls the lower-level (teacher) branch out of the
differentiation tape (teacher weights equal student weights; no EMA). The
distance is Pseudo-Huber per sample, with the fixed c = 0.00054 sqrt(D)
for D values per sample, weighted by 1 / (t_{i+1} - t_i), and averaged
over the batch, so the loss is invariant to sample order. The optimizer is
Adam with no weight decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericsError
from ..optim import Adam
from ..rng import substream
from ..runconfig import AT_LEAST_1, POSITIVE, SEED, check_fields, setting
from .denoiser import ToyDenoiser
from .schedule import curriculum_n, default_huber_c, sample_index, timesteps

_DIVERGE = 1e6


def consistency_pair_loss(
    denoiser: ToyDenoiser,
    x_clean: np.ndarray,
    cond: np.ndarray,
    t_lo: np.ndarray,
    t_hi: np.ndarray,
    z: np.ndarray,
) -> tuple[float, float, dict[str, np.ndarray]]:
    """Weighted CT loss for explicit (t_lo, t_hi, z), with the
    dimension-scaled Pseudo-Huber constant c.

    Returns (loss, mean unweighted distance, parameter gradients). When the
    two branch inputs coincide (t_lo == t_hi elementwise) the distance is
    exactly zero with exactly zero gradients; the weighted loss is reported
    as zero in that degenerate case.
    """
    t_lo = np.asarray(t_lo, dtype=np.float64)
    t_hi = np.asarray(t_hi, dtype=np.float64)
    if np.any(t_hi < t_lo):
        raise ContractError("need t_hi >= t_lo")
    x_hi = x_clean + t_hi.reshape((-1,) + (1,) * (x_clean.ndim - 1)) * z
    x_lo = x_clean + t_lo.reshape((-1,) + (1,) * (x_clean.ndim - 1)) * z
    f_hi, tape = denoiser.forward_batch(x_hi, t_hi, cond)
    f_lo, _ = denoiser.forward_batch(x_lo, t_lo, cond, tape=False)  # teacher: outside the tape

    b = x_clean.shape[0]
    c = default_huber_c(int(np.prod(x_clean.shape[1:])))
    diff = (f_hi - f_lo).reshape(b, -1)
    d2 = np.sum(diff * diff, axis=1)
    dist = np.sqrt(d2 + c * c) - c
    gap = t_hi - t_lo
    weights = np.where(gap > 0, 1.0 / np.where(gap > 0, gap, 1.0), 0.0)
    loss = float(np.mean(weights * dist))
    # d(dist)/d(f_hi) = (f_hi - f_lo) / sqrt(|diff|^2 + c^2)
    scale = (weights / (b * np.sqrt(d2 + c * c))).reshape((-1,) + (1,) * (x_clean.ndim - 1))
    grads = denoiser.backward_batch(tape, scale * (f_hi - f_lo))
    return loss, float(np.mean(dist)), grads


def ct_loss(
    denoiser: ToyDenoiser,
    x_clean: np.ndarray,
    cond: np.ndarray,
    k: int,
    cfg: CtConfig,
    rng: np.random.Generator,
) -> tuple[float, dict[str, np.ndarray]]:
    """CT loss at training step k of ``cfg``'s curriculum: per sample, one
    adjacent time pair of its discretization, then one noise draw shared by
    both branches."""
    n = curriculum_n(k, cfg)
    ts = timesteps(n)
    idx = sample_index(n, rng, size=x_clean.shape[0])
    z = rng.standard_normal(x_clean.shape)
    loss, _, grads = consistency_pair_loss(denoiser, x_clean, cond, ts[idx - 1], ts[idx], z)
    return loss, grads


@dataclass(frozen=True)
class CtConfig:
    steps: int = setting(AT_LEAST_1, 2000)
    batch: int = setting(AT_LEAST_1, 32)
    lr: float = setting(POSITIVE, 1e-3)
    s0: int = setting(AT_LEAST_1, 10)
    s1: int = setting(AT_LEAST_1, 1280)
    seed: int = setting(SEED, 0)

    def __post_init__(self):
        check_fields(self)
        if self.s0 > self.s1:
            raise ContractError(f"s0 <= s1 required, got s0 = {self.s0}, s1 = {self.s1}")


def train_ct(
    denoiser: ToyDenoiser,
    x_clean: np.ndarray,
    cond: np.ndarray,
    cfg: CtConfig,
) -> tuple[ToyDenoiser, list[tuple[int, float, float]]]:
    """Run cfg.steps CT steps over a fixed normalized set x_clean (N, *field)
    with per-sample conditioning cond (N, *cond).

    Deterministic given cfg.seed; returns (trained denoiser, loss curve).
    """
    n = x_clean.shape[0]
    if cond.shape[0] != n:
        raise ContractError("x_clean and cond disagree on sample count")
    denoiser = denoiser.copy()
    rng = substream(cfg.seed, "ct/train")
    opt = Adam(denoiser.arrays, lr=cfg.lr)
    curve = []
    for k in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch, n))
        loss, grads = ct_loss(denoiser, x_clean[idx], cond[idx], k, cfg, rng)
        if not math.isfinite(loss) or loss > _DIVERGE:
            raise NumericsError(f"consistency training diverged at step {k}: {loss:.3e}")
        opt.step(grads)
        del grads  # one gradient set alive: this step's goes before the next forward
        curve.append((k, loss, cfg.lr))
    return denoiser, curve
