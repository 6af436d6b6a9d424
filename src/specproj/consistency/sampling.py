"""Multistep consistency sampling, the stochastic one-step-ahead forecast,
and ensemble uncertainty estimation.

Sampling starts from x = f(t_max * z, t_max) and alternates noise injection
x + sqrt(t_n^2 - t_min^2) z with denoising f(., t_n) down the bundle's time
points; a single time point means one model evaluation and no injection
loop. The forecast step maps a batch of input windows to their next frames:
it clamps and denormalizes the draws of the residual around the frozen
surrogate's output u_hat, projects them onto the fields that surrogate's
stages let its output move by, and adds them to u_hat. So a frame over a
mass stage is divergence-free as u_hat is, and one over a momentum stage
has u_hat's channel sums.

The uncertainty ensemble steps all its members together. Each member draws
its normals from its own generator, and one denoiser forward per time point
serves every member; the frozen surrogate runs per member, at batch 1. The
mean and spread are taken over the members at each step as its frames come,
so no member trajectory is kept.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..projection import mass_project_forward
from ..rng import substream
from ..surrogate import FnoParams, rollout, surrogate_step
from .denoiser import DenoiserBundle
from .schedule import T_MAX, check_time_points, noise_injection_scale


def sample_multistep(
    bundle: DenoiserBundle,
    cond: np.ndarray,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Draw normalized samples (B, channels, *grid) on the grid of ``cond``
    along the bundle's descending time points, one per generator in
    ``rngs``. Sample j takes its normals from ``rngs[j]`` alone, so it does
    not depend on the others."""
    den = bundle.denoiser
    tps = bundle.time_points
    check_time_points(tps)
    shape = (1, den.hyper.channels) + cond.shape[2:]

    def normals():
        return np.concatenate([rng.standard_normal(shape) for rng in rngs])

    x, _ = den.forward_batch(T_MAX * normals(), np.full(len(rngs), T_MAX), cond, tape=False)
    for t_n in tps[1:]:
        x_hat = x + noise_injection_scale(t_n) * normals()
        x, _ = den.forward_batch(x_hat, np.full(len(rngs), t_n), cond, tape=False)
    return x


def diffpcno_step(
    pcno: FnoParams,
    bundle: DenoiserBundle,
    windows: np.ndarray,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Probabilistic one-step-ahead forecast of the frames after ``windows``
    (B, C_in, *spatial), one generator per window. The frozen surrogate gives
    u_hat; residual draws conditioned on (window, u_hat), mapped back through
    the fitted range, are added to u_hat after the fixed orthogonal
    projection onto the fields the surrogate's stages let u_hat move by: each
    channel's mean removed for momentum, the Leray projection for mass, both
    for both, none for none. The projection is linear, so an ensemble mean
    stays in the set too."""
    u_hat = surrogate_step(pcno)(windows)
    cond = np.concatenate([windows, u_hat], axis=1)
    x = bundle.normalizer.inverse(sample_multistep(bundle, cond, rngs))
    if pcno.hyper.selector in ("momentum", "both"):
        x -= x.mean(axis=tuple(range(2, x.ndim)), keepdims=True)
    if pcno.hyper.selector in ("mass", "both"):
        x = mass_project_forward(x)[0]
    return u_hat + x


def uncertainty_ensemble(
    step,
    window: np.ndarray,
    steps: int,
    n_traj: int = 50,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel, per-step empirical mean and standard deviation over
    ``n_traj`` independent trajectories of ``step`` from ``window``, all
    stepped together by one ``rollout`` (one sample drawn per step, fed back
    into each member's window). Member j owns the sub-stream
    ``ensemble/j``, so the ensemble is order-independent and repeatable.
    """
    if n_traj < 2:
        raise ContractError("n_traj >= 2 required")
    rngs = [substream(seed, f"ensemble/{j}") for j in range(n_traj)]
    windows = np.repeat(window[None], n_traj, axis=0)
    for s, frames in enumerate(rollout(step, windows, steps, rngs)):
        if s == 0:
            mean = np.empty((steps,) + frames.shape[1:])
            std = np.empty_like(mean)
        # a degenerate (deterministic) ensemble must report exact zeros, not
        # the rounding residue of mean-subtraction
        same = frames.max(axis=0) - frames.min(axis=0) == 0.0
        mean[s] = np.where(same, frames[0], frames.mean(axis=0))
        std[s] = np.where(same, 0.0, frames.std(axis=0, ddof=1))
    return mean, std
