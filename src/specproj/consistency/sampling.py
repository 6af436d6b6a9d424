"""Multistep consistency sampling, the stochastic one-step-ahead forecast,
and ensemble uncertainty estimation.

Sampling starts from x = f(t_max * z, t_max) and alternates noise injection
x + sqrt(t_n^2 - t_min^2) z with denoising f(., t_n) down the bundle's time
points; a single time point means one model evaluation and no injection
loop. The forecast step maps the model's input window to the next frame:
it clamps and denormalizes the draw, then adds it to the surrogate output
(residual kind) or takes it as the state (state kind).
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from ..grids import GridSpec
from ..rng import substream
from ..surrogate.fno import pcno_forward_batch
from ..surrogate.params import FnoParams
from ..surrogate.train import rollout
from .denoiser import DenoiserBundle
from .schedule import noise_injection_scale


def sample_multistep(
    bundle: DenoiserBundle,
    cond: np.ndarray | None,
    rng: np.random.Generator,
    batch: int = 1,
) -> np.ndarray:
    """Draw normalized samples (B, *field_shape) along the bundle's
    descending time points."""
    den = bundle.denoiser
    tps = bundle.time_points
    if len(tps) < 1:
        raise ContractError("need at least one time point")
    if any(b >= a for a, b in zip(tps, tps[1:])):
        raise ContractError(f"time points must be strictly descending, got {tps}")
    if abs(tps[0] - den.sched.t_max) > 1e-9 * den.sched.t_max:
        raise ContractError(f"time points must start at t_max = {den.sched.t_max}")
    shape = (batch,) + den.hyper.field_shape
    t_max = den.sched.t_max
    x_hat = t_max * rng.standard_normal(shape)
    x, _ = den.forward_batch(x_hat, np.full(batch, t_max), cond)
    for t_n in tps[1:]:
        z = rng.standard_normal(shape)
        x_hat = x + noise_injection_scale(t_n, den.sched) * z
        x, _ = den.forward_batch(x_hat, np.full(batch, t_n), cond)
    return x


def diffpcno_step(
    pcno: FnoParams,
    bundle: DenoiserBundle,
    window: np.ndarray,
    grid: GridSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Probabilistic one-step-ahead forecast of the frame after ``window``.
    The frozen surrogate gives u_hat; one draw conditioned on (window,
    u_hat), mapped back through the fitted range, is added to u_hat by a
    residual-kind bundle and replaces it for a state-kind one."""
    u_hat = pcno_forward_batch(pcno, window[None], grid)[0][0]
    cond = np.concatenate([window[None], u_hat[None]], axis=1)
    x = bundle.normalizer.inverse(sample_multistep(bundle, cond, rng))[0]
    return u_hat + x if bundle.kind == "residual" else x


def uncertainty_ensemble(
    step,
    window: np.ndarray,
    steps: int,
    n_traj: int = 50,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel, per-step empirical mean and standard deviation over
    independent ``rollout``s of ``step`` (one sample drawn per step, fed back
    into the window). Trajectories own disjoint RNG sub-streams, so the
    ensemble is order-independent and repeatable.
    """
    if n_traj < 2:
        raise ContractError("n_traj >= 2 required")
    acc = np.stack([rollout(step, window, steps, substream(seed, f"ensemble/{j}"))
                    for j in range(n_traj)])
    mean = acc.mean(axis=0)
    std = acc.std(axis=0, ddof=1)
    # a degenerate (deterministic) ensemble must report exact zeros, not the
    # rounding residue of mean-subtraction
    spread = acc.max(axis=0) - acc.min(axis=0)
    mean = np.where(spread == 0.0, acc[0], mean)
    std = np.where(spread == 0.0, 0.0, std)
    return mean, std
