"""Noise schedule, discretization curriculum, index sampling and the small
scalar functions of consistency training.

The curriculum is that of improved consistency training (Song & Dhariwal
2023, arXiv 2310.14189); ``curriculum_n`` reads it off a ``CtConfig``.

The noise schedule is fixed, the standard one of consistency training (the
six constants below); no function takes one. ``SCHEDULE`` names its values
as a denoiser file records them.

The time grid is t_i = (t_min^(1/rho) + (i-1)/(N-1) * (t_max^(1/rho) -
t_min^(1/rho)))^rho with endpoints pinned exactly to (t_min, t_max); the
power chain does not round-trip in floating point and the endpoints are
contractual. Index sampling follows the discretized lognormal law with
sigma_i identified with t_i.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import ContractError

T_MIN = 0.002
T_MAX = 80.0
RHO = 7.0
SIGMA_DATA = 0.5
P_MEAN = -1.1
P_STD = 2.0

# the schedule lines of a denoiser file, in the order they are written
SCHEDULE = {"t_min": T_MIN, "t_max": T_MAX, "rho": RHO, "sigma_data": SIGMA_DATA,
            "p_mean": P_MEAN, "p_std": P_STD}


def timesteps(n: int) -> np.ndarray:
    """All t_1..t_N as an array (index 0 holds t_1); strictly increasing,
    endpoints exact."""
    if n < 2:
        raise ContractError("N >= 2 required")
    inv_rho = 1.0 / RHO
    a = T_MIN**inv_rho
    b = T_MAX**inv_rho
    t = (a + np.arange(n) / (n - 1) * (b - a)) ** RHO
    t[0] = T_MIN
    t[-1] = T_MAX
    return t


def curriculum_n(k: int, cfg) -> int:
    """N(k) = min(s0 * 2^floor(k / K'), s1) + 1 at step k of a ``CtConfig``
    ``cfg``, in integer arithmetic: K' = floor(steps / (D + 1)) for the
    D = floor(log2(s1 / s0)) times N doubles before its cap."""
    if not 0 <= k < cfg.steps:
        raise ContractError(f"step k = {k} outside 0..{cfg.steps - 1}")
    d = (cfg.s1 // cfg.s0).bit_length() - 1  # floor(log2(s1 / s0)), exactly
    kp = cfg.steps // (d + 1)
    doublings = k // kp if kp > 0 else d
    return min(cfg.s0 * (2**doublings), cfg.s1) + 1


def index_weights(n: int) -> np.ndarray:
    """Normalized p(i) over i in 1..N-1 (array position i-1):
    p(i) ~ erf((log sigma_{i+1} - P_mean)/(sqrt(2) P_std))
         - erf((log sigma_i   - P_mean)/(sqrt(2) P_std)),
    with ``math.erf`` on each of the N values."""
    t = timesteps(n)
    z = (np.log(t) - P_MEAN) / (math.sqrt(2.0) * P_STD)
    w = np.diff(np.fromiter(map(math.erf, z), np.float64, n))
    if np.any(w <= 0):
        raise ContractError("index weights must be positive")
    return w / w.sum()


@functools.lru_cache(maxsize=64)
def _cached_index_weights(n: int) -> np.ndarray:
    """index_weights(n), computed once per N; read-only."""
    w = index_weights(n)
    w.flags.writeable = False
    return w


def sample_index(n: int, rng: np.random.Generator, size: int | None = None):
    """Draw i in 1..N-1 from the discretized lognormal law: one int, or with
    ``size`` an array of that many, drawn in one call whose stream is that
    of ``size`` single draws. N = 2 draws nothing."""
    if n == 2:
        return 1 if size is None else np.ones(size, dtype=np.int64)
    w = _cached_index_weights(n)
    if size is None:
        return int(rng.choice(n - 1, p=w)) + 1
    return rng.choice(n - 1, size=size, p=w) + 1


def default_huber_c(dim: int) -> float:
    """c = 0.00054 * sqrt(D) for flattened data dimension D."""
    return 0.00054 * math.sqrt(dim)


def skip_out_coeffs(t):
    """(c_skip, c_out) at t, a scalar or an array of t, with c_skip(t_min) = 1
    and c_out(t_min) = 0 exactly:
    c_skip = sd^2 / ((t - t_min)^2 + sd^2), c_out = sd (t - t_min) / sqrt(sd^2 + t^2)."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < T_MIN):
        raise ContractError(f"t = {t.min()} below t_min")
    sd = SIGMA_DATA
    dt = t - T_MIN
    c_skip = sd * sd / (dt * dt + sd * sd)
    c_out = sd * dt / np.sqrt(sd * sd + t * t)
    return c_skip, c_out


def check_time_points(tps: tuple[float, ...]) -> None:
    """Refuse sampling time points unless they are finite, start at t_max,
    descend strictly and stay at or above t_min."""
    if not all(map(math.isfinite, tps)):
        raise ContractError(f"time points must be finite, got {tps}")
    if not tps or abs(tps[0] - T_MAX) > 1e-9 * T_MAX:
        raise ContractError(f"time points must start at t_max = {T_MAX}")
    if any(b >= a for a, b in zip(tps, tps[1:])):
        raise ContractError(f"time points must be strictly descending, got {tps}")
    if tps[-1] < T_MIN:
        raise ContractError(f"time point {tps[-1]} is below t_min = {T_MIN}")


def noise_injection_scale(t: float) -> float:
    """sqrt(t^2 - t_min^2): the noise magnitude between multistep samples."""
    if t < T_MIN:
        raise ContractError(f"t = {t} below t_min")
    return math.sqrt(t * t - T_MIN * T_MIN)


DEFAULT_TIME_POINTS = (80.0, 24.4, 5.84, 0.9, 0.661)
