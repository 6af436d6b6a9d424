"""Noise schedule, discretization curriculum, index sampling and the small
scalar functions of consistency training.

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
from dataclasses import dataclass

import numpy as np

from .._erf import erf
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


@dataclass(frozen=True)
class Curriculum:
    s0: int = 10
    s1: int = 1280
    total_steps: int = 1

    def __post_init__(self):
        if self.s0 < 1 or self.s1 < self.s0 or self.total_steps < 1:
            raise ContractError("need 1 <= s0 <= s1 and total_steps >= 1")

    @property
    def doublings(self) -> int:
        """floor(log2(s1 / s0)), exactly: the times N doubles before its cap."""
        return (self.s1 // self.s0).bit_length() - 1

    @property
    def k_prime(self) -> int:
        return self.total_steps // (self.doublings + 1)


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


def curriculum_n(k: int, cur: Curriculum) -> int:
    """N(k) = min(s0 * 2^floor(k / K'), s1) + 1, in integer arithmetic."""
    if not 0 <= k < cur.total_steps:
        raise ContractError(f"step k = {k} outside 0..{cur.total_steps - 1}")
    kp = cur.k_prime
    doublings = k // kp if kp > 0 else cur.doublings
    return min(cur.s0 * (2**doublings), cur.s1) + 1


def index_weights(n: int) -> np.ndarray:
    """Normalized p(i) over i in 1..N-1 (array position i-1):
    p(i) ~ erf((log sigma_{i+1} - P_mean)/(sqrt(2) P_std))
         - erf((log sigma_i   - P_mean)/(sqrt(2) P_std))."""
    t = timesteps(n)
    z = (np.log(t) - P_MEAN) / (math.sqrt(2.0) * P_STD)
    w = erf(z[1:]) - erf(z[:-1])
    if np.any(w <= 0):
        raise ContractError("index weights must be positive")
    return w / w.sum()


@functools.lru_cache(maxsize=64)
def _cached_index_weights(n: int) -> np.ndarray:
    """index_weights(n), computed once per N; read-only."""
    w = index_weights(n)
    w.flags.writeable = False
    return w


def sample_index(n: int, rng: np.random.Generator) -> int:
    """Draw i in 1..N-1 from the discretized lognormal law."""
    if n == 2:
        return 1
    w = _cached_index_weights(n)
    return int(rng.choice(n - 1, p=w)) + 1


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


def noise_injection_scale(t: float) -> float:
    """sqrt(t^2 - t_min^2): the noise magnitude between multistep samples."""
    if t < T_MIN:
        raise ContractError(f"t = {t} below t_min")
    return math.sqrt(t * t - T_MIN * T_MIN)


DEFAULT_TIME_POINTS = (80.0, 24.4, 5.84, 0.9, 0.661)
