"""Noise schedule, discretization curriculum, index sampling and the small
scalar functions of consistency training.

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


@dataclass(frozen=True)
class NoiseSchedule:
    t_min: float = 0.002
    t_max: float = 80.0
    rho: float = 7.0
    sigma_data: float = 0.5
    p_mean: float = -1.1
    p_std: float = 2.0

    def __post_init__(self):
        if not 0 < self.t_min < self.t_max:
            raise ContractError("need 0 < t_min < t_max")
        if self.rho <= 0 or self.sigma_data <= 0 or self.p_std <= 0:
            raise ContractError("rho, sigma_data, p_std must be positive")


@dataclass(frozen=True)
class Curriculum:
    s0: int = 10
    s1: int = 1280
    total_steps: int = 1

    def __post_init__(self):
        if self.s0 < 1 or self.s1 < self.s0 or self.total_steps < 1:
            raise ContractError("need 1 <= s0 <= s1 and total_steps >= 1")

    @property
    def k_prime(self) -> int:
        doublings = (self.s1 // self.s0).bit_length() - 1  # exact log2 of the floor
        return self.total_steps // (doublings + 1)


def timestep(i: int, n: int, sched: NoiseSchedule = NoiseSchedule()) -> float:
    """t_i for 1 <= i <= N; strictly increasing, endpoints exact.

    Evaluates through the same vectorized path as timesteps() so scalar and
    array values agree bitwise.
    """
    if n < 2:
        raise ContractError("N >= 2 required")
    if not 1 <= i <= n:
        raise ContractError(f"i = {i} outside 1..{n}")
    return float(timesteps(n, sched)[i - 1])


def timesteps(n: int, sched: NoiseSchedule = NoiseSchedule()) -> np.ndarray:
    """All t_1..t_N as an array (index 0 holds t_1)."""
    if n < 2:
        raise ContractError("N >= 2 required")
    inv_rho = 1.0 / sched.rho
    a = sched.t_min**inv_rho
    b = sched.t_max**inv_rho
    t = (a + np.arange(n) / (n - 1) * (b - a)) ** sched.rho
    t[0] = sched.t_min
    t[-1] = sched.t_max
    return t


def curriculum_n(k: int, cur: Curriculum) -> int:
    """N(k) = min(s0 * 2^floor(k / K'), s1) + 1, in integer arithmetic."""
    if not 0 <= k < cur.total_steps:
        raise ContractError(f"step k = {k} outside 0..{cur.total_steps - 1}")
    kp = cur.k_prime
    doublings = k // kp if kp > 0 else (cur.s1 // cur.s0).bit_length() - 1
    return min(cur.s0 * (2**doublings), cur.s1) + 1


def index_weights(n: int, sched: NoiseSchedule = NoiseSchedule()) -> np.ndarray:
    """Normalized p(i) over i in 1..N-1 (array position i-1):
    p(i) ~ erf((log sigma_{i+1} - P_mean)/(sqrt(2) P_std))
         - erf((log sigma_i   - P_mean)/(sqrt(2) P_std))."""
    t = timesteps(n, sched)
    z = (np.log(t) - sched.p_mean) / (math.sqrt(2.0) * sched.p_std)
    w = erf(z[1:]) - erf(z[:-1])
    if np.any(w <= 0):
        raise ContractError("index weights must be positive")
    return w / w.sum()


@functools.lru_cache(maxsize=64)
def _cached_index_weights(n: int, sched: NoiseSchedule) -> np.ndarray:
    """index_weights(n, sched), computed once per (N, schedule); read-only."""
    w = index_weights(n, sched)
    w.flags.writeable = False
    return w


def sample_index(
    n: int, rng: np.random.Generator, sched: NoiseSchedule = NoiseSchedule()
) -> int:
    """Draw i in 1..N-1 from the discretized lognormal law."""
    if n == 2:
        return 1
    w = _cached_index_weights(n, sched)
    return int(rng.choice(n - 1, p=w)) + 1


def default_huber_c(dim: int) -> float:
    """c = 0.00054 * sqrt(D) for flattened data dimension D."""
    return 0.00054 * math.sqrt(dim)


def skip_out_coeffs(t, sched: NoiseSchedule = NoiseSchedule()):
    """(c_skip, c_out) at t, a scalar or an array of t, with c_skip(t_min) = 1
    and c_out(t_min) = 0 exactly:
    c_skip = sd^2 / ((t - t_min)^2 + sd^2), c_out = sd (t - t_min) / sqrt(sd^2 + t^2)."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < sched.t_min):
        raise ContractError(f"t = {t.min()} below t_min")
    sd = sched.sigma_data
    dt = t - sched.t_min
    c_skip = sd * sd / (dt * dt + sd * sd)
    c_out = sd * dt / np.sqrt(sd * sd + t * t)
    return c_skip, c_out


def noise_injection_scale(t: float, sched: NoiseSchedule = NoiseSchedule()) -> float:
    """sqrt(t^2 - t_min^2): the noise magnitude between multistep samples."""
    if t < sched.t_min:
        raise ContractError(f"t = {t} below t_min")
    return math.sqrt(t * t - sched.t_min * sched.t_min)


DEFAULT_TIME_POINTS = (80.0, 24.4, 5.84, 0.9, 0.661)
