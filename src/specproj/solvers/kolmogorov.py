"""2D incompressible flow with sinusoidal body forcing, vorticity form:

    div(u) = 0,  w_t + u . grad(w) = nu Lap(w) + f,
    f = 0.1 (sin(2 pi (x+y)) + cos(2 pi (x+y))),  (x, y) in (0,1)^2.

Pseudo-spectral Crank-Nicolson: diffusion integrated semi-implicitly
(trapezoidal), the dealiased advection term explicitly with Adams-Bashforth
2 (forward Euler on the first step). The vorticity is real, so the state is
its rfft2 half spectrum, (n, n // 2 + 1). Velocity comes from the
streamfunction, psi_hat = w_hat / |k|^2, u = (dpsi/dy, -dpsi/dx), which is
solenoidal by construction. One stacked multiplier takes w_hat to the
spectra of (ux, uy, dw/dx, dw/dy), so a substep makes one batched irfft2
(whose velocity planes also give the CFL number) and one rfft2 of
u . grad(w). Trajectories are plain arrays, channel first: (1, T, n, n)
vorticity and (2, T, n, n) velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import spectral
from ..errors import ContractError, NumericsError
from ..rng import substream


@dataclass(frozen=True)
class KolmogorovConfig:
    n: int = 64
    nu: float = 1e-3
    dt: float = 1e-4
    forcing_amplitude: float = 0.1
    t_in: int = 10
    t_out: int = 20
    frame_interval: int = 100     # solver substeps per recorded frame
    seed: int = 0
    init_tau: float = 7.0         # spectral envelope (|n|^2 + tau^2)^(-alpha)
    init_alpha: float = 2.5
    init_scale: float = 1.0       # target rms of the initial vorticity
    cfl_limit: float = 1.0

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ContractError("grid size must be even and >= 8")
        if self.dt <= 0 or self.nu <= 0 or self.frame_interval < 1:
            raise ContractError("invalid solver configuration")
        if self.t_in < 0 or self.t_out < 0 or self.t_in + self.t_out < 2:
            raise ContractError(f"t_in, t_out >= 0 and t_in + t_out >= 2 frames required, "
                                f"got t_in = {self.t_in}, t_out = {self.t_out}")


_UNIT_SQUARE = (1.0, 1.0)


def gaussian_random_vorticity(cfg: KolmogorovConfig, rng: np.random.Generator) -> np.ndarray:
    """Periodic Gaussian random field with a power-law spectral envelope."""
    n = cfg.n
    n2 = spectral.frequencies(n)[:, None] ** 2 + spectral.frequencies(n, half=True)[None, :] ** 2
    envelope = (n2 + cfg.init_tau**2) ** (-cfg.init_alpha / 2.0)
    noise = rng.standard_normal((n, n))
    w = np.fft.irfft2(np.fft.rfft2(noise) * envelope, s=(n, n))
    w -= w.mean()
    rms = np.sqrt(np.mean(w * w))
    if rms > 0:
        w *= cfg.init_scale / rms
    return w


@lru_cache(maxsize=8)
def _multipliers(n: int) -> np.ndarray:
    """(4, n, n // 2 + 1) read-only multipliers taking the half spectrum
    w_hat to those of ux = i ky psi_hat, uy = -i kx psi_hat, dw/dx and
    dw/dy, with psi_hat = w_hat / |k|^2 (w = -Lap(psi)) and the Nyquist
    wavenumbers zeroed."""
    shape = (n, n)
    kx, ky = spectral.wavenumber_mesh(shape, _UNIT_SQUARE, zero_nyquist=True, half=True)
    inv_k2 = spectral.inverse_k_squared(shape, _UNIT_SQUARE, half=True)
    planes = (1j * ky * inv_k2, -1j * kx * inv_k2, 1j * kx, 1j * ky)
    d = np.stack([np.broadcast_to(p, inv_k2.shape) for p in planes])
    d.flags.writeable = False
    return d


def velocity_from_vorticity_hat(what: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ux, uy) on the n x n grid from the rfft2 half spectrum of the
    vorticity; its zero mode is gauge."""
    ux, uy = np.fft.irfft2(_multipliers(n)[:2] * what, s=(n, n))
    return ux, uy


def _forcing(cfg: KolmogorovConfig) -> np.ndarray:
    x = np.arange(cfg.n) / cfg.n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return cfg.forcing_amplitude * (
        np.sin(2.0 * np.pi * (xx + yy)) + np.cos(2.0 * np.pi * (xx + yy))
    )


def solve_kolmogorov(
    cfg: KolmogorovConfig,
    w0: np.ndarray | None = None,
    forcing: bool = True,
    frames: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate and record the (vorticity, velocity) trajectories,
    (1, frames, n, n) and (2, frames, n, n).

    ``frames`` recorded frames (default t_in + t_out), one every
    cfg.frame_interval solver steps; frame 0 is the initial state. Aborts on
    CFL violation of the advective step.
    """
    n = cfg.n
    if w0 is None:
        w0 = gaussian_random_vorticity(cfg, substream(cfg.seed, "kolmogorov/init"))
    if w0.shape != (n, n):
        raise ContractError(f"w0 must be ({n}, {n})")
    if frames is None:
        frames = cfg.t_in + cfg.t_out

    shape = (n, n)
    d = _multipliers(n)
    k2 = spectral.k_squared(shape, _UNIT_SQUARE, half=True)
    dealias = spectral.dealias_mask(shape, half=True)
    fhat = np.fft.rfft2(_forcing(cfg)) if forcing else 0.0
    dt = cfg.dt
    dx = 1.0 / n
    cn_minus = 1.0 - 0.5 * dt * cfg.nu * k2
    cn_plus = 1.0 / (1.0 + 0.5 * dt * cfg.nu * k2)

    what = np.fft.rfft2(w0)
    w_frames = np.empty((1, frames, n, n))
    u_frames = np.empty((2, frames, n, n))

    def record(i, what):
        w_frames[0, i] = np.fft.irfft2(what, s=shape)
        u_frames[0, i], u_frames[1, i] = velocity_from_vorticity_hat(what, n)

    def advection(what):
        fields = np.fft.irfft2(d * what, s=shape)  # ux, uy, dw/dx, dw/dy
        cfl = np.max(np.abs(fields[:2])) * dt / dx
        if cfl >= cfg.cfl_limit:
            raise NumericsError(f"advective CFL {cfl:.3f} >= {cfg.cfl_limit}")
        ux, uy, wx, wy = fields
        adv = np.fft.rfft2(ux * wx + uy * wy)
        return -(adv * dealias)

    record(0, what)
    adv_prev = None
    for i in range(1, frames):
        for _ in range(cfg.frame_interval):
            adv = advection(what)
            if adv_prev is None:
                expl = adv  # forward Euler bootstrap for Adams-Bashforth 2
            else:
                expl = 1.5 * adv - 0.5 * adv_prev
            what = cn_plus * (cn_minus * what + dt * (expl + fhat))
            adv_prev = adv
        record(i, what)
    return w_frames, u_frames
