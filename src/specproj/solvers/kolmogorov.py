"""2D incompressible flow with sinusoidal body forcing, vorticity form:

    div(u) = 0,  w_t + u . grad(w) = nu Lap(w) + f,
    f = 0.1 (sin(2 pi (x+y)) + cos(2 pi (x+y))),  (x, y) in (0,1)^2.

Pseudo-spectral Crank-Nicolson: diffusion integrated semi-implicitly
(trapezoidal), the dealiased advection term explicitly with Adams-Bashforth
2 (forward Euler on the first step). Velocity is recovered per frame from
the streamfunction, psi_hat = w_hat / |k|^2, u = (dpsi/dy, -dpsi/dx), which
is solenoidal by construction. Trajectories are plain arrays, channel
first: (1, T, n, n) vorticity and (2, T, n, n) velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    nfreq = spectral.frequencies(n)
    n2 = nfreq[:, None] ** 2 + nfreq[None, :] ** 2
    envelope = (n2 + cfg.init_tau**2) ** (-cfg.init_alpha / 2.0)
    noise = rng.standard_normal((n, n))
    what = np.fft.fft2(noise) * envelope
    w = np.real(np.fft.ifft2(what))
    w -= w.mean()
    rms = np.sqrt(np.mean(w * w))
    if rms > 0:
        w *= cfg.init_scale / rms
    return w


def velocity_from_vorticity_hat(what: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    kx, ky = spectral.wavenumber_mesh((n, n), _UNIT_SQUARE, zero_nyquist=True)
    psi_hat = what * spectral.inverse_k_squared((n, n), _UNIT_SQUARE)  # w = -Lap(psi)
    ux = np.real(np.fft.ifft2(1j * ky * psi_hat))
    uy = np.real(np.fft.ifft2(-1j * kx * psi_hat))
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

    kx, ky = spectral.wavenumber_mesh((n, n), _UNIT_SQUARE, zero_nyquist=True)
    k2_full = spectral.k_squared((n, n), _UNIT_SQUARE)
    dealias = spectral.dealias_mask((n, n))
    fhat = np.fft.fft2(_forcing(cfg)) if forcing else 0.0
    dt = cfg.dt
    dx = 1.0 / n
    cn_minus = 1.0 - 0.5 * dt * cfg.nu * k2_full
    cn_plus = 1.0 / (1.0 + 0.5 * dt * cfg.nu * k2_full)

    what = np.fft.fft2(w0)
    w_frames = np.empty((1, frames, n, n))
    u_frames = np.empty((2, frames, n, n))

    def record(i, what):
        w_frames[0, i] = np.real(np.fft.ifft2(what))
        u_frames[0, i], u_frames[1, i] = velocity_from_vorticity_hat(what, n)

    def advection(what):
        ux, uy = velocity_from_vorticity_hat(what, n)
        cfl = max(np.max(np.abs(ux)), np.max(np.abs(uy))) * dt / dx
        if cfl >= cfg.cfl_limit:
            raise NumericsError(f"advective CFL {cfl:.3f} >= {cfg.cfl_limit}")
        wx = np.real(np.fft.ifft2(1j * kx * what))
        wy = np.real(np.fft.ifft2(1j * ky * what))
        adv = np.fft.fft2(ux * wx + uy * wy)
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
