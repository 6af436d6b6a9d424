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
u . grad(w).

One solve steps a batch of vorticities that share the config as one
(B, n, n // 2 + 1) state, through buffers allocated once per solve: at
n = 32 a substep is NumPy call overhead, which the batch shares. The FFTs
transform each plane on its own and every other operation is elementwise,
so a row's bytes do not depend on the batch it is solved in; one trajectory
is a batch of one. A solve starts from the vorticity its caller passes (a
dataset draws it with ``gaussian_random_vorticity``; the config holds no
seed). Trajectories are plain arrays, channel first: (B, 1, T, n, n)
vorticity and (B, 2, T, n, n) velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import spectral
from ..errors import ContractError, NumericsError
from ..runconfig import (AT_LEAST_0, AT_LEAST_1, EVEN_AT_LEAST_8, POSITIVE, check_fields, number,
                         setting)

FORCING_AMPLITUDE = 0.1  # the 0.1 of f above
CFL_LIMIT = 1.0


@dataclass(frozen=True)
class KolmogorovConfig:
    n: int = setting(EVEN_AT_LEAST_8, 64)
    nu: float = setting(POSITIVE, 1e-3)
    dt: float = setting(POSITIVE, 1e-4)
    t_in: int = setting(AT_LEAST_0, 10)
    t_out: int = setting(AT_LEAST_0, 20)
    frame_interval: int = setting(AT_LEAST_1, 100)  # solver substeps per recorded frame
    init_tau: float = setting(POSITIVE, 7.0)  # spectral envelope (|n|^2 + tau^2)^(-alpha)
    init_alpha: float = setting(number, 2.5)
    init_scale: float = setting(POSITIVE, 1.0)  # target rms of the initial vorticity

    def __post_init__(self):
        check_fields(self)
        if self.t_in + self.t_out < 2:
            raise ContractError(f"t_in + t_out must be >= 2, got {self.t_in} + {self.t_out}")


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
    kx, ky = spectral.wavenumber_mesh(shape, zero_nyquist=True)
    inv_k2 = spectral.inverse_k_squared(shape)
    planes = (1j * ky * inv_k2, -1j * kx * inv_k2, 1j * kx, 1j * ky)
    d = np.stack([np.broadcast_to(p, inv_k2.shape) for p in planes])
    d.flags.writeable = False
    return d


def velocity_from_vorticity_hat(what: np.ndarray, n: int) -> np.ndarray:
    """The (..., 2, n, n) velocity (ux, uy) on the n x n grid from the
    (..., n, n // 2 + 1) rfft2 half spectra of the vorticity; its zero mode
    is gauge."""
    return np.fft.irfftn(_multipliers(n)[:2] * what[..., None, :, :], s=(n, n), axes=(-2, -1))


def _forcing(n: int) -> np.ndarray:
    x = np.arange(n) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return FORCING_AMPLITUDE * (
        np.sin(2.0 * np.pi * (xx + yy)) + np.cos(2.0 * np.pi * (xx + yy))
    )


class CflError(NumericsError):
    """The advective CFL number of trajectory ``row`` reached ``CFL_LIMIT``."""

    def __init__(self, row: int, cfl: float):
        super().__init__(f"kolmogorov trajectory {row}: advective CFL {cfl:.3f} >= {CFL_LIMIT}")
        self.row, self.cfl = row, cfl


def solve_kolmogorov(
    cfg: KolmogorovConfig, w0: np.ndarray, forcing: bool = True, frames: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate each (n, n) vorticity of the (B, n, n) batch ``w0`` and
    record the (vorticity, velocity) trajectories, (B, 1, frames, n, n) and
    (B, 2, frames, n, n).

    ``frames`` recorded frames (default t_in + t_out), one every
    cfg.frame_interval solver steps; frame 0 is the initial state. Raises
    ``CflError`` for the first row whose advective CFL number reaches
    ``CFL_LIMIT``.
    """
    n = cfg.n
    if w0.shape[1:] != (n, n) or len(w0) < 1:
        raise ContractError(f"w0 must be (B, {n}, {n}) with B >= 1, got {w0.shape}")
    if frames is None:
        frames = cfg.t_in + cfg.t_out

    shape = (n, n)
    d = _multipliers(n)
    k2 = spectral.k_squared(shape)
    # complex, as a product with a complex array casts them anyway
    dealias = spectral.dealias_mask(shape).astype(complex)
    fhat = np.fft.rfft2(_forcing(n)) if forcing else 0.0
    dt = cfg.dt
    dx = 1.0 / n
    cn_minus = (1.0 - 0.5 * dt * cfg.nu * k2).astype(complex)
    cn_plus = (1.0 / (1.0 + 0.5 * dt * cfg.nu * k2)).astype(complex)

    b = len(w0)
    what = np.fft.rfft2(w0)
    spec = np.empty((b,) + d.shape, complex)  # d * what, then its inverse FFT along axis -2
    fields = np.empty((b, 4, n, n))  # ux, uy, dw/dx, dw/dy
    pairs = np.empty((b, 2, n, n))
    adv, adv_prev, rhs, tmp = (np.empty_like(what) for _ in range(4))
    w_frames = np.empty((b, 1, frames, n, n))
    u_frames = np.empty((b, 2, frames, n, n))

    def record(i):
        np.fft.irfftn(what, s=shape, axes=(-2, -1), out=w_frames[:, 0, i])
        u_frames[:, :, i] = velocity_from_vorticity_hat(what, n)

    def advection(out):
        """-(u . grad(w)), dealiased, of the state ``what``, written to ``out``."""
        np.multiply(d, what[:, None], out=spec)
        np.fft.ifft(spec, axis=-2, out=spec)  # the two passes of irfftn
        np.fft.irfft(spec, n, axis=-1, out=fields)
        cfl = np.max(np.abs(fields[:, :2], out=pairs), axis=(1, 2, 3)) * dt / dx
        over = cfl >= CFL_LIMIT
        if over.any():
            row = int(np.argmax(over))
            raise CflError(row, cfl[row])
        np.multiply(fields[:, :2], fields[:, 2:], out=pairs)
        np.add(pairs[:, 0], pairs[:, 1], out=pairs[:, 0])  # ux * wx + uy * wy
        np.fft.rfft2(pairs[:, 0], out=out)
        np.multiply(out, dealias, out=out)
        np.negative(out, out=out)

    record(0)
    bootstrap = True
    for i in range(1, frames):
        for _ in range(cfg.frame_interval):
            advection(adv)
            if bootstrap:  # forward Euler for the first step of Adams-Bashforth 2
                np.add(adv, fhat, out=rhs)
                bootstrap = False
            else:
                np.multiply(1.5, adv, out=rhs)
                np.subtract(rhs, np.multiply(0.5, adv_prev, out=tmp), out=rhs)
                np.add(rhs, fhat, out=rhs)
            # what = cn_plus * (cn_minus * what + dt * (expl + fhat))
            np.multiply(dt, rhs, out=rhs)
            np.add(np.multiply(cn_minus, what, out=tmp), rhs, out=tmp)
            np.multiply(cn_plus, tmp, out=what)
            adv, adv_prev = adv_prev, adv
        record(i)
    return w_frames, u_frames
