"""Fourth-order 1D chaotic dynamics on a periodic domain:

    u_t + u u_x + u_xx + nu u_xxxx = 0,  x in [0, L), u(0) = u(L).

Energy enters at long wavelengths through the unstable second-derivative
term, cascades via the nonlinearity, and dissipates through the fourth
derivative. Spatial derivatives are pseudo-spectral; the stiff linear part
L(k) = k^2 - nu k^4 is integrated exactly by a 2nd-order exponential
time-differencing Runge-Kutta step whose phi-coefficients come from a
contour-integral quadrature (stable near L = 0). The nonlinear term is
d/dx(u^2/2), 2/3-dealiased. All terms are exact x-derivatives, so the
spatial mean is conserved to roundoff.

``solve_kse`` returns the trajectory as a plain (1, T, n) array; the blow-up
guard also catches a non-finite state (an overflowing step), without the
floating-point warnings on the way there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import spectral
from ..errors import ContractError, NumericsError
from ..rng import substream

_BLOWUP = 1e6


@dataclass(frozen=True)
class KseConfig:
    n: int = 256
    length: float = 64.0          # domain length L
    dt: float = 0.2               # recorded cadence
    nu: float = 1.0
    warmup: int = 360             # recorded steps discarded as solver spin-up
    steps: int = 140              # recorded trajectory length
    substeps: int = 8             # internal integrator steps per recorded step
    seed: int = 0

    def __post_init__(self):
        if self.n < 8 or self.dt <= 0 or self.nu <= 0 or self.substeps < 1:
            raise ContractError("invalid KSE configuration")
        if self.steps < 1 or self.warmup < 0:
            raise ContractError("steps >= 1 and warmup >= 0 required")


# sampling ranges used by dataset generation
LENGTH_RANGE = (0.9 * 64.0, 1.1 * 64.0)
DT_RANGE = (0.18, 0.22)
NU_RANGE = (0.5, 1.5)


def sample_config(rng: np.random.Generator, vary_nu: bool = False, **overrides) -> KseConfig:
    base = dict(
        length=float(rng.uniform(*LENGTH_RANGE)),
        dt=float(rng.uniform(*DT_RANGE)),
        nu=float(rng.uniform(*NU_RANGE)) if vary_nu else 1.0,
    )
    base.update(overrides)
    return KseConfig(**base)


def initial_condition(cfg: KseConfig, rng: np.random.Generator) -> np.ndarray:
    """Sum of 10 random sinusoids: unit-scale amplitudes, random phases,
    integer wavenumbers <= 8."""
    x = np.arange(cfg.n) * (cfg.length / cfg.n)
    u = np.zeros(cfg.n)
    for _ in range(10):
        amp = rng.uniform(-1.0, 1.0)
        wavenum = rng.integers(1, 9)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u += amp * np.sin(2.0 * np.pi * wavenum * x / cfg.length + phase)
    return u


def _phi_coefficients(z: np.ndarray, n_quad: int = 32):
    """phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2 evaluated by
    averaging over a unit circle of quadrature points around each z."""
    roots = np.exp(1j * np.pi * (np.arange(n_quad) + 0.5) / n_quad)
    zr = z[:, None] + roots[None, :]
    phi1 = np.real(((np.exp(zr) - 1.0) / zr).mean(axis=1))
    phi2 = np.real(((np.exp(zr) - 1.0 - zr) / (zr * zr)).mean(axis=1))
    return phi1, phi2


class KseIntegrator:
    """ETDRK2 stepper in rfft space; exposes the nonlinear term and the
    dealiasing mask so tests can probe them directly."""

    def __init__(self, cfg: KseConfig, nonlinear: bool = True):
        self.cfg = cfg
        self.nonlinear = nonlinear
        k = spectral.wavenumbers(cfg.n, cfg.length, half=True)
        self.ik = 1j * spectral.wavenumbers(cfg.n, cfg.length, zero_nyquist=True, half=True)
        self.lin = k**2 - cfg.nu * k**4
        h = cfg.dt / cfg.substeps
        self.h = h
        self.exp_h = np.exp(h * self.lin)
        phi1, phi2 = _phi_coefficients(h * self.lin)
        self.f1 = h * phi1
        self.f2 = h * phi2
        self.dealias = spectral.dealias_mask((cfg.n,), half=True)

    def nonlinear_term(self, uhat: np.ndarray) -> np.ndarray:
        """-d/dx(u^2/2) in spectral space, 2/3-dealiased."""
        if not self.nonlinear:
            return np.zeros_like(uhat)
        u = np.fft.irfft(uhat, n=self.cfg.n)
        return -0.5 * self.ik * (np.fft.rfft(u * u) * self.dealias)

    def step(self, uhat: np.ndarray) -> np.ndarray:
        n0 = self.nonlinear_term(uhat)
        a = self.exp_h * uhat + self.f1 * n0
        n1 = self.nonlinear_term(a)
        return a + self.f2 * (n1 - n0)

    def advance_recorded(self, uhat: np.ndarray) -> np.ndarray:
        for _ in range(self.cfg.substeps):
            uhat = self.step(uhat)
        return uhat


def solve_kse(
    cfg: KseConfig, u0: np.ndarray | None = None, nonlinear: bool = True
) -> np.ndarray:
    """Trajectory of ``steps`` recorded frames after discarding ``warmup``.

    Returns the (1, steps, n) array of one channel over (time, space); the
    recorded cadence is cfg.dt.
    """
    if u0 is None:
        u0 = initial_condition(cfg, substream(cfg.seed, "kse/init"))
    if u0.shape != (cfg.n,):
        raise ContractError(f"initial condition must have shape ({cfg.n},)")
    frames = np.empty((1, cfg.steps, cfg.n))
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports it
        stepper = KseIntegrator(cfg, nonlinear=nonlinear)
        uhat = np.fft.rfft(u0)
        for rec in range(cfg.warmup + cfg.steps):
            uhat = stepper.advance_recorded(uhat)
            u = np.fft.irfft(uhat, n=cfg.n)
            if not np.max(np.abs(u)) <= _BLOWUP:  # NaN fails the test too
                raise NumericsError(
                    f"KSE blow-up at recorded step {rec}: max|u| > {_BLOWUP:.0e} or not "
                    f"finite (L={cfg.length:.3f}, dt={cfg.dt:.3f}, nu={cfg.nu:.3f})"
                )
            if rec >= cfg.warmup:
                frames[0, rec - cfg.warmup] = u
    return frames
