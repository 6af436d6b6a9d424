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

One solve steps a batch of trajectories as one (B, n // 2 + 1) spectral
state: a step is a few NumPy calls whatever B is, and at n = 256 their call
overhead, not their arithmetic, is most of its time. The rows share n,
warmup, steps and substeps; L, dt and nu may differ per row. The FFTs
transform each row on its own, so a row's bytes do not depend on the batch
it is solved in. A single ``KseConfig`` is solved the same way, with no
batch axis.

``solve_kse`` returns plain (1, T, n) arrays; the blow-up guard also catches
a non-finite state (an overflowing step), without the floating-point
warnings on the way there.
"""

from __future__ import annotations

from collections.abc import Sequence
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


def _batch(cfg: KseConfig | Sequence[KseConfig]) -> tuple[list[KseConfig], tuple[int, ...]]:
    """The rows of ``cfg`` and the batch shape of its state: () for one
    config, (B,) for a sequence of B configs sharing n, warmup, steps and
    substeps."""
    if isinstance(cfg, KseConfig):
        return [cfg], ()
    rows = list(cfg)
    if not rows:
        raise ContractError("a KSE batch needs at least one configuration")
    for name in ("n", "warmup", "steps", "substeps"):
        values = sorted({getattr(row, name) for row in rows})
        if len(values) > 1:
            raise ContractError(f"KSE batch rows must share {name}, got {values}")
    return rows, (len(rows),)


def _row_tables(cfg: KseConfig, dealias: np.ndarray):
    """exp(hL), h phi1(hL), h phi2(hL) and the nonlinear multiplier
    (-ik / 2) * dealias of one row."""
    k = spectral.wavenumbers(cfg.n, cfg.length, half=True)
    ik = 1j * spectral.wavenumbers(cfg.n, cfg.length, zero_nyquist=True, half=True)
    lin = k**2 - cfg.nu * k**4
    h = cfg.dt / cfg.substeps
    phi1, phi2 = _phi_coefficients(h * lin)
    return np.exp(h * lin), h * phi1, h * phi2, (-0.5 * ik) * dealias


class KseIntegrator:
    """ETDRK2 stepper in rfft space for one config or a batch of them (see
    ``_batch``). ``step`` and ``advance_recorded`` overwrite the spectrum
    they are given and return that same array. Every call works through
    scratch buffers allocated here, so one integrator serves one thread at a
    time. The nonlinear term and the dealiasing mask are exposed so tests
    can probe them directly."""

    def __init__(self, cfg: KseConfig | Sequence[KseConfig], nonlinear: bool = True):
        self.cfgs, self.batch_shape = _batch(cfg)
        self.n = n = self.cfgs[0].n
        self.substeps = self.cfgs[0].substeps
        self.nonlinear = nonlinear
        self.dealias = spectral.dealias_mask((n,), half=True)
        spectrum = self.batch_shape + (n // 2 + 1,)
        tables = zip(*(_row_tables(row, self.dealias) for row in self.cfgs))
        self.exp_h, self.f1, self.f2, self.nl_mult = (np.stack(t).reshape(spectrum) for t in tables)
        self._u = np.empty(self.batch_shape + (n,))
        self._spec, self._n0, self._a, self._n1 = (np.empty(spectrum, complex) for _ in range(4))

    def nonlinear_term(self, uhat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """-d/dx(u^2/2) in spectral space, 2/3-dealiased, written to ``out``
        (a new array when None)."""
        if out is None:
            out = np.empty_like(uhat)
        if not self.nonlinear:
            out.fill(0.0)
            return out
        u = np.fft.irfft(uhat, n=self.n, out=self._u)
        np.multiply(u, u, out=u)
        return np.multiply(self.nl_mult, np.fft.rfft(u, out=self._spec), out=out)

    def step(self, uhat: np.ndarray) -> np.ndarray:
        """One ETDRK2 step, in place on ``uhat``:
        a = e^{hL} u + h phi1 N(u), then u <- a + h phi2 (N(a) - N(u))."""
        n0, a, n1 = self._n0, self._a, self._n1
        self.nonlinear_term(uhat, out=n0)
        np.multiply(self.exp_h, uhat, out=a)
        np.add(a, np.multiply(self.f1, n0, out=n1), out=a)
        self.nonlinear_term(a, out=n1)
        np.subtract(n1, n0, out=n1)
        return np.add(a, np.multiply(self.f2, n1, out=n1), out=uhat)

    def advance_recorded(self, uhat: np.ndarray) -> np.ndarray:
        """``substeps`` steps, in place on ``uhat``."""
        for _ in range(self.substeps):
            self.step(uhat)
        return uhat


def solve_kse(
    cfg: KseConfig | Sequence[KseConfig], u0: np.ndarray | None = None, nonlinear: bool = True
) -> np.ndarray:
    """Trajectories of ``steps`` recorded frames after discarding ``warmup``.

    For one config, returns the (1, steps, n) array of one channel over
    (time, space) and takes an (n,) initial condition; for a sequence of B
    configs, the (B, 1, steps, n) stack of them from a (B, n) one. A
    missing ``u0`` is drawn per row from ``substream(seed, "kse/init")``.
    The recorded cadence of each row is its dt.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the guard below reports it
        stepper = KseIntegrator(cfg, nonlinear=nonlinear)
        rows, lead, n = stepper.cfgs, stepper.batch_shape, stepper.n
        if u0 is None:
            u0 = np.stack([initial_condition(row, substream(row.seed, "kse/init")) for row in rows])
            u0 = u0.reshape(lead + (n,))
        if np.shape(u0) != lead + (n,):
            raise ContractError(f"initial condition must have shape {lead + (n,)}")
        warmup, steps = rows[0].warmup, rows[0].steps
        frames = np.empty(lead + (1, steps, n))
        u = np.empty(lead + (n,))
        peak = np.empty(lead)
        uhat = np.fft.rfft(u0)
        for rec in range(warmup + steps):
            stepper.advance_recorded(uhat)
            np.fft.irfft(uhat, n=n, out=u)
            np.max(np.abs(u), axis=-1, out=peak)
            bounded = peak <= _BLOWUP  # NaN fails the test too
            if not bounded.all():
                i = int(np.argmin(bounded.reshape(-1)))
                bad = rows[i]
                raise NumericsError(
                    f"KSE blow-up in trajectory {i} at recorded step {rec}: max|u| > "
                    f"{_BLOWUP:.0e} or not finite (L={bad.length:.3f}, dt={bad.dt:.3f}, "
                    f"nu={bad.nu:.3f})"
                )
            if rec >= warmup:
                frames[..., 0, rec - warmup, :] = u
    return frames
