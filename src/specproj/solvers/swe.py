"""Desk-scale flood solver: local-inertial shallow water on synthetic terrain.

Depth-averaged dynamics with the convective acceleration dropped:

    h_t + dqx/dx + dqy/dy = R - I
    q_t + g h d(h+z)/ds + g n^2 |q| q / h^(7/3) = 0

on a staggered Arakawa-C grid (depths at cell centers, discharge per unit
width on interior faces), explicit momentum update with semi-implicit
friction and flow-depth upwinding, then continuity. Closed walls: boundary
faces carry no flux, so the discrete water balance is exact up to the
rainfall/infiltration source. Timestep adapts to the gravity-wave CFL
condition; a positivity limiter scales each cell's outgoing fluxes so no
depth goes negative. Where a step would still take a cell below zero
(infiltration in a drying cell), the depth is clamped at 0 and the volume
that gives back is booked, so V(0) + (R - I) t A + clamped(t) = V(t) closes
to roundoff. A solve returns the plain (1, T, ny, nx) trajectory and
clamped(t) at each recorded frame.

The time loop works in place on buffers allocated once per solve, and skips
two steps whose result is known exactly:

- the dry-face masks of a face family, when every face of it is wet (flow
  depth > 1e-6 m): replacing dry flow depths by 1 and dry fluxes by 0 then
  changes nothing;
- the positivity limiter, when every cell holds at least the volume it
  would send out (need <= h) and h is finite: for need > 0, h / need >= 1
  under correctly rounded division, so every scale is exactly 1.0 and
  q * 1.0 is q bit for bit. A NaN fails the test and takes the full path;
  an infinite h is excluded because inf / inf would give a NaN scale.

The flow depth max(h_l + z_l, h_r + z_r) - max(z_l, z_r) is formed as
max(eta_l, eta_r) - zmax with eta = h + z (the same additions) and zmax
computed once per solve, so a trajectory is byte-identical to the
out-of-place form of the same scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericsError

G = 9.81
_H_DRY = 1e-6   # faces shallower than this carry no flux
_DT_MIN = 1e-6


@dataclass(frozen=True)
class SweConfig:
    dem: np.ndarray               # terrain elevation (ny, nx), metres
    cell_size: float = 10.0       # square cells, metres
    manning_n: float = 0.03
    rainfall: float = 0.0         # m/s, uniform in space and time
    infiltration: float = 0.0     # m/s
    cfl_target: float = 0.7
    duration: float = 600.0       # seconds
    record_interval: float = 300.0
    fixed_dt: float | None = None # bypass adaptive stepping (convergence tests)
    max_dt: float = 10.0

    def __post_init__(self):
        dem = np.asarray(self.dem, dtype=np.float64)
        if dem.ndim != 2 or min(dem.shape) < 3:
            raise ContractError("dem must be 2D with at least 3x3 cells")
        if not np.all(np.isfinite(dem)):
            raise ContractError("dem must be finite")
        if not 0 < self.cfl_target < 1:
            raise ContractError("cfl_target must lie in (0, 1)")
        positive = ["cell_size", "duration", "record_interval", "max_dt"]
        if self.fixed_dt is not None:
            positive.append("fixed_dt")
        for name in positive:
            if not 0 < getattr(self, name) < np.inf:
                raise ContractError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        for name in ("rainfall", "infiltration", "manning_n"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ContractError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        object.__setattr__(self, "dem", dem)


def tilted_dem(ny: int, nx: int, slope: float = 0.01, cell: float = 10.0) -> np.ndarray:
    x = np.arange(nx) * cell
    return np.broadcast_to(-slope * x, (ny, nx)).copy()


class _Faces:
    """One family of interior faces (x or y): the cells on either side of
    each face, its higher floor, its discharge q and its step buffers."""

    def __init__(self, z: np.ndarray, axis: int):
        lo, hi = [slice(None)] * 2, [slice(None)] * 2
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        self.lo, self.hi = tuple(lo), tuple(hi)
        self.zmax = np.maximum(z[self.lo], z[self.hi])
        shape = self.zmax.shape
        self.q = np.zeros(shape)
        self.slope, self.flow, self.num, self.den = (np.empty(shape) for _ in range(4))
        self.wet, self.dry = np.empty(shape, dtype=bool), np.empty(shape, dtype=bool)

    def momentum(self, eta: np.ndarray, dt: float, dx: float, fric: float) -> None:
        """Local-inertial update of q in place; ``fric`` is dt g n^2.

        The flow depth is the depth above the higher of the two cell floors;
        the friction term is treated semi-implicitly so the update stays
        stable in shallow water.
        """
        q, slope, flow, num, den = self.q, self.slope, self.flow, self.num, self.den
        eta_l, eta_r = eta[self.lo], eta[self.hi]
        np.subtract(eta_r, eta_l, out=slope)
        slope /= dx
        np.maximum(eta_l, eta_r, out=flow)
        flow -= self.zmax
        all_wet = np.greater(flow, _H_DRY, out=self.wet).all()
        if not all_wet:
            np.logical_not(self.wet, out=self.dry)
            np.copyto(flow, 1.0, where=self.dry)  # placeholder to avoid 0^(7/3)
        np.multiply(flow, G, out=num)
        num *= dt
        num *= slope
        np.subtract(q, num, out=num)
        np.abs(q, out=den)
        den *= fric
        np.power(flow, 7.0 / 3.0, out=slope)
        den /= slope
        den += 1.0
        np.divide(num, den, out=q)
        if not all_wet:
            np.copyto(q, 0.0, where=self.dry)


def solve_swe_flood(
    cfg: SweConfig, h0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Water-depth trajectory (1, T, ny, nx) on the DEM, recorded every
    record_interval s and at the end, and the (T,) volume (m^3) the clamp at
    zero depth has given back by each recorded frame.

    Depth stays >= 0 at every cell and step; on a closed domain the volume
    balance against the integrated source and the clamped volume is exact
    to roundoff. Aborts if the adaptive dt underflows.
    """
    z = cfg.dem
    dx = cfg.cell_size
    h = np.zeros(z.shape) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    if h.shape != z.shape or np.any(h < 0) or not np.all(np.isfinite(h)):
        raise ContractError("h0 must be finite, non-negative, DEM-shaped")
    faces = (_Faces(z, axis=1), _Faces(z, axis=0))  # x-faces, then y-faces
    eta, need, div = (np.empty_like(h) for _ in range(3))
    fits = np.empty(h.shape, dtype=bool)
    source = cfg.rainfall - cfg.infiltration

    frames, given_back = [h.copy()], [0.0]
    t = recorded = clamped = 0.0
    next_record = cfg.record_interval
    while t < cfg.duration - 1e-12:
        h_max = h.max()
        if cfg.fixed_dt is not None:
            dt = cfg.fixed_dt
        else:
            c = np.sqrt(G * max(h_max, 0.0))
            dt = cfg.max_dt if c == 0.0 else min(cfg.cfl_target * dx / c, cfg.max_dt)
        dt = min(dt, cfg.duration - t, next_record - t)
        if dt < _DT_MIN:
            raise NumericsError(f"SWE timestep underflow: dt = {dt:.3e} s at t = {t:.3f} s")

        # momentum then continuity
        np.add(h, z, out=eta)
        fric = dt * G * cfg.manning_n**2
        for f in faces:
            f.momentum(eta, dt, dx, fric)

        # positivity: scale each donor cell's outgoing fluxes to its volume
        need.fill(0.0)
        for f in faces:
            need[f.lo] += np.maximum(f.q, 0.0, out=f.num)
            np.negative(f.q, out=f.num)
            need[f.hi] += np.maximum(f.num, 0.0, out=f.num)
        need *= dt
        need /= dx
        if not (np.isfinite(h_max) and np.less_equal(need, h, out=fits).all()):
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(need > 0.0, np.minimum(1.0, h / np.where(need > 0, need, 1.0)), 1.0)
            for f in faces:
                f.q[...] = np.where(f.q > 0, f.q * scale[f.lo], f.q * scale[f.hi])

        div.fill(0.0)
        for f in faces:
            flux = np.divide(f.q, dx, out=f.num)
            div[f.lo] += flux
            div[f.hi] -= flux
        np.subtract(source, div, out=div)
        div *= dt
        h += div
        if h.min() < 0.0:  # the clamp below gives water back: book it
            clamped -= np.minimum(h, 0.0, out=div).sum()
        np.maximum(h, 0.0, out=h)

        t += dt
        if t >= next_record - 1e-12:
            frames.append(h.copy())
            given_back.append(clamped * dx * dx)
            recorded = t
            next_record += cfg.record_interval
    if recorded < cfg.duration - 1e-12 or len(frames) == 1:
        frames.append(h.copy())
        given_back.append(clamped * dx * dx)
    return np.stack(frames)[None], np.array(given_back)
