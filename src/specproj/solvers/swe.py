"""Desk-scale flood solver: local-inertial shallow water on synthetic terrain.

Depth-averaged dynamics with the convective acceleration dropped:

    h_t + dqx/dx + dqy/dy = R - I
    q_t + g h d(h+z)/ds + g n^2 |q| q / h^(7/3) = 0

on a staggered Arakawa-C grid (depths at cell centers, discharge per unit
width on interior faces), explicit momentum update with semi-implicit
friction and flow-depth upwinding, then continuity. Closed walls: boundary
faces carry no flux, so the discrete water balance is exact up to the
rainfall/infiltration source. Timestep adapts to the gravity-wave CFL
condition, dt = min(0.7 dx / sqrt(g h_max), 10 s) (``CFL_TARGET``,
``MAX_DT``), unless a test fixes it; a positivity limiter scales each
cell's outgoing fluxes so no depth goes negative. Where a step would still
take a cell below zero (infiltration in a drying cell), the depth is
clamped at 0 and the volume that gives back is booked, so
V(0) + (R - I) t A + clamped(t) = V(t) closes to roundoff. A solve returns
the plain (1, T, ny, nx) trajectory and clamped(t) at each recorded frame.

A record time, or the end, less than the smallest step (1e-6 s) ahead of
t counts as reached: float drift in t += dt can leave such a gap, and a
step across it would be an underflow.

The time loop works in place on buffers allocated once per solve, on the
row-major raveled grid. Face buffers hold the x-faces, then the y-faces:
x-face p joins cells p and p + 1, y-face p joins cells p and p + nx, so
each family's two neighbours are two contiguous slices of a cell buffer
and every other pass over the faces is one call over both families. The
x-faces p = nx - 1 (mod nx) join a row's last cell to the next row's first
across the wall: they are junk entries. Their floor is the DEM's lowest
less 1 m, so they stay wet and finite, and their q is set to 0 after the
momentum update (and again after the limiter), so they add +0.0 to the
outflow and divergence sums: to a cell at 0.0 before any true face has
added to it (the row's last cell is a low side only across the wrap), or
subtracted, which leaves any value as it is. Every true face meets the
same operations in the same order as on separate per-family arrays, and
each cell's sums take their terms in the same order (x low side, x high
side, y low, y high). The loop skips two steps whose result is known
exactly:

- the dry-face masks, when every face is wet (flow depth > 1e-6 m):
  replacing dry flow depths by 1 and dry fluxes by 0 then changes nothing;
- the positivity limiter, when every cell holds at least the volume it
  would send out (need <= h) and h is finite: for need > 0, h / need >= 1
  under correctly rounded division, so every scale is exactly 1.0 and
  q * 1.0 is q bit for bit. A NaN fails the test and takes the full path;
  an infinite h is excluded because inf / inf would give a NaN scale.

The flow depth max(h_l + z_l, h_r + z_r) - max(z_l, z_r) is formed as
max(eta_l, eta_r) - zmax with eta = h + z (the same additions) and zmax
computed once per solve, so a trajectory is byte-identical to the
out-of-place form of the same scheme on (ny, nx - 1) and (ny - 1, nx)
face arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericsError
from ..runconfig import NON_NEGATIVE, POSITIVE, check_fields, dash, setting

G = 9.81
_H_DRY = 1e-6   # faces shallower than this carry no flux
_DT_MIN = 1e-6
CFL_TARGET = 0.7  # of the gravity-wave speed sqrt(g h_max)
MAX_DT = 10.0     # seconds, also the step on a dry domain


@dataclass(frozen=True)
class SweConfig:
    dem: np.ndarray               # terrain elevation (ny, nx), metres
    cell_size: float = setting(POSITIVE, 10.0)  # square cells, metres
    manning_n: float = setting(NON_NEGATIVE, 0.03)
    rainfall: float = setting(NON_NEGATIVE, 0.0)  # m/s, uniform in space and time
    infiltration: float = setting(NON_NEGATIVE, 0.0)  # m/s
    duration: float = setting(POSITIVE, 600.0)  # seconds
    record_interval: float = setting(POSITIVE, 300.0)
    fixed_dt: float | None = setting(dash(POSITIVE), None)  # bypass adaptive stepping (tests)

    def __post_init__(self):
        dem = np.asarray(self.dem, dtype=np.float64)
        if dem.ndim != 2 or min(dem.shape) < 3:
            raise ContractError("dem must be 2D with at least 3x3 cells")
        if not np.all(np.isfinite(dem)):
            raise ContractError("dem must be finite")
        check_fields(self)
        longest = MAX_DT if self.fixed_dt is None else self.fixed_dt
        if not longest * G * (self.manning_n * self.manning_n) < np.inf:
            # as the solver forms it; an infinite factor would make 0 * inf = NaN
            raise ContractError(f"manning_n must be small enough that dt g n^2 is finite, "
                                f"got {self.manning_n!r}")
        object.__setattr__(self, "dem", dem)


def tilted_dem(ny: int, nx: int, cell: float, slope: float = 0.01) -> np.ndarray:
    """A plane of ``cell``-metre cells falling ``slope`` per metre along x."""
    x = np.arange(nx) * cell
    return np.broadcast_to(-slope * x, (ny, nx)).copy()


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
    dx = cfg.cell_size
    h = np.zeros(cfg.dem.shape) if h0 is None else np.asarray(h0, dtype=np.float64).copy()
    if h.shape != cfg.dem.shape or np.any(h < 0) or not np.all(np.isfinite(h)):
        raise ContractError("h0 must be finite, non-negative, DEM-shaped")
    nx, n = h.shape[1], h.size
    mx = n - 1  # x-faces come first in every face buffer, then the y-faces
    # (face, lo cell, hi cell) slices of each family
    families = ((slice(None, mx), slice(None, -1), slice(1, None)),
                (slice(mx, None), slice(None, -nx), slice(nx, None)))
    z, hf = cfg.dem.ravel(), h.reshape(-1)  # z is read only; hf writes into h
    zmax = np.empty(mx + n - nx)
    for f, lo, hi in families:
        np.maximum(z[lo], z[hi], out=zmax[f])
    wrap = slice(nx - 1, mx, nx)  # x-faces that join a row's last cell to the next row's first
    zmax[wrap] = z.min() - 1.0
    q = np.zeros_like(zmax)
    slope, flow, num, den = (np.empty_like(zmax) for _ in range(4))
    wet, dry = np.empty(zmax.shape, dtype=bool), np.empty(zmax.shape, dtype=bool)
    eta, need, div = (np.empty_like(hf) for _ in range(3))
    fits = np.empty(hf.shape, dtype=bool)
    source = cfg.rainfall - cfg.infiltration

    frames, given_back = [h.copy()], [0.0]
    t = recorded = clamped = 0.0
    next_record = cfg.record_interval
    while cfg.duration - t >= _DT_MIN:  # a shorter rest would be a step below _DT_MIN
        h_max = h.max()
        if cfg.fixed_dt is not None:
            dt = cfg.fixed_dt
        else:
            c = np.sqrt(G * max(h_max, 0.0))
            dt = MAX_DT if c == 0.0 else min(CFL_TARGET * dx / c, MAX_DT)
        dt = min(dt, cfg.duration - t, next_record - t)
        if dt < _DT_MIN:
            raise NumericsError(f"SWE timestep underflow: dt = {dt:.3e} s at t = {t:.3f} s")

        # momentum: the local-inertial update of q, with the flow depth above
        # the higher of the two cell floors and semi-implicit friction (dt g n^2)
        np.add(hf, z, out=eta)
        for f, lo, hi in families:
            np.subtract(eta[hi], eta[lo], out=slope[f])
            np.maximum(eta[lo], eta[hi], out=flow[f])
        slope /= dx
        flow -= zmax
        all_wet = np.greater(flow, _H_DRY, out=wet).all()
        if not all_wet:
            np.logical_not(wet, out=dry)
            np.copyto(flow, 1.0, where=dry)  # placeholder to avoid 0^(7/3)
        np.multiply(flow, G, out=num)
        num *= dt
        num *= slope
        np.subtract(q, num, out=num)
        np.abs(q, out=den)
        den *= dt * G * cfg.manning_n**2
        np.cbrt(flow, out=slope)  # flow^(7/3) as cbrt(flow) * flow * flow: np.power is slower
        slope *= flow
        slope *= flow
        den /= slope
        den += 1.0
        np.divide(num, den, out=q)
        if not all_wet:
            np.copyto(q, 0.0, where=dry)
        q[wrap] = 0.0

        # positivity: scale each donor cell's outgoing fluxes to its volume
        out_lo, out_hi = np.maximum(q, 0.0, out=num), np.minimum(q, 0.0, out=den)
        need.fill(0.0)
        for f, lo, hi in families:
            need[lo] += out_lo[f]
            need[hi] -= out_hi[f]
        need *= dt
        need /= dx
        if not (np.isfinite(h_max) and np.less_equal(need, hf, out=fits).all()):
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.where(need > 0.0, np.minimum(1.0, hf / np.where(need > 0, need, 1.0)), 1.0)
            for f, lo, hi in families:
                q[f] = np.where(q[f] > 0, q[f] * scale[lo], q[f] * scale[hi])
            q[wrap] = 0.0  # 0 * a NaN scale would not be 0

        div.fill(0.0)
        flux = np.divide(q, dx, out=num)
        for f, lo, hi in families:
            div[lo] += flux[f]
            div[hi] -= flux[f]
        np.subtract(source, div, out=div)
        div *= dt
        hf += div
        if hf.min() < 0.0:  # the clamp below gives water back: book it
            clamped -= np.minimum(hf, 0.0, out=div).sum()
        np.maximum(hf, 0.0, out=hf)

        t += dt
        if next_record - t < _DT_MIN:  # a record time within a step too short to take
            frames.append(h.copy())
            given_back.append(clamped * dx * dx)
            recorded = t
            next_record += cfg.record_interval
    if recorded < t or len(frames) == 1:
        frames.append(h.copy())
        given_back.append(clamped * dx * dx)
    return np.stack(frames)[None], np.array(given_back)
