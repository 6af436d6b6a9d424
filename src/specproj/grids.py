"""The real-field container of the I/O edge and the grid it checks against.

``fldio.read_fld`` wraps what it reads from outside in a ``RealField``, whose
construction checks the channel axis and that every value is finite, and
the ``project`` wrappers in ``projection`` take and return one. The numeric
path (surrogate, projections, sampling, metrics, solvers) works on raw
arrays and reads the grid off their trailing axes.

A field is always channel-major: ``data[c, i_0, ..., i_{d-1}]`` with the last
axis fastest in memory. Axes keep their declared order; there is no hidden
reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import ContractError


@dataclass(frozen=True)
class Axis:
    name: str
    size: int
    extent: float


@dataclass(frozen=True)
class GridSpec:
    """Ordered axes of a periodic grid; shared by every field on it. At
    least one axis has two or more points; a one-point axis may sit beside
    it (the time axis of a one-frame trajectory)."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not any(ax.size >= 2 for ax in self.axes):
            raise ContractError("grid needs at least one axis of two or more points")
        for ax in self.axes:
            if ax.size < 1:
                raise ContractError(f"axis {ax.name!r}: size {ax.size} < 1")
            if not ax.extent > 0:
                raise ContractError(f"axis {ax.name!r}: extent {ax.extent} <= 0")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def extents(self) -> tuple[float, ...]:
        return tuple(ax.extent for ax in self.axes)

    def wavenumber_mesh(self, zero_nyquist: bool = False) -> list[np.ndarray]:
        """Per-axis wavenumber arrays broadcast to the full grid shape
        (read-only; see ``specproj.spectral`` for the conventions)."""
        return list(spectral.wavenumber_mesh(self.shape, self.extents, zero_nyquist))


@dataclass(frozen=True)
class RealField:
    """Multi-channel real field on a grid: what crosses the I/O edge."""

    grid: GridSpec
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.shape[1:] != self.grid.shape:
            raise ContractError(
                f"data shape {d.shape} does not match (channels, {self.grid.shape})"
            )
        if d.ndim != self.grid.ndim + 1:
            raise ContractError("data must be channel-major: (channels, *grid.shape)")
        if not np.all(np.isfinite(d)):
            raise ContractError("field contains non-finite values")
        object.__setattr__(self, "data", np.ascontiguousarray(d))

    @property
    def channels(self) -> int:
        return self.data.shape[0]
