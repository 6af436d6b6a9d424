"""Periodic grid geometry and the real-field container built on it.

A field is always channel-major: ``data[c, i_0, ..., i_{d-1}]`` with the last
axis fastest in memory. Axes keep their declared order; there is no hidden
reordering, and at most one axis may be temporal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import ContractError

SPATIAL = "spatial"
TEMPORAL = "temporal"


@dataclass(frozen=True)
class Axis:
    name: str
    size: int
    extent: float
    kind: str = SPATIAL


@dataclass(frozen=True)
class GridSpec:
    """Ordered axes of a periodic grid; shared by every field on it."""

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if not self.axes:
            raise ContractError("grid needs at least one axis")
        for ax in self.axes:
            if ax.size < 2:
                raise ContractError(f"axis {ax.name!r}: size {ax.size} < 2")
            if not ax.extent > 0:
                raise ContractError(f"axis {ax.name!r}: extent {ax.extent} <= 0")
            if ax.kind not in (SPATIAL, TEMPORAL):
                raise ContractError(f"axis {ax.name!r}: unknown kind {ax.kind!r}")
        if sum(ax.kind == TEMPORAL for ax in self.axes) > 1:
            raise ContractError("at most one temporal axis")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.size for ax in self.axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def axis_index(self, name: str) -> int:
        for i, ax in enumerate(self.axes):
            if ax.name == name:
                return i
        raise ContractError(f"no axis named {name!r}")

    @property
    def extents(self) -> tuple[float, ...]:
        return tuple(ax.extent for ax in self.axes)

    def wavenumber_mesh(self, zero_nyquist: bool = False) -> list[np.ndarray]:
        """Per-axis wavenumber arrays broadcast to the full grid shape
        (read-only; see ``specproj.spectral`` for the conventions)."""
        return list(spectral.wavenumber_mesh(self.shape, self.extents, zero_nyquist))


def grid_1d(n: int, extent: float = 1.0, name: str = "x") -> GridSpec:
    return GridSpec((Axis(name, n, extent),))


def grid_2d(nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> GridSpec:
    return GridSpec((Axis("x", nx, lx), Axis("y", ny, ly)))


@dataclass(frozen=True)
class RealField:
    """Multi-channel real field on a grid; the universal state carrier."""

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
