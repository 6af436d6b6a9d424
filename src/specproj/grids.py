"""A named grid description, kept for the benchmark harness alone.

No module of the package uses it: fields are channel-major arrays
(``data[c, i_0, ..., i_{d-1}]``, last axis fastest) whose grid is their
trailing axes, each one period long (``specproj.spectral``), and
``fldio.read_fld`` checks what comes from outside. The harness's tracer
(``perfbench/tracing.py``) still wraps ``GridSpec.wavenumber_mesh``, so the
class stays until that harness changes.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Ordered axes of a periodic grid. At least one axis has two or more
    points; a one-point axis may sit beside it."""

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

    def wavenumber_mesh(self, zero_nyquist: bool = False) -> list[np.ndarray]:
        """Per-axis wavenumbers k = 2*pi*n/extent in sparse broadcast form,
        FFT order (read-only)."""
        mesh = []
        for i, ax in enumerate(self.axes):
            view = [1] * len(self.axes)
            view[i] = ax.size
            mesh.append(spectral.wavenumbers(ax.size, ax.extent, zero_nyquist).reshape(view))
        return mesh
