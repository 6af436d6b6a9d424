"""Per-channel affine map between raw values and the [-1, 1] training range.

forward: r -> 2 (r - r_min) / (r_max - r_min) - 1
inverse: x -> clip(x * 0.5 + 0.5, 0, 1) * (r_max - r_min) + r_min

The inverse clamps the [0, 1]-stage value before the final affine, so
sampler outputs can never leave the fitted range; forward followed by
inverse is the identity on in-range values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError


@dataclass(frozen=True)
class RangeNormalizer:
    r_min: np.ndarray  # (channels,)
    r_max: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.r_min, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.r_max, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ContractError("r_min/r_max must be matching 1D per-channel arrays")
        if np.any(hi <= lo):
            raise ContractError("r_max must exceed r_min per channel")
        object.__setattr__(self, "r_min", lo)
        object.__setattr__(self, "r_max", hi)

    @classmethod
    def fit(cls, samples: np.ndarray) -> "RangeNormalizer":
        """Per-channel min/max over (N, C, *spatial) training values."""
        c = samples.shape[1]
        flat = samples.transpose(1, 0, *range(2, samples.ndim)).reshape(c, -1)
        return cls(flat.min(axis=1), flat.max(axis=1))

    def _shaped(self, arr: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values`` along the channel axis 1 of a (B, C, *spatial) array."""
        if arr.ndim < 2 or arr.shape[1] != len(values):
            raise ContractError(f"array {arr.shape} is not (batch, {len(values)} channels, ...)")
        return values.reshape((1, -1) + (1,) * (arr.ndim - 2))

    def forward(self, r: np.ndarray) -> np.ndarray:
        lo = self._shaped(r, self.r_min)
        hi = self._shaped(r, self.r_max)
        return 2.0 * (r - lo) / (hi - lo) - 1.0

    def inverse(self, x: np.ndarray) -> np.ndarray:
        lo = self._shaped(x, self.r_min)
        hi = self._shaped(x, self.r_max)
        unit = np.clip(x * 0.5 + 0.5, 0.0, 1.0)
        return unit * (hi - lo) + lo
