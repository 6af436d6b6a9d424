"""Parameter container for the Fourier-layer surrogate and its projections.

Everything learnable lives here: the pointwise lift, per-layer complex
spectral kernels over retained modes plus pointwise linears, the two-layer
head, and (optionally) the momentum-kernel half-weights and per-channel
spectral multiplier consumed by the projection stage. Models are saved as
MDL1 files (``fldio``), so projection kernels travel with the model and
round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractError
from .. import fldio
from ..projection import (
    MassProjectionConfig,
    P4Stencil,
    ProjectionParams,
    RotationInvariantKernel,
    _half_shape,
    corner_mode_axes,
)


@dataclass(frozen=True)
class FnoHyper:
    n_layers: int = 4
    modes: tuple[int, ...] = (12, 12)
    width: int = 20
    in_channels: int = 1
    cond_dim: int = 0
    out_channels: int = 1
    activation: str = "gelu"  # "identity" is the algebra-test hook
    fno_padding: tuple[int, ...] = ()  # zero-pad before Fourier layers (time padding)
    selector: str = "none"
    wspe_modes: tuple[int, ...] | None = None
    momentum_lattice: tuple[int, ...] | None = None  # padded grid the kernel covers
    momentum_padding: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n_layers < 0 or self.width < 1:
            raise ContractError(f"n_layers >= 0 and width >= 1 required, "
                                f"got n_layers = {self.n_layers}, width = {self.width}")

    @property
    def ndim(self) -> int:
        return len(self.modes)


def param_names(h: FnoHyper) -> list[str]:
    """The arrays a model of these hyperparameters holds; ``FnoParams``
    accepts no other set, whether built by ``init_params`` or loaded."""
    names = ["lift_w", "lift_b"]
    for l in range(h.n_layers):
        names += [f"spectral_{l}", f"pw_w_{l}", f"pw_b_{l}"]
    names += ["head1_w", "head1_b", "head2_w", "head2_b"]
    if h.selector in ("momentum", "both"):
        names.append("momentum_free")
    if h.selector in ("mass", "both") and h.wspe_modes is not None:
        names.append("w_spe")
    return names


@dataclass
class FnoParams:
    hyper: FnoHyper
    arrays: dict[str, np.ndarray] = field(repr=False)
    w_inv: P4Stencil = P4Stencil(1.0, 0.0, 0.0)

    def __post_init__(self):
        fldio.check_arrays(self.arrays, param_names(self.hyper))

    def groups(self) -> dict[str, np.ndarray]:
        """Live parameter arrays, keyed by group name."""
        return self.arrays

    def copy(self) -> "FnoParams":
        return FnoParams(self.hyper, {k: v.copy() for k, v in self.arrays.items()}, self.w_inv)

    # -- projection plumbing -------------------------------------------------

    def momentum_kernel(self) -> RotationInvariantKernel | None:
        if "momentum_free" not in self.arrays:
            return None
        return RotationInvariantKernel(self.hyper.momentum_lattice, self.arrays["momentum_free"])

    def projection(self) -> ProjectionParams:
        w_spe = self.arrays.get("w_spe")
        mass = MassProjectionConfig(self.hyper.wspe_modes if w_spe is not None else None, w_spe)
        return ProjectionParams(mass, self.momentum_kernel(), self.w_inv,
                                self.hyper.momentum_padding or ())


def spectral_kernel_dims(grid_shape: tuple[int, ...], modes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(len(ix) for ix in corner_mode_axes(grid_shape, modes))


def init_params(
    hyper: FnoHyper, grid_shape: tuple[int, ...], rng: np.random.Generator
) -> FnoParams:
    """Fresh parameters for a given working grid.

    Spectral kernels start uniform-complex scaled by 1/width^2; pointwise maps
    use fan-in uniform ranges. The momentum kernel starts at zero (identity
    projection) and the spectral multiplier at one.
    """
    h = hyper
    if len(grid_shape) != h.ndim:
        raise ContractError("grid dimensionality does not match hyper.modes")
    in_total = h.in_channels + h.cond_dim
    arrays: dict[str, np.ndarray] = {}

    def uni(shape, fan_in):
        a = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-a, a, size=shape)

    arrays["lift_w"] = uni((h.width, in_total), in_total)
    arrays["lift_b"] = np.zeros(h.width)
    padded = tuple(n + p for n, p in zip(grid_shape, h.fno_padding or (0,) * h.ndim))
    kdims = spectral_kernel_dims(padded, h.modes)
    scale = 1.0 / (h.width * h.width)
    for l in range(h.n_layers):
        re = rng.uniform(0.0, scale, size=(h.width, h.width) + kdims)
        im = rng.uniform(0.0, scale, size=(h.width, h.width) + kdims)
        arrays[f"spectral_{l}"] = re + 1j * im
        arrays[f"pw_w_{l}"] = uni((h.width, h.width), h.width)
        arrays[f"pw_b_{l}"] = np.zeros(h.width)
    arrays["head1_w"] = uni((h.width, h.width), h.width)
    arrays["head1_b"] = np.zeros(h.width)
    arrays["head2_w"] = uni((h.out_channels, h.width), h.width)
    arrays["head2_b"] = np.zeros(h.out_channels)

    names = param_names(h)
    if "momentum_free" in names:
        if h.momentum_lattice is None:
            raise ContractError("momentum selector needs hyper.momentum_lattice")
        arrays["momentum_free"] = np.zeros(
            _half_shape(h.momentum_lattice, h.out_channels), dtype=np.complex128
        )
    if "w_spe" in names:
        wdims = spectral_kernel_dims(grid_shape, h.wspe_modes)
        arrays["w_spe"] = np.ones((h.out_channels,) + wdims, dtype=np.complex128)
    return FnoParams(hyper, arrays)


def save_model(path: str | Path, params: FnoParams) -> None:
    """An MDL1 file: the ``FnoHyper`` lines, ``w_inv = c,e,r``, then the
    arrays in name order."""
    header = {**fldio.header_of(params.hyper),
              "w_inv": fldio.format_value(astuple(params.w_inv))}
    fldio.write_model(path, "fno", header, {k: params.arrays[k] for k in sorted(params.arrays)})


def load_model(path: str | Path) -> tuple[FnoParams, dict]:
    header, arrays = fldio.read_model(path, "fno")
    w_inv = P4Stencil(*fldio.header_value(header, "w_inv", tuple[float, ...]))
    return FnoParams(fldio.from_header(FnoHyper, header), arrays, w_inv), header
