"""Parameter container for the Fourier-layer surrogate and its projections.

Everything learnable lives here: the pointwise lift, per-layer complex
spectral kernels over retained modes plus pointwise linears, the two-layer
head, and the momentum kernel and per-channel spectral multiplier of the
projection stages the model's ``selector`` names (the multiplier only with
``wspe_modes``). Every kernel lives on a corner mode set, so the
hyperparameters alone fix every array shape, on any grid. Models are saved
as MDL1 files (``fldio``), so projection kernels travel with the model and
round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractError
from .. import fldio
from ..projection import P4Stencil
from ..spectral import corner_dims, corner_mode_axes


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
    wspe_modes: tuple[int, ...] = ()  # (): no spectral multiplier
    momentum_padding: tuple[int, ...] = ()  # zero cells per axis; (): none

    def __post_init__(self):
        if self.n_layers < 0 or self.width < 1:
            raise ContractError(f"n_layers >= 0 and width >= 1 required, "
                                f"got n_layers = {self.n_layers}, width = {self.width}")

    @property
    def ndim(self) -> int:
        return len(self.modes)


def param_shapes(h: FnoHyper) -> dict[str, tuple[int, ...]]:
    """The arrays a model of these hyperparameters holds, with their shapes,
    in the order ``init_params`` draws them; ``FnoParams`` accepts no other
    set, whether built by ``init_params`` or loaded. The momentum kernel
    shares the Fourier layers' ``modes``."""
    w, kd = h.width, corner_dims(h.modes)
    shapes = {"lift_w": (w, h.in_channels + h.cond_dim), "lift_b": (w,)}
    for l in range(h.n_layers):
        shapes |= {f"spectral_{l}": (w, w) + kd, f"pw_w_{l}": (w, w), f"pw_b_{l}": (w,)}
    shapes |= {"head1_w": (w, w), "head1_b": (w,),
               "head2_w": (h.out_channels, w), "head2_b": (h.out_channels,)}
    if h.selector in ("momentum", "both"):
        shapes["momentum_free"] = (h.out_channels,) + kd
    if h.selector in ("mass", "both") and h.wspe_modes:
        shapes["w_spe"] = (h.out_channels,) + corner_dims(h.wspe_modes)
    return shapes


@dataclass
class FnoParams:
    hyper: FnoHyper
    arrays: dict[str, np.ndarray] = field(repr=False)
    w_inv: P4Stencil = P4Stencil(1.0, 0.0, 0.0)

    def __post_init__(self):
        fldio.check_arrays(self.arrays, param_shapes(self.hyper))

    def copy(self) -> "FnoParams":
        return FnoParams(self.hyper, {k: v.copy() for k, v in self.arrays.items()}, self.w_inv)


def init_params(
    hyper: FnoHyper, grid_shape: tuple[int, ...], rng: np.random.Generator
) -> FnoParams:
    """Fresh parameters. The shapes follow from ``hyper`` alone;
    ``grid_shape`` is only checked: its working grid must hold the modes.

    Spectral kernels start uniform-complex scaled by 1/width^2; pointwise maps
    use fan-in uniform ranges and zero biases. The momentum kernel starts at
    zero (identity projection) and the spectral multiplier at one.
    """
    if len(grid_shape) != hyper.ndim:
        raise ContractError("grid dimensionality does not match hyper.modes")
    shapes = param_shapes(hyper)
    pad = hyper.fno_padding or (0,) * hyper.ndim
    corner_mode_axes(tuple(n + p for n, p in zip(grid_shape, pad)), hyper.modes)
    if "w_spe" in shapes:
        corner_mode_axes(tuple(grid_shape), hyper.wspe_modes)
    scale = 1.0 / (hyper.width * hyper.width)

    def draw(name, shape):
        if name.startswith("spectral_"):
            return rng.uniform(0.0, scale, size=shape) + 1j * rng.uniform(0.0, scale, size=shape)
        if name == "momentum_free":
            return np.zeros(shape, dtype=np.complex128)
        if name == "w_spe":
            return np.ones(shape, dtype=np.complex128)
        if len(shape) == 1:
            return np.zeros(shape)
        a = 1.0 / np.sqrt(shape[1])
        return rng.uniform(-a, a, size=shape)

    return FnoParams(hyper, {k: draw(k, s) for k, s in shapes.items()})


def save_model(path: str | Path, params: FnoParams) -> None:
    """An MDL1 file: the ``FnoHyper`` lines, ``w_inv = c,e,r``, then the
    arrays in name order."""
    header = {**fldio.header_of(params.hyper),
              "w_inv": fldio.format_value(astuple(params.w_inv))}
    fldio.write_model(path, "fno", header, {k: params.arrays[k] for k in sorted(params.arrays)})


def load_model(path: str | Path) -> tuple[FnoParams, dict]:
    with fldio.naming(path):
        header, arrays = fldio.read_model(path, "fno")
        w_inv = P4Stencil(*fldio.header_value(header, "w_inv", tuple[float, ...]))
        return FnoParams(fldio.from_header(FnoHyper, header), arrays, w_inv), header
