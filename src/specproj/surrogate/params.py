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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import SELECTOR, fldio
from ..errors import ContractError
from ..runconfig import (AT_LEAST_0, AT_LEAST_1, MODE_COUNTS, PAD_COUNTS, check_fields, dash,
                         one_of, setting)
from ..spectral import corner_dims, corner_mode_axes


# the header line every surrogate file holds with exactly this value: the
# momentum stage's p4 stencil (c, e, r), the identity
_FIXED_LINES = {"w_inv": (1.0, 0.0, 0.0)}


@dataclass(frozen=True)
class FnoHyper:
    n_layers: int = setting(AT_LEAST_0, 4)
    modes: tuple[int, ...] = setting(MODE_COUNTS, (12, 12))
    width: int = setting(AT_LEAST_1, 20)
    in_channels: int = setting(AT_LEAST_1, 1)
    cond_dim: int = setting(AT_LEAST_0, 0)
    out_channels: int = setting(AT_LEAST_1, 1)
    activation: str = setting(one_of("gelu_tanh", "identity"), "gelu_tanh")  # identity: tests
    fno_padding: tuple[int, ...] = setting(dash(PAD_COUNTS, ()), ())  # zero-pad the grid first
    selector: str = setting(SELECTOR, "none")
    wspe_modes: tuple[int, ...] = setting(dash(MODE_COUNTS, ()), ())  # (): no spectral multiplier
    momentum_padding: tuple[int, ...] = setting(dash(PAD_COUNTS, ()), ())  # (): none

    def __post_init__(self):
        check_fields(self)
        for key in ("fno_padding", "momentum_padding"):
            counts = getattr(self, key) or ()
            if len(counts) not in (0, self.ndim):
                raise ContractError(f"{key} needs one count per axis, got {counts}")

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

    def __post_init__(self):
        fldio.check_arrays(self.arrays, param_shapes(self.hyper))

    def copy(self) -> "FnoParams":
        return FnoParams(self.hyper, {k: v.copy() for k, v in self.arrays.items()})


def check_grid(hyper: FnoHyper, grid_shape: tuple[int, ...]) -> None:
    """Refuse a grid that the model's mode sets do not fit: ``modes`` on the
    grid with ``fno_padding`` and, with a momentum stage, with
    ``momentum_padding``; ``wspe_modes`` on the grid itself."""
    if len(grid_shape) != hyper.ndim:
        raise ContractError("grid dimensionality does not match hyper.modes")
    momentum = hyper.selector in ("momentum", "both")
    for pad in (hyper.fno_padding, hyper.momentum_padding if momentum else ()):
        pad = pad or (0,) * hyper.ndim
        corner_mode_axes(tuple(n + p for n, p in zip(grid_shape, pad)), hyper.modes)
    if hyper.selector in ("mass", "both") and hyper.wspe_modes:
        corner_mode_axes(tuple(grid_shape), hyper.wspe_modes)


def init_params(
    hyper: FnoHyper, grid_shape: tuple[int, ...], rng: np.random.Generator
) -> FnoParams:
    """Fresh parameters. The shapes follow from ``hyper`` alone;
    ``grid_shape`` is only checked: its working grid must hold the modes.

    Spectral kernels start uniform-complex scaled by 1/width^2; pointwise maps
    use fan-in uniform ranges and zero biases. The momentum kernel starts at
    zero (identity projection) and the spectral multiplier at one.
    """
    check_grid(hyper, grid_shape)
    shapes = param_shapes(hyper)
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
    """An MDL1 file: the ``FnoHyper`` lines, the fixed ``w_inv`` line, then
    the arrays in name order."""
    header = {**fldio.header_of(params.hyper),
              **{k: fldio.format_value(v) for k, v in _FIXED_LINES.items()}}
    fldio.write_model(path, "fno", header, {k: params.arrays[k] for k in sorted(params.arrays)})


def load_model(path: str | Path) -> tuple[FnoParams, dict]:
    """The model of an MDL1 file and its header lines, ``w_inv`` checked."""
    with fldio.naming(path):
        header, arrays = fldio.read_model(path, "fno")
        fldio.check_fixed_lines(header, _FIXED_LINES)
        return FnoParams(fldio.from_header(FnoHyper, header), arrays), header
