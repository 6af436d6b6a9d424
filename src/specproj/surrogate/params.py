"""Parameter container for the Fourier-layer surrogate and its projections.

Everything learnable lives here: the pointwise lift, per-layer complex
spectral kernels over retained modes plus pointwise linears, the two-layer
head, and (optionally) the momentum-kernel half-weights and per-channel
spectral multiplier consumed by the projection stage. Serialization uses a
text header plus length-prefixed FLD1 blocks, so projection kernels travel
with the model and round-trip bit-exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractError, FieldFormatError
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


@dataclass
class FnoParams:
    hyper: FnoHyper
    arrays: dict[str, np.ndarray] = field(repr=False)
    w_inv: P4Stencil = P4Stencil(1.0, 0.0, 0.0)

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

    if h.selector in ("momentum", "both"):
        if h.momentum_lattice is None:
            raise ContractError("momentum selector needs hyper.momentum_lattice")
        arrays["momentum_free"] = np.zeros(
            _half_shape(h.momentum_lattice, h.out_channels), dtype=np.complex128
        )
    if h.selector in ("mass", "both") and h.wspe_modes is not None:
        wdims = spectral_kernel_dims(grid_shape, h.wspe_modes)
        arrays["w_spe"] = np.ones((h.out_channels,) + wdims, dtype=np.complex128)
    return FnoParams(hyper, arrays)


# ---------------------------------------------------------------------------
# model container: text header + length-prefixed FLD1 blocks
# ---------------------------------------------------------------------------

_MAGIC = b"MDL1\n"


def _fmt_tuple(t) -> str:
    return ",".join(str(int(x)) for x in t) if t else "-"


def _parse_tuple(s: str) -> tuple[int, ...] | None:
    if s == "-":
        return None
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))


def save_model(path: str | Path, params: FnoParams, extra: dict | None = None) -> None:
    h = params.hyper
    header = {
        "model_kind": "fno",
        "n_layers": h.n_layers,
        "modes": _fmt_tuple(h.modes),
        "width": h.width,
        "in_channels": h.in_channels,
        "cond_dim": h.cond_dim,
        "out_channels": h.out_channels,
        "activation": h.activation,
        "fno_padding": _fmt_tuple(h.fno_padding or ()),
        "selector": h.selector,
        "wspe_modes": _fmt_tuple(h.wspe_modes) if h.wspe_modes is not None else "-",
        "momentum_lattice": _fmt_tuple(h.momentum_lattice) if h.momentum_lattice else "-",
        "momentum_padding": _fmt_tuple(h.momentum_padding) if h.momentum_padding else "-",
        "w_inv": f"{params.w_inv.c!r},{params.w_inv.e!r},{params.w_inv.r!r}",
    }
    if extra:
        header.update(extra)
    blocks: list[tuple[str, bytes]] = []
    for name in sorted(params.arrays):
        a = params.arrays[name]
        if np.iscomplexobj(a):
            blocks.append((name + ".re", fldio.pack_array(a.real)))
            blocks.append((name + ".im", fldio.pack_array(a.imag)))
        else:
            blocks.append((name, fldio.pack_array(a)))
    write_container(path, header, blocks)


def load_model(path: str | Path) -> tuple[FnoParams, dict]:
    header, blocks = read_container(path)
    if header.get("model_kind") != "fno":
        raise FieldFormatError(f"not a surrogate container: {header.get('model_kind')!r}")
    hyper = FnoHyper(
        n_layers=int(header["n_layers"]),
        modes=_parse_tuple(header["modes"]),
        width=int(header["width"]),
        in_channels=int(header["in_channels"]),
        cond_dim=int(header["cond_dim"]),
        out_channels=int(header["out_channels"]),
        activation=header["activation"],
        fno_padding=_parse_tuple(header["fno_padding"]) or (),
        selector=header["selector"],
        wspe_modes=_parse_tuple(header["wspe_modes"]),
        momentum_lattice=_parse_tuple(header["momentum_lattice"]),
        momentum_padding=_parse_tuple(header["momentum_padding"]),
    )
    cvals = tuple(float(x) for x in header["w_inv"].split(","))
    arrays = _join_complex(blocks)
    return FnoParams(hyper, arrays, P4Stencil(*cvals)), header


def _join_complex(blocks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    for name, arr in blocks.items():
        if name.endswith(".re"):
            arrays[name[:-3]] = arr + 1j * blocks[name[:-3] + ".im"]
        elif name.endswith(".im"):
            continue
        else:
            arrays[name] = arr
    return arrays


def write_container(path: str | Path, header: dict, blocks: list[tuple[str, bytes]]) -> None:
    buf = io.BytesIO()
    buf.write(_MAGIC)
    for k, v in header.items():
        buf.write(f"{k} = {v}\n".encode())
    buf.write(f"blocks = {len(blocks)}\n".encode())
    for name, payload in blocks:
        buf.write(f"{name} {len(payload)}\n".encode())
        buf.write(payload)
    Path(path).write_bytes(buf.getvalue())


def read_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise FieldFormatError("bad model container magic")
    pos = len(_MAGIC)
    header: dict[str, str] = {}
    n_blocks = None
    while n_blocks is None:
        end = raw.find(b"\n", pos)
        if end < 0:
            raise FieldFormatError("truncated container header")
        line = raw[pos:end].decode()
        pos = end + 1
        if line.startswith("blocks = "):
            n_blocks = int(line[len("blocks = "):])
        else:
            key, sep, value = line.partition(" = ")
            if not sep:
                raise FieldFormatError(f"malformed header line {line!r}")
            header[key] = value
    blocks: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        end = raw.find(b"\n", pos)
        if end < 0:
            raise FieldFormatError("truncated block table")
        name, nbytes_s = raw[pos:end].decode().rsplit(" ", 1)
        nbytes = int(nbytes_s)
        pos = end + 1
        if pos + nbytes > len(raw):
            raise FieldFormatError(f"truncated block {name!r}")
        blocks[name] = fldio.unpack_array(raw[pos : pos + nbytes])
        pos += nbytes
    return header, blocks
