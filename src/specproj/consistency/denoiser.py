"""Dense denoiser with the consistency skip/out parameterization.

    f(x, t, cond) = c_skip(t) * x + c_out(t) * F(x, t, cond)

F is a two-hidden-layer GELU network on the flattened noisy target, the
flattened conditioning frames, and a sinusoidal embedding of log t. The
boundary c_skip(t_min) = 1, c_out(t_min) = 0 makes f the identity at the
smallest noise level for any weights. Every denoiser is conditioned. Its
gradients are hand-derived, matching the surrogate module's optimizer; the
GELU is the surrogate's tanh form (`activate("gelu_tanh")`), and the tape
keeps its derivative from the forward.

A denoiser models the residual around a frozen surrogate's forecast. Its
file's first header line says so (``kind = residual``), and the file records
the fixed noise schedule (``schedule.SCHEDULE``) as six more header lines
and the activation as another; ``load_denoiser`` refuses a file whose fixed
lines are missing or hold other values, naming the file and the line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractError, FieldFormatError
from ..surrogate.fno import activate
from .. import fldio
from .normalizer import RangeNormalizer
from .schedule import DEFAULT_TIME_POINTS, SCHEDULE, skip_out_coeffs

_ACTIVATION = "gelu_tanh"
# the header lines every denoiser file holds with exactly these values
_FIXED_LINES = {"kind": "residual", **SCHEDULE, "activation": _ACTIVATION}


@dataclass(frozen=True)
class DenoiserHyper:
    field_shape: tuple[int, ...]          # (C, *spatial) of the noised quantity
    cond_shape: tuple[int, ...]           # (C_cond, *spatial)
    hidden: int = 128
    emb_dim: int = 16

    def __post_init__(self):
        if not self.cond_shape:
            raise ContractError("a denoiser needs a conditioning shape")
        # time_embedding gives 2 * (emb_dim // 2) features
        if self.hidden < 1 or self.emb_dim < 0 or self.emb_dim % 2:
            raise ContractError(f"hidden >= 1 and an even emb_dim >= 0 required, "
                                f"got hidden = {self.hidden}, emb_dim = {self.emb_dim}")

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.field_shape))

    @property
    def in_dim(self) -> int:
        return self.out_dim + int(np.prod(self.cond_shape)) + self.emb_dim

    @property
    def array_shapes(self) -> dict[str, tuple[int, ...]]:
        """The arrays ``ToyDenoiser.init`` makes, in the order it draws them,
        and the only ones ``load_denoiser`` accepts."""
        return {"w1": (self.hidden, self.in_dim), "b1": (self.hidden,),
                "w2": (self.hidden, self.hidden), "b2": (self.hidden,),
                "w3": (self.out_dim, self.hidden), "b3": (self.out_dim,)}


def time_embedding(t: np.ndarray, emb_dim: int) -> np.ndarray:
    """Sinusoidal features of log t, (B, emb_dim)."""
    half = emb_dim // 2
    freqs = np.exp(-np.log(1e4) * np.arange(half) / max(half - 1, 1))
    ang = np.log(np.asarray(t, dtype=np.float64))[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass
class ToyDenoiser:
    hyper: DenoiserHyper
    arrays: dict[str, np.ndarray] = field(repr=False)

    @classmethod
    def init(cls, hyper: DenoiserHyper, rng: np.random.Generator) -> "ToyDenoiser":
        def draw(shape):  # weights fan-in uniform, biases zero
            if len(shape) == 1:
                return np.zeros(shape)
            a = 1.0 / np.sqrt(shape[1])
            return rng.uniform(-a, a, size=shape)

        return cls(hyper, {k: draw(s) for k, s in hyper.array_shapes.items()})

    def copy(self) -> "ToyDenoiser":
        return ToyDenoiser(self.hyper, {k: v.copy() for k, v in self.arrays.items()})

    # -- forward / backward --------------------------------------------------

    def _flatten_inputs(self, x: np.ndarray, t: np.ndarray, cond: np.ndarray):
        h = self.hyper
        b = x.shape[0]
        if x.shape[1:] != h.field_shape:
            raise ContractError(f"denoiser input shape {x.shape[1:]} != {h.field_shape}")
        if cond.shape != (b,) + h.cond_shape:
            raise ContractError(f"conditioning must be (B, {h.cond_shape})")
        return np.concatenate([x.reshape(b, -1), cond.reshape(b, -1),
                               time_embedding(t, h.emb_dim)], axis=1)

    def forward_batch(
        self, x: np.ndarray, t: np.ndarray, cond: np.ndarray
    ) -> tuple[np.ndarray, dict]:
        """f(x, t, cond) on (B, *field_shape); t is (B,). Returns (f, tape)."""
        a = self.arrays
        t = np.asarray(t, dtype=np.float64)
        z = self._flatten_inputs(x, t, cond)
        pre1 = z @ a["w1"].T + a["b1"]
        h1, dact1 = activate(_ACTIVATION, pre1)
        pre2 = h1 @ a["w2"].T + a["b2"]
        h2, dact2 = activate(_ACTIVATION, pre2)
        raw = h2 @ a["w3"].T + a["b3"]
        c_skip, c_out = skip_out_coeffs(t)
        per_row = (-1,) + (1,) * (x.ndim - 1)
        f = c_skip.reshape(per_row) * x + c_out.reshape(per_row) * raw.reshape(x.shape)
        tape = {"z": z, "dact1": dact1, "h1": h1, "dact2": dact2, "h2": h2, "c_out": c_out}
        return f, tape

    def backward_batch(self, tape: dict, g_f: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for a cotangent of the forward output."""
        a = self.arrays
        b = g_f.shape[0]
        g_raw = (tape["c_out"].reshape((-1,) + (1,) * (g_f.ndim - 1)) * g_f).reshape(b, -1)
        grads = {
            "w3": g_raw.T @ tape["h2"],
            "b3": g_raw.sum(axis=0),
        }
        g_h2 = g_raw @ a["w3"]
        g_pre2 = g_h2 * tape["dact2"]
        grads["w2"] = g_pre2.T @ tape["h1"]
        grads["b2"] = g_pre2.sum(axis=0)
        g_h1 = g_pre2 @ a["w2"]
        g_pre1 = g_h1 * tape["dact1"]
        grads["w1"] = g_pre1.T @ tape["z"]
        grads["b1"] = g_pre1.sum(axis=0)
        return grads


@dataclass
class DenoiserBundle:
    """A trained denoiser plus everything sampling needs to be self-contained:
    the value normalizer of the residual and the multistep time points."""

    denoiser: ToyDenoiser
    normalizer: RangeNormalizer
    time_points: tuple[float, ...] = DEFAULT_TIME_POINTS


def save_denoiser(path: str | Path, bundle: DenoiserBundle, extra: dict | None = None) -> None:
    """An MDL1 file: ``kind``, the ``DenoiserHyper`` lines, the fixed
    schedule's lines, ``activation``, ``time_points`` and the ``extra``
    lines; then the arrays in name order and the normalizer's ``norm_min``,
    ``norm_max``."""
    d = bundle.denoiser
    fixed = {k: fldio.format_value(v) for k, v in _FIXED_LINES.items()}
    header = {"kind": fixed.pop("kind"), **fldio.header_of(d.hyper), **fixed,
              "time_points": fldio.format_value(bundle.time_points), **(extra or {})}
    arrays = {k: d.arrays[k] for k in sorted(d.arrays)}
    fldio.write_model(path, "denoiser", header, {**arrays, "norm_min": bundle.normalizer.r_min,
                                                 "norm_max": bundle.normalizer.r_max})


def load_denoiser(path: str | Path) -> tuple[DenoiserBundle, dict]:
    with fldio.naming(path):
        header, arrays = fldio.read_model(path, "denoiser")
        for key, value in _FIXED_LINES.items():
            if fldio.header_value(header, key, type(value)) != value:
                raise FieldFormatError(f"model header line {key} = {header[key]} is not the "
                                       f"fixed value {value!r}")
        hyper = fldio.from_header(DenoiserHyper, header)
        channels = hyper.field_shape[:1]
        fldio.check_arrays(arrays, {**hyper.array_shapes, "norm_min": channels,
                                    "norm_max": channels})
        norm = RangeNormalizer(arrays.pop("norm_min"), arrays.pop("norm_max"))
        den = ToyDenoiser(hyper, arrays)
        return fldio.from_header(DenoiserBundle, header, denoiser=den, normalizer=norm), header
