"""Corner-mode denoiser with the consistency skip/out parameterization.

    f(x, t, cond) = c_skip(t) * x + c_out(t) * F(x, t, cond)

F = s(t) * (K(v, t) + W v) + b(t) on v = concat(x, cond), per channel of x:

  - the corner path K: the corner of each channel's Fourier series, the
    ``spectral.mode_grid`` gather of v divided by the grid's point count,
    goes as (re, im) pairs, with a sinusoidal embedding of log t, through a
    two-hidden-layer GELU network; its output is a corner of x's channels,
    scattered back and scaled by the point count, so K is Re(sum over the
    corner of z_k e^{+ik.x}) on any grid. The coefficients of a band-limited
    field are the same on every grid the modes fit, so one set of weights
    serves all of them;
  - the pointwise path W v: a per-pixel linear map, which holds the content
    above the corner;
  - the per-channel scale s(t) and bias b(t), both linear in the embedding
    of log t, act on the sum of the two. The consistency function of an
    iid Gaussian residual is per-pixel affine in x with t-dependent
    coefficients, which W and (s, b) hold with K at zero. On such a
    residual, a corner path outside the scale learned to shrink the corner
    and halved the sampled spread.

The boundary c_skip(t_min) = 1, c_out(t_min) = 0 makes f the identity at
the smallest noise level for any weights. Every denoiser is conditioned. Its
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

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ContractError
from ..spectral import corner_dims, mode_grid
from ..surrogate.fno import activate
from .. import fldio
from ..runconfig import AT_LEAST_1, EVEN_AT_LEAST_0, MODE_COUNTS, check_fields, numbers, setting
from .normalizer import RangeNormalizer
from .schedule import DEFAULT_TIME_POINTS, SCHEDULE, check_time_points, skip_out_coeffs

_ACTIVATION = "gelu_tanh"
# the header lines every denoiser file holds with exactly these values
_FIXED_LINES = {"kind": "residual", **SCHEDULE, "activation": _ACTIVATION}


@dataclass(frozen=True)
class DenoiserHyper:
    channels: int = setting(AT_LEAST_1)            # C of the noised quantity
    cond_channels: int = setting(AT_LEAST_1)       # C_cond of the conditioning frames
    modes: tuple[int, ...] = setting(MODE_COUNTS)  # the corner mode set, one count per grid axis
    hidden: int = setting(AT_LEAST_1, 128)
    # time_embedding gives 2 * (emb_dim // 2) features
    emb_dim: int = setting(EVEN_AT_LEAST_0, 16)

    __post_init__ = check_fields

    @property
    def array_shapes(self) -> dict[str, tuple[int, ...]]:
        """The arrays ``ToyDenoiser.init`` makes, in the order it draws them,
        and the only ones ``load_denoiser`` accepts: the corner network's
        (w1..b3, on (re, im) pairs of M corner modes), the pointwise map
        ``pw_w``, and ``pw_t_w``, ``pw_t_b``, which give the t-dependent
        scale and bias (scale rows first)."""
        c, v = self.channels, self.channels + self.cond_channels
        pairs = 2 * math.prod(corner_dims(self.modes))
        return {"w1": (self.hidden, pairs * v + self.emb_dim), "b1": (self.hidden,),
                "w2": (self.hidden, self.hidden), "b2": (self.hidden,),
                "w3": (pairs * c, self.hidden), "b3": (pairs * c,),
                "pw_w": (c, v), "pw_t_w": (2 * c, self.emb_dim), "pw_t_b": (2 * c,)}


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
        def draw(shape):  # weights fan-in uniform, biases (and a map of no inputs) zero
            if len(shape) == 1 or shape[1] == 0:
                return np.zeros(shape)
            a = 1.0 / np.sqrt(shape[1])
            return rng.uniform(-a, a, size=shape)

        return cls(hyper, {k: draw(s) for k, s in hyper.array_shapes.items()})

    def copy(self) -> "ToyDenoiser":
        return ToyDenoiser(self.hyper, {k: v.copy() for k, v in self.arrays.items()})

    # -- forward / backward --------------------------------------------------

    def forward_batch(
        self, x: np.ndarray, t: np.ndarray, cond: np.ndarray, *, tape: bool = True
    ) -> tuple[np.ndarray, dict | None]:
        """f(x, t, cond) on (B, channels, *grid); t is (B,). Returns (f, tape).
        With ``tape=False`` no activation derivative is built and the tape
        comes back as None; ``f`` has the same bytes either way."""
        h, a = self.hyper, self.arrays
        t = np.asarray(t, dtype=np.float64)
        b, c, grid_shape = x.shape[0], h.channels, x.shape[2:]
        if x.shape[1] != c or len(grid_shape) != len(h.modes):
            raise ContractError(f"denoiser input {x.shape[1:]}: {c} channels on a "
                                f"{len(h.modes)}-axis grid required")
        if cond.shape != (b, h.cond_channels) + grid_shape:
            raise ContractError(f"conditioning must be (B, {h.cond_channels}, *grid)")
        v = np.concatenate([x, cond], axis=1)
        grid = mode_grid(grid_shape, h.modes)
        vm = grid.gather(v)  # (M, C_v, B)
        vm /= grid.n_total
        emb = time_embedding(t, h.emb_dim)
        z = np.concatenate([np.ascontiguousarray(vm.transpose(2, 0, 1)).view(np.float64)
                            .reshape(b, -1), emb], axis=1)
        pre1 = z @ a["w1"].T + a["b1"]
        h1, dact1 = activate(_ACTIVATION, pre1, deriv=tape)
        pre2 = h1 @ a["w2"].T + a["b2"]
        h2, dact2 = activate(_ACTIVATION, pre2, deriv=tape)
        raw = h2 @ a["w3"].T + a["b3"]
        raw *= grid.n_total
        u = grid.scatter(raw.view(np.complex128).reshape(b, -1, c).transpose(1, 2, 0))
        u = u.reshape(b, c, -1)  # (B, C, P)
        vp = v.reshape(b, v.shape[1], -1)
        u += a["pw_w"] @ vp
        ts = emb @ a["pw_t_w"].T + a["pw_t_b"]  # (B, 2C): scale, then bias
        out = (ts[:, :c, None] * u + ts[:, c:, None]).reshape(x.shape)

        c_skip, c_out = skip_out_coeffs(t)
        per_row = (-1,) + (1,) * (x.ndim - 1)
        f = c_skip.reshape(per_row) * x + c_out.reshape(per_row) * out
        if not tape:
            return f, None
        tape = {"z": z, "dact1": dact1, "h1": h1, "dact2": dact2, "h2": h2, "c_out": c_out,
                "grid": grid, "vp": vp, "u": u, "emb": emb, "scale": ts[:, :c]}
        return f, tape

    def backward_batch(self, tape: dict, g_f: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for a cotangent of the forward output."""
        a = self.arrays
        b, c = g_f.shape[:2]
        g_out = (tape["c_out"].reshape((-1,) + (1,) * (g_f.ndim - 1)) * g_f).reshape(b, c, -1)
        g_ts = np.concatenate([np.sum(g_out * tape["u"], axis=2), g_out.sum(axis=2)], axis=1)
        grads = {"pw_t_w": g_ts.T @ tape["emb"], "pw_t_b": g_ts.sum(axis=0)}
        g_u = g_out * tape["scale"][:, :, None]
        grads["pw_w"] = (g_u @ tape["vp"].transpose(0, 2, 1)).sum(axis=0)
        # corner path: the adjoint of N * scatter is gather
        g_raw = np.ascontiguousarray(tape["grid"].gather(g_u.reshape(g_f.shape)).transpose(2, 0, 1))
        g_raw = g_raw.view(np.float64).reshape(b, -1)
        grads["w3"] = g_raw.T @ tape["h2"]
        grads["b3"] = g_raw.sum(axis=0)
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
    time_points: tuple[float, ...] = setting(numbers, DEFAULT_TIME_POINTS)


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
        fldio.check_fixed_lines(header, _FIXED_LINES)
        hyper = fldio.from_header(DenoiserHyper, header)
        channels = (hyper.channels,)
        fldio.check_arrays(arrays, {**hyper.array_shapes, "norm_min": channels,
                                    "norm_max": channels})
        norm = RangeNormalizer(arrays.pop("norm_min"), arrays.pop("norm_max"))
        den = ToyDenoiser(hyper, arrays)
        bundle = fldio.from_header(DenoiserBundle, header, denoiser=den, normalizer=norm)
        check_time_points(bundle.time_points)
        return bundle, header
