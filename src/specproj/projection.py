"""Conservation projections applied to surrogate outputs in Fourier space.

Two stages, composable. Both work on batched arrays (B, C, *spatial) and
read the grid off their trailing axes; both act on the rfft half spectrum
(``numpy.fft.rfftn``: the last axis keeps 0..n//2, the others are in FFT
order, zero mode first), and both store a learned spectral multiplier the
same way: per channel, on the corner set of retained low modes
(``corner_mode_axes``), which the half spectrum holds as it is. Each stage
multiplies that corner by the stored weights and ``irfftn`` completes the
rest: a slot at k_last > 0 stands for k and its conjugate at -k, and on the
k_last = 0 plane irfftn keeps the real part, which averages the weight at k
with the conjugate of the one at -k. So the effective multiplier is
Hermitian (K(-k) = conj(K(k))) for any weights, and outputs are real.

  * mass: per-mode Helmholtz subtraction of the gradient (irrotational)
    component, leaving the divergence-free part (``spectral.leray_project``).
    The array's axes fix what is projected: 2 velocity channels over 2
    axes, or 3 flux channels over (t, x1, x2). Each axis is taken as one
    period long, as FLD1 files (sizes only) and the divergence metric take
    it. It shares the spectral core's Nyquist-zeroed wavenumbers with the
    divergence metric, so "divergence of the output is zero at every mode"
    is exact under the same derivative convention. An optional per-channel
    spectral multiplier (written on the corner, exactly 1 at the zero mode
    and 1 off the corner) precedes the subtraction.

  * momentum: a learned per-channel spectral multiply on a zero-padded
    grid plus a residual path, both wrapped by a fixed three-value stencil
    with 90-degree rotational symmetry. The kernel is stored as the mass
    stage's multiplier is, on the corner set of its mode counts, and is
    zero off the corner of whatever padded grid the input has, so a model
    transfers across resolutions. For any weights the stage is Hermitian,
    invariant under 180-degree rotation of the kernel (the same condition),
    and shift-equivariant (a per-mode multiply and a periodic stencil). Last,
    every channel's zero mode is set back to the input's (the L2-orthogonal
    projection onto fields with the input's channel sums), so channel sums
    are conserved for any weights, as the mass stage's pinned zero mode
    conserves them; a unit kernel that covers every mode doubles a field's
    fluctuation about its mean.

Composed (``both``), momentum runs first and mass last, so the output is
divergence-free for any weights; both stages keep channel sums, so it
conserves them too.

Every forward here has a hand-derived adjoint (*_backward) so the surrogate
can train through the projection: the same corner multiply with the
conjugate weights, and for the weights the corner of sum_b g^ conj(x^) / N,
doubled at k_last > 0 where irfftn counts a slot twice. All functions are
pure; parameter objects are immutable after construction.
``project_divergence_free``, ``project_momentum`` and ``compose_projection``
wrap the stages for one ``RealField``, the container of the I/O edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .grids import RealField
from .spectral import leray_project


# ---------------------------------------------------------------------------
# retained-mode lattices (FFT order, rfft half layout on the last axis)
# ---------------------------------------------------------------------------

def corner_mode_axes(shape: tuple[int, ...], modes: tuple[int, ...]) -> list[np.ndarray]:
    """Per-axis FFT-order indices of the retained low-frequency modes.

    Last axis keeps 0..m-1; every other axis keeps the symmetric range
    -(m-1)..m-1. Requires m >= 1 and the ranges to fit without touching the
    Nyquist mode.
    """
    if len(modes) != len(shape):
        raise ContractError("one mode count per axis required")
    out = []
    for j, (n, m) in enumerate(zip(shape, modes)):
        if m < 1:
            raise ContractError("mode counts must be >= 1")
        if m - 1 >= (n + 1) // 2:
            raise ContractError(f"axis {j}: {m} modes do not fit in size {n}")
        if j == len(shape) - 1:
            idx = np.arange(m)
        else:
            idx = np.concatenate([np.arange(m), np.arange(n - m + 1, n)])
        out.append(idx)
    return out


def corner_dims(modes: tuple[int, ...]) -> tuple[int, ...]:
    """Sizes of the ``corner_mode_axes`` index sets, the same on every grid
    the modes fit in: 2m - 1 per axis, m on the last."""
    if any(m < 1 for m in modes):
        raise ContractError("mode counts must be >= 1")
    return tuple(2 * m - 1 for m in modes[:-1]) + tuple(modes[-1:])


def _corner(shape: tuple[int, ...], modes: tuple[int, ...]):
    """Index of the corner set on a (B, C, *half) rfft spectrum of a
    ``shape`` grid: the last axis keeps 0..m-1, which the half layout holds
    in FFT order as the other axes are."""
    return (slice(None), slice(None)) + np.ix_(*corner_mode_axes(shape, modes))


def _corner_grad(g: np.ndarray) -> np.ndarray:
    """Gradient of the stored corner weights from the corner of
    sum_b g^ conj(x^) / N. irfftn counts a slot at k_last > 0 twice (for k
    and its conjugate at -k), so its weight's gradient doubles there; the
    k_last = 0 plane holds both k and -k, each weight once."""
    g[..., 1:] *= 2.0
    return g


def _corner_rfftn(x: np.ndarray, padded: tuple[int, ...], modes: tuple[int, ...]) -> np.ndarray:
    """The corner set of the rfftn of (B, C, *spatial) ``x`` zero-padded to
    ``padded``, as (B, C, *corner_dims(modes)). Only the corner's columns of
    the last axis go through the leading transforms."""
    lead = tuple(range(2, x.ndim - 1))
    xh = np.fft.rfft(x, n=padded[-1], axis=-1)[..., :modes[-1]]
    return np.fft.fftn(xh, s=padded[:-1], axes=lead)[_corner(padded, modes)]


def _corner_irfftn(c: np.ndarray, padded: tuple[int, ...], modes: tuple[int, ...],
                   shape: tuple[int, ...]) -> np.ndarray:
    """The irfftn over ``padded`` of the half spectrum that is ``c`` on the
    corner set and zero elsewhere, cropped to ``shape``: the way back from
    ``_corner_rfftn``'s layout."""
    lead = tuple(range(2, c.ndim - 1))
    wh = np.zeros(c.shape[:2] + padded[:-1] + modes[-1:], dtype=np.complex128)
    wh[_corner(padded, modes)] = c
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in shape[:-1])
    wh = np.fft.ifftn(wh, axes=lead)[crop]
    return np.fft.irfft(wh, n=padded[-1], axis=-1)[..., :shape[-1]]


# ---------------------------------------------------------------------------
# mass-conserving projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassProjectionConfig:
    """Helmholtz projection setup. ``w_spe`` is an optional per-channel
    complex multiplier over the corner lattice given by ``modes``; the zero
    mode always passes through unchanged so the spatial sum of every
    channel is preserved exactly for any parameters.
    """

    modes: tuple[int, ...] | None = None
    w_spe: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.w_spe is None) != (self.modes is None):
            raise ContractError("w_spe and modes must be given together")


def _leray(xh: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The Helmholtz stage on the (B, C, *half) spectrum of a ``shape``
    grid, one period per axis."""
    return leray_project(xh, shape, (1.0,) * len(shape))


def mass_project_forward(x: np.ndarray, cfg: MassProjectionConfig) -> tuple[np.ndarray, dict]:
    """Batched projection: x is (B, C, *spatial) real. Returns (out, cache)."""
    shape = x.shape[2:]
    if len(shape) not in (2, 3) or x.shape[1] != len(shape):
        raise ContractError(
            "mass projection needs a 2D or 3D grid with one channel per axis, "
            f"got {x.shape[1]} channels on {len(shape)} axes"
        )
    axes = tuple(range(2, x.ndim))
    xh = np.fft.rfftn(x, axes=axes)
    cache: dict = {"cfg": cfg}
    if cfg.w_spe is not None:
        corner = _corner(shape, cfg.modes)
        w = cfg.w_spe.copy()
        w[(slice(None),) + (0,) * len(shape)] = 1.0  # the zero mode passes through
        cache["xh_corner"] = xh[corner]
        cache["w"] = w
        xh[corner] = w[None] * cache["xh_corner"]
    out = np.fft.irfftn(_leray(xh, shape), s=shape, axes=axes)
    return out, cache


def mass_project_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Adjoint of mass_project_forward; the Helmholtz stage is self-adjoint."""
    cfg: MassProjectionConfig = cache["cfg"]
    shape = g.shape[2:]
    axes = tuple(range(2, g.ndim))
    gh = _leray(np.fft.rfftn(g, axes=axes), shape)
    g_wspe = None
    if cfg.w_spe is not None:
        corner = _corner(shape, cfg.modes)
        gc = gh[corner]
        g_wspe = np.sum(gc * np.conj(cache["xh_corner"]), axis=0) / float(np.prod(shape))
        g_wspe[(slice(None),) + (0,) * len(shape)] = 0.0  # zero mode pinned to 1
        g_wspe = _corner_grad(g_wspe)
        gh[corner] = np.conj(cache["w"])[None] * gc
    g_x = np.fft.irfftn(gh, s=shape, axes=axes)
    return g_x, g_wspe


def _one_period(v: RealField) -> np.ndarray:
    """``v`` as a batch of one, for the mass stage, which takes each axis
    as one period long."""
    if any(e != 1.0 for e in v.grid.extents):
        raise ContractError(f"mass projection takes one period per axis, "
                            f"got extents {v.grid.extents}")
    return v.data[None]


def project_divergence_free(v: RealField, cfg: MassProjectionConfig) -> RealField:
    out, _ = mass_project_forward(_one_period(v), cfg)
    return RealField(v.grid, out[0])


# ---------------------------------------------------------------------------
# momentum-conserving projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P4Stencil:
    """Fixed 3^d periodic stencil with exactly three distinct values shared
    under all 90-degree rotations: center c, edge e (one nonzero offset),
    corner r (several nonzero offsets). (1, 0, 0) is the identity.
    """

    c: float = 1.0
    e: float = 0.0
    r: float = 0.0

    def offsets(self, ndim: int):
        from itertools import product

        for off in product((-1, 0, 1), repeat=ndim):
            nz = sum(1 for o in off if o != 0)
            w = self.c if nz == 0 else (self.e if nz == 1 else self.r)
            yield off, w

    def apply(self, x: np.ndarray, ndim: int) -> np.ndarray:
        """Periodic correlation over the trailing ``ndim`` axes."""
        out = np.zeros_like(x)
        axes = tuple(range(x.ndim - ndim, x.ndim))
        for off, w in self.offsets(ndim):
            if w == 0.0:
                continue
            out += w * np.roll(x, shift=tuple(-o for o in off), axis=axes)
        return out


IDENTITY_STENCIL = P4Stencil(1.0, 0.0, 0.0)


def _stencil(w_inv: P4Stencil, x: np.ndarray, ndim: int) -> np.ndarray:
    """``w_inv`` applied to ``x``, skipped for the identity (``w_inv`` is
    never trained, so production always has it)."""
    return x if w_inv == IDENTITY_STENCIL else w_inv.apply(x, ndim)


def default_padding(shape: tuple[int, ...]) -> tuple[int, ...]:
    """ceil(N/4) cells per axis; mitigates wrap-around on non-periodic data."""
    return tuple(-(-n // 4) for n in shape)


def momentum_forward(
    x: np.ndarray,
    kernel: np.ndarray,
    modes: tuple[int, ...],
    w_inv: P4Stencil,
    padding: tuple[int, ...],
) -> tuple[np.ndarray, dict]:
    """Batched momentum projection on (B, C, *spatial) arrays. ``kernel``
    is (C, *corner_dims(modes)) complex weights on the corner set of the
    padded grid, whatever its size."""
    grid_shape = x.shape[2:]
    ndim = len(grid_shape)
    if len(padding) != ndim or any(p < 0 for p in padding):
        raise ContractError("padding needs one non-negative count per axis")
    padded = tuple(n + p for n, p in zip(grid_shape, padding))
    if kernel.shape != (x.shape[1],) + corner_dims(modes):
        raise ContractError(f"momentum kernel shape {kernel.shape} does not match "
                            f"{x.shape[1]} channels on modes {modes}")
    axes = tuple(range(2, x.ndim))
    xc = _corner_rfftn(x, padded, modes)
    spec = _corner_irfftn(kernel[None] * xc, padded, modes, grid_shape)
    out = _stencil(w_inv, x, ndim) + _stencil(w_inv, spec, ndim)
    out += x.mean(axis=axes, keepdims=True) - out.mean(axis=axes, keepdims=True)
    cache = {"xh_corner": xc, "kernel": kernel, "modes": modes, "padded": padded,
             "w_inv": w_inv}
    return out, cache


def momentum_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of momentum_forward -> (g_x, g_kernel)."""
    grid_shape = g.shape[2:]
    padded, modes = cache["padded"], cache["modes"]
    axes = tuple(range(2, g.ndim))
    g_mean = g.mean(axis=axes, keepdims=True)  # adjoint of the zero-mode reset
    # the stencil is symmetric, hence self-adjoint
    gs = _stencil(cache["w_inv"], g - g_mean, len(grid_shape))
    gc = _corner_rfftn(gs, padded, modes)
    g_kernel = _corner_grad(
        np.sum(gc * np.conj(cache["xh_corner"]), axis=0) / float(np.prod(padded)))
    g_x = _corner_irfftn(np.conj(cache["kernel"])[None] * gc, padded, modes, grid_shape)
    return g_x + gs + g_mean, g_kernel


def project_momentum(
    v: RealField,
    kernel: np.ndarray,
    modes: tuple[int, ...],
    w_inv: P4Stencil = IDENTITY_STENCIL,
    padding: tuple[int, ...] | None = None,
) -> RealField:
    if padding is None:
        padding = (0,) * v.grid.ndim
    out, _ = momentum_forward(v.data[None], kernel, modes, w_inv, padding)
    return RealField(v.grid, out[0])


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

SELECTORS = ("none", "mass", "momentum", "both")


@dataclass(frozen=True)
class ProjectionParams:
    """Everything the composite projection needs; owned by the surrogate's
    parameter container so kernels travel with the model. ``kernel`` holds
    the momentum weights on the corner set of ``modes``."""

    mass: MassProjectionConfig = MassProjectionConfig()
    kernel: np.ndarray | None = field(default=None, repr=False)
    modes: tuple[int, ...] = ()
    w_inv: P4Stencil = IDENTITY_STENCIL
    padding: tuple[int, ...] = ()


def compose_forward(
    x: np.ndarray, selector: str, params: ProjectionParams
) -> tuple[np.ndarray, dict]:
    """The selected stages, momentum first and mass last (see the module
    docstring)."""
    if selector not in SELECTORS:
        raise ContractError(f"unknown selector {selector!r}")
    cache: dict = {"selector": selector}
    if selector == "none":
        return x, cache
    if selector in ("momentum", "both"):
        if params.kernel is None:
            raise ContractError("selector includes momentum but no kernel given")
        padding = params.padding or (0,) * (x.ndim - 2)
        x, cache["momentum"] = momentum_forward(
            x, params.kernel, params.modes, params.w_inv, padding
        )
    if selector in ("mass", "both"):
        x, cache["mass"] = mass_project_forward(x, params.mass)
    return x, cache


def compose_backward(g: np.ndarray, cache: dict):
    """Adjoint of compose_forward -> (g_x, g_kernel, g_wspe)."""
    g_kernel = g_wspe = None
    if "mass" in cache:
        g, g_wspe = mass_project_backward(g, cache["mass"])
    if "momentum" in cache:
        g, g_kernel = momentum_backward(g, cache["momentum"])
    return g, g_kernel, g_wspe


def compose_projection(v: RealField, selector: str, params: ProjectionParams) -> RealField:
    x = _one_period(v) if selector in ("mass", "both") else v.data[None]
    out, _ = compose_forward(x, selector, params)
    return RealField(v.grid, out[0])
