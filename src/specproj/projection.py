"""Conservation projections applied to surrogate outputs in Fourier space.

Two stages, composable. Both work on batched arrays (B, C, *spatial) and
read the grid off their trailing axes; both act on FFT-order spectra
(``numpy.fft`` layout, zero mode first), and both store a learned spectral
multiplier the same way: per channel, on the corner set of retained low
modes (``corner_mode_axes``), and ``hermitian_expand`` completes it with
the conjugate of the point mirror k -> -k.

  * mass: per-mode Helmholtz subtraction of the gradient (irrotational)
    component, leaving the divergence-free part (``spectral.leray_project``).
    The array's axes fix what is projected: 2 velocity channels over 2
    axes, or 3 flux channels over (t, x1, x2). Each axis is taken as one
    period long, as FLD1 files (sizes only) and the divergence metric take
    it. It shares the spectral core's Nyquist-zeroed wavenumbers with the
    divergence metric, so "divergence of the output is zero at every mode"
    is exact under the same derivative convention. An optional per-channel
    spectral multiplier (Hermitian by construction, identity at the zero
    mode and off the retained set) precedes the subtraction.

  * momentum: a learned per-channel spectral multiply on a zero-padded
    grid plus a residual path, both wrapped by a fixed three-value stencil
    with 90-degree rotational symmetry. The kernel is stored as the mass
    stage's multiplier is, on the corner set of its mode counts, and
    expanded (zero off the set) onto whatever padded grid the input has, so
    a model transfers across resolutions. For any weights the stage is
    Hermitian (K(-k) = conj(K(k)), so outputs are real), invariant under
    180-degree rotation of the kernel (the same condition), and
    shift-equivariant (a per-mode multiply and a periodic stencil). Last,
    every channel's zero mode is set back to the input's (the L2-orthogonal
    projection onto fields with the input's channel sums), so channel sums
    are conserved for any weights, as the mass stage's pinned zero mode
    conserves them; a unit kernel that covers every mode doubles a field's
    fluctuation about its mean.

Composed (``both``), momentum runs first and mass last, so the output is
divergence-free for any weights; both stages keep channel sums, so it
conserves them too.

Every forward here has a hand-derived adjoint (*_backward) so the surrogate
can train through the projection. All functions are pure; parameter objects
are immutable after construction. ``project_divergence_free``,
``project_momentum`` and ``compose_projection`` wrap the stages for one
``RealField``, the container of the I/O edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .grids import RealField
from .spectral import leray_project


# ---------------------------------------------------------------------------
# retained-mode lattices and the Hermitian completion (FFT order)
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


def _point_mirror(shape: tuple[int, ...]):
    """Index grids of the FFT-order point mirror i -> (-i) mod n, i.e. k -> -k."""
    return np.ix_(*[(-np.arange(n)) % n for n in shape])


def _cover(stored: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Per slot: 1 on the stored set plus 1 on its mirror image."""
    c = np.zeros(shape, dtype=np.int8)
    c[np.ix_(*stored)] = 1
    return c + c[_point_mirror(shape)]


def hermitian_expand(
    w: np.ndarray, stored: list[np.ndarray], shape: tuple[int, ...], fill: float
) -> np.ndarray:
    """Complete per-channel weights ``w`` stored on the FFT-order index set
    ``np.ix_(*stored)`` to a (channels, *shape) multiplier with
    K(-k) = conj(K(k)) for any weights: add the conjugate point mirror,
    halve the slots where the set meets its mirror, and set ``fill`` on
    every slot outside both."""
    k = np.zeros(w.shape[:1] + tuple(shape), dtype=np.complex128)
    k[(slice(None),) + np.ix_(*stored)] = w
    k = k + np.conj(k[(slice(None),) + _point_mirror(shape)])
    cover = _cover(stored, shape)
    k[:, cover == 2] *= 0.5
    k[:, cover == 0] = fill
    return k


def hermitian_expand_grad(
    g_full: np.ndarray, stored: list[np.ndarray], shape: tuple[int, ...]
) -> np.ndarray:
    """Adjoint of hermitian_expand w.r.t. the stored weights."""
    g = g_full.copy()
    g[:, _cover(stored, shape) == 2] *= 0.5
    g = g + np.conj(g[(slice(None),) + _point_mirror(shape)])
    return g[(slice(None),) + np.ix_(*stored)]


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


def build_spectral_multiplier(
    shape: tuple[int, ...], modes: tuple[int, ...], w: np.ndarray
) -> np.ndarray:
    """Expand stored corner-lattice weights to a full-grid Hermitian
    multiplier that is 1 off the retained set and exactly 1 at the zero mode.
    """
    m = hermitian_expand(w, corner_mode_axes(shape, modes), shape, fill=1.0)
    m[(slice(None),) + (0,) * len(shape)] = 1.0
    return m


def spectral_multiplier_grad(
    g_full: np.ndarray, shape: tuple[int, ...], modes: tuple[int, ...]
) -> np.ndarray:
    """Adjoint of build_spectral_multiplier w.r.t. the stored weights."""
    g = g_full.copy()
    g[(slice(None),) + (0,) * len(shape)] = 0.0  # zero mode pinned to 1
    return hermitian_expand_grad(g, corner_mode_axes(shape, modes), shape)


def _leray(xh: np.ndarray) -> np.ndarray:
    """The Helmholtz stage on a (B, C, *spatial) spectrum, one period per axis."""
    shape = xh.shape[2:]
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
    xh = np.fft.fftn(x, axes=axes)
    cache: dict = {"cfg": cfg}
    if cfg.w_spe is not None:
        mult = build_spectral_multiplier(shape, cfg.modes, cfg.w_spe)
        cache["xh_pre"] = xh
        cache["mult"] = mult
        xh = mult[None] * xh
    out = np.real(np.fft.ifftn(_leray(xh), axes=axes))
    return out, cache


def mass_project_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Adjoint of mass_project_forward; the Helmholtz stage is self-adjoint."""
    cfg: MassProjectionConfig = cache["cfg"]
    shape = g.shape[2:]
    axes = tuple(range(2, g.ndim))
    gh = _leray(np.fft.fftn(g, axes=axes))
    g_wspe = None
    if cfg.w_spe is not None:
        g_mult_full = np.sum(gh * np.conj(cache["xh_pre"]), axis=0) / float(np.prod(shape))
        g_wspe = spectral_multiplier_grad(g_mult_full, shape, cfg.modes)
        gh = np.conj(cache["mult"])[None] * gh
    g_x = np.real(np.fft.ifftn(gh, axes=axes))
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
    corner = corner_mode_axes(padded, modes)
    if kernel.shape != (x.shape[1],) + corner_dims(modes):
        raise ContractError(f"momentum kernel shape {kernel.shape} does not match "
                            f"{x.shape[1]} channels on modes {modes}")
    axes = tuple(range(2, x.ndim))
    pad_width = [(0, 0), (0, 0)] + [(0, p) for p in padding]
    xp = np.pad(x, pad_width)
    xh = np.fft.fftn(xp, axes=axes)
    kfull = hermitian_expand(kernel, corner, padded, fill=0.0)
    wh = kfull[None] * xh
    spec = np.real(np.fft.ifftn(wh, axes=axes))
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)
    spec = spec[crop]
    out = w_inv.apply(x, ndim) + w_inv.apply(spec, ndim)
    out += x.mean(axis=axes, keepdims=True) - out.mean(axis=axes, keepdims=True)
    cache = {
        "xh": xh,
        "kfull": kfull,
        "corner": corner,
        "padded": padded,
        "w_inv": w_inv,
        "padding": padding,
    }
    return out, cache


def momentum_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of momentum_forward -> (g_x, g_kernel)."""
    grid_shape = g.shape[2:]
    padding = cache["padding"]
    padded = cache["padded"]
    ndim = len(grid_shape)
    axes = tuple(range(2, g.ndim))
    w_inv: P4Stencil = cache["w_inv"]
    g_mean = g.mean(axis=axes, keepdims=True)  # adjoint of the zero-mode reset
    gs = w_inv.apply(g - g_mean, ndim)  # stencil is symmetric, hence self-adjoint
    pad_width = [(0, 0), (0, 0)] + [(0, p) for p in padding]
    gp = np.pad(gs, pad_width)  # adjoint of crop
    npad = float(np.prod(padded))
    gh = np.fft.fftn(gp, axes=axes) / npad
    g_kfull = np.sum(gh * np.conj(cache["xh"]), axis=0)
    g_kernel = hermitian_expand_grad(g_kfull, cache["corner"], padded)
    gvh = np.conj(cache["kfull"])[None] * gh
    g_x = npad * np.real(np.fft.ifftn(gvh, axes=axes))
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)
    g_x = g_x[crop] + gs + g_mean
    return g_x, g_kernel


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
