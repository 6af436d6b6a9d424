"""Conservation projections applied to surrogate outputs in Fourier space.

Two stages, composable. Both work on FFT-order spectra (``numpy.fft``
layout, zero mode first), and both keep a learned spectral multiplier
Hermitian the same way: half of it is stored, and ``hermitian_expand``
completes it with the conjugate of the point mirror k -> -k.

  * mass: per-mode Helmholtz subtraction of the gradient (irrotational)
    component, leaving the divergence-free part (``spectral.leray_project``).
    The grid fixes what is projected: 2 velocity channels on a 2D grid, or
    3 flux channels over (t, x1, x2) on a 3D one. It shares the spectral
    core's Nyquist-zeroed wavenumbers with the divergence metric, so
    "divergence of the output is zero at every mode" is exact under the
    same derivative convention. An optional per-channel spectral
    multiplier (Hermitian by construction, identity at the zero mode and
    off the retained set) precedes the subtraction.

  * momentum: a learned per-channel spectral multiply on a zero-padded
    grid plus a residual path, both wrapped by a fixed three-value stencil
    with 90-degree rotational symmetry. The kernel is stored as a closed
    half of a centered lattice (the ``.mdl`` layout); the centering is a
    storage convention only, and the kernel is expanded straight into FFT
    order. For any weights the stage is Hermitian (K(-k) = conj(K(k)), so
    outputs are real), invariant under 180-degree rotation of the kernel
    lattice (the same condition), and shift-equivariant (a per-mode
    multiply and a periodic stencil). Last, every channel's zero mode is
    set back to the input's (the L2-orthogonal projection onto fields with
    the input's channel sums), so channel sums are conserved for any
    weights, as the mass stage's pinned zero mode conserves them; the unit
    kernel doubles a field's fluctuation about its mean.

Every forward here has a hand-derived adjoint (*_backward) so the surrogate
can train through the projection. All functions are pure; parameter objects
are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .grids import GridSpec, RealField
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


def mass_project_forward(
    x: np.ndarray, grid: GridSpec, cfg: MassProjectionConfig
) -> tuple[np.ndarray, dict]:
    """Batched projection: x is (B, C, *grid.shape) real. Returns (out, cache)."""
    if grid.ndim not in (2, 3) or x.shape[1] != grid.ndim:
        raise ContractError(
            "mass projection needs a 2D or 3D grid with one channel per axis, "
            f"got {x.shape[1]} channels on {grid.ndim} axes"
        )
    axes = tuple(range(2, x.ndim))
    xh = np.fft.fftn(x, axes=axes)
    cache: dict = {"grid": grid, "cfg": cfg}
    if cfg.w_spe is not None:
        mult = build_spectral_multiplier(grid.shape, cfg.modes, cfg.w_spe)
        cache["xh_pre"] = xh
        cache["mult"] = mult
        xh = mult[None] * xh
    ph = leray_project(xh, grid.shape, grid.extents)
    out = np.real(np.fft.ifftn(ph, axes=axes))
    return out, cache


def mass_project_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Adjoint of mass_project_forward; the Helmholtz stage is self-adjoint."""
    grid: GridSpec = cache["grid"]
    cfg: MassProjectionConfig = cache["cfg"]
    axes = tuple(range(2, g.ndim))
    gh = np.fft.fftn(g, axes=axes)
    gh = leray_project(gh, grid.shape, grid.extents)
    g_wspe = None
    if cfg.w_spe is not None:
        g_mult_full = np.sum(gh * np.conj(cache["xh_pre"]), axis=0) / float(
            np.prod(grid.shape)
        )
        g_wspe = spectral_multiplier_grad(g_mult_full, grid.shape, cfg.modes)
        gh = np.conj(cache["mult"])[None] * gh
    g_x = np.real(np.fft.ifftn(gh, axes=axes))
    return g_x, g_wspe


def project_divergence_free(v: RealField, cfg: MassProjectionConfig) -> RealField:
    out, _ = mass_project_forward(v.data[None], v.grid, cfg)
    return RealField(v.grid, out[0])


# ---------------------------------------------------------------------------
# momentum-conserving projection
# ---------------------------------------------------------------------------

def _free_rows(p0: int) -> np.ndarray:
    """Array-index rows of the centered lattice carrying free weights:
    non-negative centered frequencies plus, for even sizes, the edge row."""
    rows = list(range(p0 // 2, p0))
    if p0 % 2 == 0:
        rows = [0] + rows
    return np.array(rows)


def _half_shape(lattice_shape: tuple[int, ...], channels: int) -> tuple[int, ...]:
    return (channels, len(_free_rows(lattice_shape[0]))) + tuple(lattice_shape[1:])


def _kernel_stored(lattice_shape: tuple[int, ...]) -> list[np.ndarray]:
    """FFT-order index set of the stored half: centered index c on an axis
    of size n sits at FFT index (c - n//2) mod n."""
    centered = [_free_rows(lattice_shape[0])] + [np.arange(n) for n in lattice_shape[1:]]
    return [(c - n // 2) % n for c, n in zip(centered, lattice_shape)]


@dataclass(frozen=True)
class RotationInvariantKernel:
    """Per-channel complex weights stored on a closed half-plane of rows
    (designated axis 0) of a centered mode lattice; the other half is the
    180-degree rotation with conjugation. The centering is the storage
    layout only: the expanded kernel K is in FFT order and satisfies
    K(-k) = conj(K(k)) exactly for every parameter setting, which keeps
    outputs real and makes correlation and convolution agree.
    """

    lattice_shape: tuple[int, ...]
    free_half: np.ndarray = field(repr=False)  # (channels, n_free_rows, *rest)

    def __post_init__(self):
        want = _half_shape(self.lattice_shape, 0)[1:]
        if self.free_half.ndim != len(self.lattice_shape) + 1 or self.free_half.shape[1:] != want:
            raise ContractError(
                f"free_half shape {self.free_half.shape} does not match "
                f"(channels, {want}) for lattice {self.lattice_shape}"
            )
        object.__setattr__(
            self, "free_half", np.ascontiguousarray(self.free_half, dtype=np.complex128)
        )

    @property
    def channels(self) -> int:
        return self.free_half.shape[0]

    @classmethod
    def unit(cls, lattice_shape: tuple[int, ...], channels: int) -> "RotationInvariantKernel":
        return cls(lattice_shape, np.ones(_half_shape(lattice_shape, channels), dtype=np.complex128))

    @classmethod
    def random(
        cls, lattice_shape: tuple[int, ...], channels: int, rng: np.random.Generator, scale: float = 1.0
    ) -> "RotationInvariantKernel":
        shape = _half_shape(lattice_shape, channels)
        free = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return cls(lattice_shape, free)


def expand_kernel(kernel: RotationInvariantKernel) -> np.ndarray:
    """Full FFT-order kernel (channels, *lattice_shape)."""
    shape = kernel.lattice_shape
    return hermitian_expand(kernel.free_half, _kernel_stored(shape), shape, fill=0.0)


def expand_kernel_grad(g_full: np.ndarray, lattice_shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of expand_kernel w.r.t. free_half."""
    return hermitian_expand_grad(g_full, _kernel_stored(lattice_shape), lattice_shape)


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
    grid_shape: tuple[int, ...],
    kernel: RotationInvariantKernel,
    w_inv: P4Stencil,
    padding: tuple[int, ...],
) -> tuple[np.ndarray, dict]:
    """Batched momentum projection on (B, C, *grid_shape) arrays."""
    ndim = len(grid_shape)
    if len(padding) != ndim or any(p < 0 for p in padding):
        raise ContractError("padding needs one non-negative count per axis")
    padded = tuple(n + p for n, p in zip(grid_shape, padding))
    if kernel.lattice_shape != padded:
        raise ContractError(
            f"kernel lattice {kernel.lattice_shape} does not match padded grid {padded}"
        )
    if kernel.channels != x.shape[1]:
        raise ContractError("kernel channel count does not match field")
    axes = tuple(range(2, x.ndim))
    pad_width = [(0, 0), (0, 0)] + [(0, p) for p in padding]
    xp = np.pad(x, pad_width)
    xh = np.fft.fftn(xp, axes=axes)
    kfull = expand_kernel(kernel)
    wh = kfull[None] * xh
    spec = np.real(np.fft.ifftn(wh, axes=axes))
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)
    spec = spec[crop]
    out = w_inv.apply(x, ndim) + w_inv.apply(spec, ndim)
    out += x.mean(axis=axes, keepdims=True) - out.mean(axis=axes, keepdims=True)
    cache = {
        "xh": xh,
        "kfull": kfull,
        "kernel": kernel,
        "w_inv": w_inv,
        "padding": padding,
        "grid_shape": grid_shape,
    }
    return out, cache


def momentum_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of momentum_forward -> (g_x, g_free_half)."""
    grid_shape = cache["grid_shape"]
    padding = cache["padding"]
    ndim = len(grid_shape)
    axes = tuple(range(2, g.ndim))
    w_inv: P4Stencil = cache["w_inv"]
    g_mean = g.mean(axis=axes, keepdims=True)  # adjoint of the zero-mode reset
    gs = w_inv.apply(g - g_mean, ndim)  # stencil is symmetric, hence self-adjoint
    pad_width = [(0, 0), (0, 0)] + [(0, p) for p in padding]
    gp = np.pad(gs, pad_width)  # adjoint of crop
    npad = float(np.prod(cache["kernel"].lattice_shape))
    gh = np.fft.fftn(gp, axes=axes) / npad
    g_kfull = np.sum(gh * np.conj(cache["xh"]), axis=0)
    g_free = expand_kernel_grad(g_kfull, cache["kernel"].lattice_shape)
    gvh = np.conj(cache["kfull"])[None] * gh
    g_x = npad * np.real(np.fft.ifftn(gvh, axes=axes))
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)
    g_x = g_x[crop] + gs + g_mean
    return g_x, g_free


def project_momentum(
    v: RealField,
    kernel: RotationInvariantKernel,
    w_inv: P4Stencil = IDENTITY_STENCIL,
    padding: tuple[int, ...] | None = None,
) -> RealField:
    if padding is None:
        padding = (0,) * v.grid.ndim
    out, _ = momentum_forward(v.data[None], v.grid.shape, kernel, w_inv, padding)
    return RealField(v.grid, out[0])


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

SELECTORS = ("none", "mass", "momentum", "both")


@dataclass(frozen=True)
class ProjectionParams:
    """Everything the composite projection needs; owned by the surrogate's
    parameter container so kernels travel with the model."""

    mass: MassProjectionConfig = MassProjectionConfig()
    kernel: RotationInvariantKernel | None = None
    w_inv: P4Stencil = IDENTITY_STENCIL
    padding: tuple[int, ...] = ()


def compose_forward(
    x: np.ndarray, grid: GridSpec, selector: str, params: ProjectionParams
) -> tuple[np.ndarray, dict]:
    if selector not in SELECTORS:
        raise ContractError(f"unknown selector {selector!r}")
    cache: dict = {"selector": selector}
    if selector == "none":
        return x, cache
    if selector in ("mass", "both"):
        x, cache["mass"] = mass_project_forward(x, grid, params.mass)
    if selector in ("momentum", "both"):
        if params.kernel is None:
            raise ContractError("selector includes momentum but no kernel given")
        padding = params.padding or (0,) * grid.ndim
        x, cache["momentum"] = momentum_forward(
            x, grid.shape, params.kernel, params.w_inv, padding
        )
    return x, cache


def compose_backward(g: np.ndarray, cache: dict):
    """Adjoint of compose_forward -> (g_x, g_free_half, g_wspe)."""
    g_free = g_wspe = None
    if "momentum" in cache:
        g, g_free = momentum_backward(g, cache["momentum"])
    if "mass" in cache:
        g, g_wspe = mass_project_backward(g, cache["mass"])
    return g, g_free, g_wspe


def compose_projection(v: RealField, selector: str, params: ProjectionParams) -> RealField:
    out, _ = compose_forward(v.data[None], v.grid, selector, params)
    return RealField(v.grid, out[0])
