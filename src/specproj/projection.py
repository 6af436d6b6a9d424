"""Conservation projections applied to surrogate outputs in Fourier space.

Two stages, composable:

  * mass: per-mode Helmholtz subtraction of the gradient (irrotational)
    component, leaving the divergence-free part (``spectral.leray_project``).
    It shares the spectral core's Nyquist-zeroed wavenumbers with the
    divergence metric, so "divergence of the output is zero at every mode"
    is exact under the same derivative convention. An optional
    per-channel spectral multiplier (Hermitian by construction, identity at
    the zero mode and off the retained set) precedes the subtraction.

  * momentum: a learned per-channel spectral multiply with a kernel that is
    Hermitian and invariant under 180-degree rotation about the centered
    lattice origin (one parameterization satisfies both), evaluated on a
    zero-padded grid with center-shifted spectra, plus a residual path; a
    fixed three-value stencil with 90-degree rotational symmetry wraps both
    terms.

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

SPATIAL2D = "spatial2d"
SPATIOTEMPORAL3D = "spatiotemporal3d"

_MODE_CHANNELS = {SPATIAL2D: 2, SPATIOTEMPORAL3D: 3}


# ---------------------------------------------------------------------------
# retained-mode lattices (FFT order, "corner" scheme)
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


def _mirror_axes(shape: tuple[int, ...], axes: list[np.ndarray]) -> list[np.ndarray]:
    return [(-idx) % n for n, idx in zip(shape, axes)]


def _plane_mirror_perms(shape: tuple[int, ...], axes_idx: list[np.ndarray]) -> list[np.ndarray]:
    """Permutations mapping each stored non-last-axis index to the stored
    position of its negated frequency (the symmetric range mirrors onto
    itself)."""
    perms = []
    for idx, n in zip(axes_idx[:-1], shape[:-1]):
        lookup = {int(v): p for p, v in enumerate(idx)}
        perms.append(np.array([lookup[int((-v) % n)] for v in idx]))
    return perms


def _mirror_plane(plane: np.ndarray, perms: list[np.ndarray]) -> np.ndarray:
    out = plane
    for ax_off, perm in enumerate(perms):
        ax = plane.ndim - len(perms) + ax_off
        out = np.take(out, perm, axis=ax)
    return out


def _hermitianize_stored(
    w: np.ndarray, shape: tuple[int, ...], axes_idx: list[np.ndarray]
) -> np.ndarray:
    """Average the k_last = 0 plane of a stored corner lattice with its own
    conjugate mirror -- the only part of the stored set overlapping its
    mirror image -- so the expanded multiplier is Hermitian for any weights.
    """
    w = w.copy()
    perms = _plane_mirror_perms(shape, axes_idx)
    plane = w[..., 0]
    w[..., 0] = 0.5 * (plane + np.conj(_mirror_plane(plane, perms)))
    return w


# ---------------------------------------------------------------------------
# mass-conserving projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassProjectionConfig:
    """Helmholtz projection setup: 2 spatial channels or 3 flux channels
    over (t, x1, x2). ``w_spe`` is an optional per-channel complex multiplier
    over the corner lattice given by ``modes``; the zero mode always passes
    through unchanged so the spatial sum of every channel is preserved
    exactly for any parameters.
    """

    mode: str = SPATIAL2D
    modes: tuple[int, ...] | None = None
    w_spe: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in _MODE_CHANNELS:
            raise ContractError(f"unknown mass projection mode {self.mode!r}")
        if (self.w_spe is None) != (self.modes is None):
            raise ContractError("w_spe and modes must be given together")

    @property
    def channels(self) -> int:
        return _MODE_CHANNELS[self.mode]


def _check_mass_field(grid: GridSpec, channels: int, cfg: MassProjectionConfig):
    want = cfg.channels
    if channels != want:
        raise ContractError(
            f"{cfg.mode} projection needs {want} channels, got {channels}"
        )
    if grid.ndim != want:
        raise ContractError(
            f"{cfg.mode} projection needs {want} grid axes, got {grid.ndim}"
        )


def build_spectral_multiplier(
    shape: tuple[int, ...], modes: tuple[int, ...], w: np.ndarray
) -> np.ndarray:
    """Expand stored corner-lattice weights to a full-grid Hermitian
    multiplier that is 1 off the retained set and exactly 1 at the zero mode.
    """
    channels = w.shape[0]
    axes_idx = corner_mode_axes(shape, modes)
    wsym = _hermitianize_stored(w, shape, axes_idx)
    m = np.ones((channels,) + shape, dtype=np.complex128)
    sel = np.ix_(np.arange(channels), *axes_idx)
    mir = np.ix_(np.arange(channels), *_mirror_axes(shape, axes_idx))
    m[mir] = np.conj(wsym)
    m[sel] = wsym
    m[(slice(None),) + (0,) * len(shape)] = 1.0
    return m


def spectral_multiplier_grad(
    g_full: np.ndarray, shape: tuple[int, ...], modes: tuple[int, ...]
) -> np.ndarray:
    """Adjoint of build_spectral_multiplier w.r.t. the stored weights."""
    channels = g_full.shape[0]
    axes_idx = corner_mode_axes(shape, modes)
    mir_axes = _mirror_axes(shape, axes_idx)
    g = g_full.copy()
    g[(slice(None),) + (0,) * len(shape)] = 0.0  # zero mode pinned to 1
    sel = np.ix_(np.arange(channels), *axes_idx)
    mir = np.ix_(np.arange(channels), *mir_axes)
    direct = g[sel]
    conj_part = np.conj(g[mir])
    # off the k_last = 0 plane the mirror slot is distinct from the stored set
    g_w = direct.copy()
    g_w[..., 1:] += conj_part[..., 1:]
    # each k_last = 0 plane slot is one physical location written once from
    # the plane-averaged weights; chain through the averaging only
    perms = _plane_mirror_perms(shape, axes_idx)
    plane = direct[..., 0]
    g_w[..., 0] = 0.5 * (plane + np.conj(_mirror_plane(plane, perms)))
    return g_w


def mass_project_forward(
    x: np.ndarray, grid: GridSpec, cfg: MassProjectionConfig
) -> tuple[np.ndarray, dict]:
    """Batched projection: x is (B, C, *grid.shape) real. Returns (out, cache)."""
    _check_mass_field(grid, x.shape[1], cfg)
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


def _self_rows(p0: int) -> np.ndarray:
    return np.array([0, p0 // 2]) if p0 % 2 == 0 else np.array([p0 // 2])


def _mirror_index_grids(shape: tuple[int, ...]):
    grids = []
    for n in shape:
        grids.append((2 * (n // 2) - np.arange(n)) % n)
    return np.ix_(*grids)


@dataclass(frozen=True)
class RotationInvariantKernel:
    """Per-channel complex weights on a centered mode lattice, stored for a
    closed half-plane of rows (designated axis 0); the other half is the
    180-degree rotation with conjugation. The expanded kernel K satisfies
    K(-k) = conj(K(k)) exactly for every parameter setting, which keeps
    outputs real and makes correlation and convolution agree.
    """

    lattice_shape: tuple[int, ...]
    free_half: np.ndarray = field(repr=False)  # (channels, n_free_rows, *rest)

    def __post_init__(self):
        n_free = len(_free_rows(self.lattice_shape[0]))
        want = (n_free,) + tuple(self.lattice_shape[1:])
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
        n_free = len(_free_rows(lattice_shape[0]))
        free = np.ones((channels, n_free) + tuple(lattice_shape[1:]), dtype=np.complex128)
        return cls(lattice_shape, free)

    @classmethod
    def random(
        cls, lattice_shape: tuple[int, ...], channels: int, rng: np.random.Generator, scale: float = 1.0
    ) -> "RotationInvariantKernel":
        n_free = len(_free_rows(lattice_shape[0]))
        shape = (channels, n_free) + tuple(lattice_shape[1:])
        free = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return cls(lattice_shape, free)


def expand_kernel(kernel: RotationInvariantKernel) -> np.ndarray:
    """Full centered-lattice kernel (channels, *lattice_shape)."""
    shape = kernel.lattice_shape
    k = np.zeros((kernel.channels,) + shape, dtype=np.complex128)
    k[:, _free_rows(shape[0])] = kernel.free_half
    mir = (slice(None),) + _mirror_index_grids(shape)
    k = k + np.conj(k[mir])
    k[:, _self_rows(shape[0])] *= 0.5
    return k


def expand_kernel_grad(g_full: np.ndarray, lattice_shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of expand_kernel w.r.t. free_half."""
    g = g_full.copy()
    g[:, _self_rows(lattice_shape[0])] *= 0.5
    mir = (slice(None),) + _mirror_index_grids(lattice_shape)
    g = g + np.conj(g[mir])
    return g[:, _free_rows(lattice_shape[0])]


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
    xh = np.fft.fftshift(np.fft.fftn(xp, axes=axes), axes=axes)
    kfull = expand_kernel(kernel)
    wh = kfull[None] * xh
    spec = np.real(np.fft.ifftn(np.fft.ifftshift(wh, axes=axes), axes=axes))
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)
    spec = spec[crop]
    out = w_inv.apply(x, ndim) + w_inv.apply(spec, ndim)
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
    gs = w_inv.apply(g, ndim)  # stencil is symmetric, hence self-adjoint
    pad_width = [(0, 0), (0, 0)] + [(0, p) for p in padding]
    gp = np.pad(gs, pad_width)  # adjoint of crop
    npad = float(np.prod(cache["kernel"].lattice_shape))
    gh = np.fft.fftshift(np.fft.fftn(gp, axes=axes), axes=axes) / npad
    g_kfull = np.sum(gh * np.conj(cache["xh"]), axis=0)
    g_free = expand_kernel_grad(g_kfull, cache["kernel"].lattice_shape)
    gvh = np.conj(cache["kfull"])[None] * gh
    g_x = npad * np.real(np.fft.ifftn(np.fft.ifftshift(gvh, axes=axes), axes=axes))
    crop = (slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)
    g_x = g_x[crop] + gs
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

    mass: MassProjectionConfig | None = None
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
        if params.mass is None:
            raise ContractError("selector includes mass but no mass config given")
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
