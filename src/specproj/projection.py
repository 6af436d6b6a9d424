"""Conservation projections applied to surrogate outputs in Fourier space.

Two stages, composable. Both work on batched arrays (B, C, *spatial) and
read the grid off their trailing axes; both act on the rfft half spectrum
(``numpy.fft.rfftn``: the last axis keeps 0..n//2, the others are in FFT
order, zero mode first), and both store a learned spectral multiplier the
same way: per channel, on the corner set of retained low modes
(``spectral.corner_mode_axes``), which the half spectrum holds as it is.
The weights mean what they mean to ``irfftn`` of the multiplied corner: a
slot at k_last > 0 stands for k and its conjugate at -k, and on the
k_last = 0 plane irfftn keeps the real part, which averages the weight at k
with the conjugate of the one at -k. So the effective multiplier is
Hermitian (K(-k) = conj(K(k))) for any weights, and outputs are real. The
mass stage multiplies the corner of the full rfftn spectrum in place; the
momentum stage, whose multiplier is zero off the corner, goes to and from
the corner alone through ``spectral.mode_grid``, the Fourier layers'
transform, with its weights doubled at k_last > 0 (``_irfftn_factor``)
since that transform's scatter counts every slot once.

  * mass: per-mode Helmholtz subtraction of the gradient (irrotational)
    component, leaving the divergence-free part (``spectral.leray_project``).
    The array's axes fix what is projected: 2 velocity channels over 2
    axes, or 3 flux channels over (t, x1, x2), each axis one period long
    (``specproj.spectral``). It shares the spectral core's Nyquist-zeroed
    wavenumbers with the divergence metric, so "divergence of the output is
    zero at every mode" is exact under the same derivative convention. An
    optional per-channel spectral multiplier (written on the corner, exactly
    1 at the zero mode and 1 off the corner) precedes the subtraction.

  * momentum: a learned per-channel spectral multiply on a zero-padded
    grid plus a residual path, both wrapped by a fixed three-value stencil
    with 90-degree rotational symmetry (``momentum_forward`` takes any;
    ``compose_forward``, so every model, runs the identity, which is
    skipped). The kernel is stored as the mass stage's multiplier is, on
    the corner set of its mode counts, and is zero off the corner of
    whatever padded grid the input has, so a model transfers across
    resolutions. For any weights the stage is Hermitian, invariant under
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
can train through the projection: the same corner multiply with the
conjugate weights, and for the weights the corner of sum_b g^ conj(x^) / N,
doubled at k_last > 0 where irfftn counts a slot twice. Each stage takes
the arrays it applies and reads its corner mode counts off their shape
(``spectral.corner_modes``), so a weight and its modes cannot disagree. All
functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import SELECTORS
from .errors import ContractError
from .spectral import corner_mode_axes, corner_modes, crop, leray_project, mode_grid, pad


# ---------------------------------------------------------------------------
# the corner set on the half spectrum (``specproj.spectral``)
# ---------------------------------------------------------------------------

def _corner(shape: tuple[int, ...], modes: tuple[int, ...]):
    """Index of the corner set on a (B, C, *half) rfft spectrum of a
    ``shape`` grid: the last axis keeps 0..m-1, which the half layout holds
    in FFT order as the other axes are."""
    return (slice(None), slice(None)) + np.ix_(*corner_mode_axes(shape, modes))


def _modes_of(w: np.ndarray, x: np.ndarray) -> tuple[int, ...]:
    """The corner mode counts of the per-channel weights ``w`` (C, *kd),
    which must have one channel per channel of ``x``."""
    if w.shape[0] != x.shape[1]:
        raise ContractError(f"weights of shape {w.shape} do not match {x.shape[1]} channels")
    return corner_modes(w.shape[1:])


def _irfftn_factor(w: np.ndarray) -> np.ndarray:
    """irfftn's factor 2 at k_last > 0, applied in place to (..., *kd) corner
    weights: irfftn counts a slot there twice (for k and its conjugate at
    -k), and the k_last = 0 plane holds both k and -k, each once. It turns a
    weight stored for irfftn into the one ``mode_grid``'s scatter takes, and
    the corner of sum_b g^ conj(x^) / N into the stored weight's gradient."""
    w[..., 1:] *= 2.0
    return w


# ---------------------------------------------------------------------------
# mass-conserving projection
# ---------------------------------------------------------------------------

def mass_project_forward(x: np.ndarray, w_spe: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """Batched projection: x is (B, C, *spatial) real. Returns (out, cache).
    ``w_spe`` is an optional (C, *kd) complex multiplier on the corner set;
    the zero mode always passes through unchanged, so the spatial sum of
    every channel is kept exactly for any weights."""
    shape = x.shape[2:]
    if len(shape) not in (2, 3) or x.shape[1] != len(shape):
        raise ContractError(
            "mass projection needs a 2D or 3D grid with one channel per axis, "
            f"got {x.shape[1]} channels on {len(shape)} axes"
        )
    axes = tuple(range(2, x.ndim))
    xh = np.fft.rfftn(x, axes=axes)
    cache: dict = {}
    if w_spe is not None:
        corner = _corner(shape, _modes_of(w_spe, x))
        w = w_spe.copy()
        w[(slice(None),) + (0,) * len(shape)] = 1.0  # the zero mode passes through
        cache = {"corner": corner, "xh_corner": xh[corner], "w": w}
        xh[corner] = w[None] * cache["xh_corner"]
    out = np.fft.irfftn(leray_project(xh, shape), s=shape, axes=axes)
    return out, cache


def mass_project_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Adjoint of mass_project_forward -> (g_x, g_wspe), g_wspe None
    without a multiplier; the Helmholtz stage is self-adjoint."""
    shape = g.shape[2:]
    axes = tuple(range(2, g.ndim))
    gh = leray_project(np.fft.rfftn(g, axes=axes), shape)
    g_wspe = None
    if cache:
        corner = cache["corner"]
        gc = gh[corner]
        g_wspe = np.sum(gc * np.conj(cache["xh_corner"]), axis=0) / float(np.prod(shape))
        g_wspe[(slice(None),) + (0,) * len(shape)] = 0.0  # zero mode pinned to 1
        g_wspe = _irfftn_factor(g_wspe)
        gh[corner] = np.conj(cache["w"])[None] * gc
    g_x = np.fft.irfftn(gh, s=shape, axes=axes)
    return g_x, g_wspe


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
    """``w_inv`` applied to ``x``, skipped for the identity (the stencil of
    every model)."""
    return x if w_inv == IDENTITY_STENCIL else w_inv.apply(x, ndim)


def default_padding(shape: tuple[int, ...]) -> tuple[int, ...]:
    """ceil(N/4) cells per axis; mitigates wrap-around on non-periodic data."""
    return tuple(-(-n // 4) for n in shape)


def momentum_forward(
    x: np.ndarray, kernel: np.ndarray, w_inv: P4Stencil, padding: tuple[int, ...]
) -> tuple[np.ndarray, dict]:
    """Batched momentum projection on (B, C, *spatial) arrays. ``kernel``
    is (C, *kd) complex weights on the corner set of the padded grid,
    whatever its size; ``padding`` is one zero count per axis, or () for
    none."""
    grid_shape = x.shape[2:]
    ndim = len(grid_shape)
    if len(padding) not in (0, ndim) or any(p < 0 for p in padding):
        raise ContractError("padding needs one non-negative count per axis")
    modes = _modes_of(kernel, x)
    axes = tuple(range(2, x.ndim))
    xp = pad(x, padding)
    grid = mode_grid(xp.shape[2:], modes)
    xm = grid.gather(xp)
    del xp
    km = grid.kernel(_irfftn_factor(kernel.copy()))[..., None]  # (M, C, 1)
    spec = crop(grid.scatter(km * xm), grid_shape)
    out = _stencil(w_inv, x, ndim) + _stencil(w_inv, spec, ndim)
    out += x.mean(axis=axes, keepdims=True) - out.mean(axis=axes, keepdims=True)
    cache = {"xm": xm, "km": km, "grid": grid, "padding": padding, "w_inv": w_inv}
    return out, cache


def momentum_backward(g: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of momentum_forward -> (g_x, g_kernel)."""
    grid_shape = g.shape[2:]
    grid = cache["grid"]
    axes = tuple(range(2, g.ndim))
    g_mean = g.mean(axis=axes, keepdims=True)  # adjoint of the zero-mode reset
    # the stencil is symmetric, hence self-adjoint
    gs = _stencil(cache["w_inv"], g - g_mean, len(grid_shape))
    gm = grid.gather(pad(gs, cache["padding"]))
    g_kernel = np.sum(gm * np.conj(cache["xm"]), axis=-1)
    g_kernel /= grid.n_total
    g_kernel = _irfftn_factor(grid.storage(g_kernel))
    g_x = crop(grid.scatter(np.conj(cache["km"]) * gm), grid_shape)
    return g_x + gs + g_mean, g_kernel


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def compose_forward(
    x: np.ndarray,
    selector: str,
    *,
    kernel: np.ndarray | None = None,
    w_spe: np.ndarray | None = None,
    padding: tuple[int, ...] = (),
) -> tuple[np.ndarray, dict]:
    """The selected stages, momentum first (under the identity stencil) and
    mass last (see the module docstring); each stage takes the arrays it
    applies, and a stage that is not selected ignores its own."""
    if selector not in SELECTORS:
        raise ContractError(f"unknown selector {selector!r}")
    cache: dict = {}
    if selector == "none":
        return x, cache
    if selector in ("momentum", "both"):
        if kernel is None:
            raise ContractError("selector includes momentum but no kernel given")
        x, cache["momentum"] = momentum_forward(x, kernel, IDENTITY_STENCIL, padding)
    if selector in ("mass", "both"):
        x, cache["mass"] = mass_project_forward(x, w_spe)
    return x, cache


def compose_backward(g: np.ndarray, cache: dict):
    """Adjoint of compose_forward -> (g_x, g_kernel, g_wspe)."""
    g_kernel = g_wspe = None
    if "mass" in cache:
        g, g_wspe = mass_project_backward(g, cache["mass"])
    if "momentum" in cache:
        g, g_kernel = momentum_backward(g, cache["momentum"])
    return g, g_kernel, g_wspe
