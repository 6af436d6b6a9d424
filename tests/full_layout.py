"""Full-layout oracle of the conservation projections, for the tests.

The production stages (``specproj.projection``) work on the rfft half
spectrum and let ``irfftn`` complete it. Here the same stages run on the
full complex ``fftn`` spectrum, with the Hermitian completion written out:
a weight stored at k also sets conj(weight) at -k, and where the stored set
meets its own mirror image the two are averaged. The tests compare
production with these functions at 1e-12 and pin the symmetry of the
expanded multipliers exactly.
"""

import numpy as np

from specproj.projection import corner_dims, corner_mode_axes
from specproj.spectral import inverse_k_squared, wavenumber_mesh


def point_mirror(shape):
    """Index grids of the FFT-order point mirror i -> (-i) mod n, i.e. k -> -k."""
    return np.ix_(*[(-np.arange(n)) % n for n in shape])


def _cover(stored, shape):
    """Per slot: 1 on the stored set plus 1 on its mirror image."""
    c = np.zeros(shape, dtype=np.int8)
    c[np.ix_(*stored)] = 1
    return c + c[point_mirror(shape)]


def hermitian_expand(w, stored, shape, fill):
    """Complete per-channel weights ``w`` stored on the FFT-order index set
    ``np.ix_(*stored)`` to a (channels, *shape) multiplier with
    K(-k) = conj(K(k)) for any weights: add the conjugate point mirror,
    halve the slots where the set meets its mirror, and set ``fill`` on
    every slot outside both."""
    k = np.zeros(w.shape[:1] + tuple(shape), dtype=np.complex128)
    k[(slice(None),) + np.ix_(*stored)] = w
    k = k + np.conj(k[(slice(None),) + point_mirror(shape)])
    cover = _cover(stored, shape)
    k[:, cover == 2] *= 0.5
    k[:, cover == 0] = fill
    return k


def hermitian_expand_grad(g_full, stored, shape):
    """Adjoint of hermitian_expand w.r.t. the stored weights."""
    g = g_full.copy()
    g[:, _cover(stored, shape) == 2] *= 0.5
    g = g + np.conj(g[(slice(None),) + point_mirror(shape)])
    return g[(slice(None),) + np.ix_(*stored)]


def build_spectral_multiplier(shape, modes, w):
    """The mass stage's multiplier on the full grid: Hermitian, 1 off the
    retained set and exactly 1 at the zero mode."""
    m = hermitian_expand(w, corner_mode_axes(shape, modes), shape, fill=1.0)
    m[(slice(None),) + (0,) * len(shape)] = 1.0
    return m


def leray_project(xh):
    """Helmholtz subtraction on a (B, C, *shape) FFT-order spectrum, one
    period per axis."""
    shape = xh.shape[2:]
    extents = (1.0,) * len(shape)
    ks = wavenumber_mesh(shape, extents, zero_nyquist=True)
    k2inv = inverse_k_squared(shape, extents)
    dot = sum(k * xh[:, c] for c, k in enumerate(ks))
    out = xh.copy()
    for c, k in enumerate(ks):
        out[:, c] -= k * (dot * k2inv)
    return out


def divergence_loss(u):
    """Spatial mean of |div u| of a (C, *shape) field, through fftn."""
    shape = u.shape[1:]
    ks = wavenumber_mesh(shape, (1.0,) * len(shape), zero_nyquist=True)
    vh = np.fft.fftn(u, axes=tuple(range(1, u.ndim)))
    div = np.fft.ifftn(sum(1j * k * vh[c] for c, k in enumerate(ks))).real
    return float(np.mean(np.abs(div)))


def mass_project_forward(x, modes=None, w_spe=None):
    shape = x.shape[2:]
    axes = tuple(range(2, x.ndim))
    xh = np.fft.fftn(x, axes=axes)
    cache = {"modes": modes}
    if w_spe is not None:
        mult = build_spectral_multiplier(shape, modes, w_spe)
        cache["xh_pre"] = xh
        cache["mult"] = mult
        xh = mult[None] * xh
    return np.real(np.fft.ifftn(leray_project(xh), axes=axes)), cache


def mass_project_backward(g, cache):
    shape = g.shape[2:]
    axes = tuple(range(2, g.ndim))
    gh = leray_project(np.fft.fftn(g, axes=axes))
    g_wspe = None
    if "mult" in cache:
        g_mult = np.sum(gh * np.conj(cache["xh_pre"]), axis=0) / float(np.prod(shape))
        g_mult[(slice(None),) + (0,) * len(shape)] = 0.0  # zero mode pinned to 1
        g_wspe = hermitian_expand_grad(g_mult, corner_mode_axes(shape, cache["modes"]), shape)
        gh = np.conj(cache["mult"])[None] * gh
    return np.real(np.fft.ifftn(gh, axes=axes)), g_wspe


def momentum_forward(x, kernel, modes, w_inv, padding):
    grid_shape = x.shape[2:]
    ndim = len(grid_shape)
    padded = tuple(n + p for n, p in zip(grid_shape, padding))
    corner = corner_mode_axes(padded, modes)
    assert kernel.shape == (x.shape[1],) + corner_dims(modes)
    axes = tuple(range(2, x.ndim))
    xh = np.fft.fftn(np.pad(x, [(0, 0), (0, 0)] + [(0, p) for p in padding]), axes=axes)
    kfull = hermitian_expand(kernel, corner, padded, fill=0.0)
    spec = np.real(np.fft.ifftn(kfull[None] * xh, axes=axes))
    spec = spec[(slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)]
    out = w_inv.apply(x, ndim) + w_inv.apply(spec, ndim)
    out += x.mean(axis=axes, keepdims=True) - out.mean(axis=axes, keepdims=True)
    cache = {"xh": xh, "kfull": kfull, "corner": corner, "padded": padded,
             "w_inv": w_inv, "padding": padding}
    return out, cache


def momentum_backward(g, cache):
    grid_shape = g.shape[2:]
    padded = cache["padded"]
    axes = tuple(range(2, g.ndim))
    g_mean = g.mean(axis=axes, keepdims=True)
    gs = cache["w_inv"].apply(g - g_mean, len(grid_shape))
    gp = np.pad(gs, [(0, 0), (0, 0)] + [(0, p) for p in cache["padding"]])
    npad = float(np.prod(padded))
    gh = np.fft.fftn(gp, axes=axes) / npad
    g_kernel = hermitian_expand_grad(np.sum(gh * np.conj(cache["xh"]), axis=0),
                                     cache["corner"], padded)
    g_x = npad * np.real(np.fft.ifftn(np.conj(cache["kfull"])[None] * gh, axes=axes))
    g_x = g_x[(slice(None), slice(None)) + tuple(slice(0, n) for n in grid_shape)]
    return g_x + gs + g_mean, g_kernel
