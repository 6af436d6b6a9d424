"""The repo-wide spectral conventions, on raw arrays.

Every solver, projection and metric takes its wavenumbers, |k|^2 tables and
dealias masks from here, so they agree on one set of conventions:

  - forward FFT unnormalized, inverse divides by the grid size (numpy.fft);
  - integer frequencies in FFT order (0, 1, ..., -2, -1), or in the rfft
    half layout (0, 1, ..., n // 2) with ``half=True`` (the Nyquist entry of
    an even axis is +n/2 there, -n/2 in FFT order); the grid tables are laid
    out as the rfftn half spectrum, the last axis in the half layout;
  - every axis of a grid is one period long, so k = 2*pi*n on it: FLD1
    files carry sizes only, and the solvers, the projections and the
    divergence metric all take their grid so. ``wavenumbers`` alone takes a
    length L (k = 2*pi*n/L), for the KSE, whose domain is L long;
  - differentiation multiplies by i*k with the Nyquist mode of even axes
    zeroed (sign-ambiguous there; zeroing keeps outputs real);
  - |k|^2 sums k*k over the axes in order; 1/|k|^2 is 0 wherever the
    Nyquist-zeroed |k| is 0 (the mean and pure-Nyquist modes) -- the gauge
    freedom of a potential;
  - the 2/3 rule keeps |n| <= n_axis // 3 on every axis.

Tables are cached per shape and returned read-only; a caller that needs to
modify one takes a copy. ``shape`` is always the real-space grid shape.

Every learned spectral weight (the Fourier layers' kernels, the projection
stages' multipliers) is stored per channel on the corner set of ``modes``:
in FFT order the last axis keeps 0..m-1 and every other axis -(m-1)..m-1
(``corner_mode_axes``), which the rfft half spectrum holds as it is; its
sizes (``corner_dims``) are the same on every grid the modes fit in, so a
weight's shape gives its mode counts back (``corner_modes``).
``mode_grid`` is the one transform to and from that set, as separable DFT
matrix products built once per (padded shape, modes) and cached read-only.
``gather`` multiplies the real input (..., N) by one real (N, 2m) matrix
whose columns interleave cos and -sin, which is the complex (..., m) corner
of the last axis viewed as float pairs; each other axis is then one complex
(K, N) matmul, on the modes-major (*k, C, B) layout. ``scatter`` is the
conjugate pair and ends with one real (2m, N) matrix on the (re, im) pairs
that holds cos, -sin and 1/N, so it gives Re(sum over the corner of
z e^{+ik.x}) / N: it weights every k_last slot once. irfftn of the same
corner counts each k_last > 0 slot twice (for k and its conjugate at -k),
so a weight stored for irfftn is doubled there before it meets ``scatter``.
Under the real inner product Re(sum a conj(b)), the adjoint of ``scatter``
is ``gather`` / N and that of ``gather`` is N * ``scatter``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ContractError

_CACHE_SIZE = 64


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=_CACHE_SIZE)
def frequencies(n: int, half: bool = False) -> np.ndarray:
    """Exact integer frequencies of an n-point axis, as float64."""
    if half:
        f = np.arange(n // 2 + 1)
    else:
        f = np.concatenate([np.arange((n - 1) // 2 + 1), np.arange(-(n // 2), 0)])
    return _frozen(f.astype(np.float64))


@lru_cache(maxsize=_CACHE_SIZE)
def wavenumbers(
    n: int, extent: float, zero_nyquist: bool = False, half: bool = False
) -> np.ndarray:
    """k = 2*pi*n/L for one axis; ``zero_nyquist`` zeroes mode n // 2 of an
    even axis (the last entry of the half layout)."""
    f = frequencies(n, half)
    if zero_nyquist and n % 2 == 0:
        f = f.copy()
        f[n // 2] = 0.0
    return _frozen(2.0 * np.pi * f / extent)


@lru_cache(maxsize=_CACHE_SIZE)
def wavenumber_mesh(shape: tuple[int, ...], zero_nyquist: bool = False) -> tuple[np.ndarray, ...]:
    """Per-axis wavenumbers in sparse broadcast form, over the rfftn half spectrum."""
    ks = []
    last = len(shape) - 1
    for i, n in enumerate(shape):
        k = wavenumbers(n, 1.0, zero_nyquist, i == last)
        view = [1] * len(shape)
        view[i] = k.size
        ks.append(_frozen(k.reshape(view)))
    return tuple(ks)


@lru_cache(maxsize=_CACHE_SIZE)
def k_squared(shape: tuple[int, ...], zero_nyquist: bool = False) -> np.ndarray:
    """|k|^2 over the rfftn half spectrum."""
    ks = wavenumber_mesh(shape, zero_nyquist)
    k2 = ks[0] * ks[0]
    for k in ks[1:]:
        k2 = k2 + k * k
    return _frozen(k2)


@lru_cache(maxsize=_CACHE_SIZE)
def inverse_k_squared(shape: tuple[int, ...]) -> np.ndarray:
    """1/|k|^2 of the Nyquist-zeroed wavenumbers over the rfftn half
    spectrum, 0 where |k| = 0."""
    k2 = k_squared(shape, zero_nyquist=True)
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = 1.0 / k2[nz]
    return _frozen(inv)


@lru_cache(maxsize=_CACHE_SIZE)
def dealias_mask(shape: tuple[int, ...]) -> np.ndarray:
    """Boolean keep-mask of the 2/3 rule over the rfftn half spectrum."""
    keep = np.ones((1,) * len(shape), dtype=bool)
    last = len(shape) - 1
    for i, n in enumerate(shape):
        view = [1] * len(shape)
        cut = np.abs(frequencies(n, i == last)) <= n // 3
        view[i] = cut.size
        keep = keep & cut.reshape(view)
    return _frozen(keep)


def leray_project(xh: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Helmholtz (Leray) subtraction per mode: x - k (k . x) / |k|^2.

    ``xh`` is the (B, C, *half) rfftn spectrum of a ``shape`` grid, channel
    c pairing with grid axis c. The result has zero spectral divergence at
    every mode, and the zero mode passes through bitwise. The map is
    self-adjoint.
    """
    ks = wavenumber_mesh(shape, zero_nyquist=True)
    k2inv = inverse_k_squared(shape)
    phi = ks[0] * xh[:, 0]  # the potential: (k . x) / |k|^2
    for c, k in enumerate(ks[1:], 1):
        phi += k * xh[:, c]
    phi *= k2inv
    out = xh.copy()
    for c, k in enumerate(ks):
        out[:, c] -= k * phi
    return out


def divergence(vh: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Spectral divergence sum_c i*k_c vh[c] of the (C, *half) rfftn
    spectrum of a ``shape`` grid with one channel per grid axis; returns the
    (*half) spectrum."""
    ks = wavenumber_mesh(shape, zero_nyquist=True)
    out = np.zeros(vh.shape[1:], dtype=np.complex128)
    for c, k in enumerate(ks):
        out += 1j * k * vh[c]
    return out


def pad(v: np.ndarray, padding: tuple[int, ...]) -> np.ndarray:
    """``v`` with ``padding[j]`` zeros after the end of each of its trailing
    len(padding) axes; ``v`` itself, no copy, when every count is 0."""
    if not any(padding):
        return v
    return np.pad(v, [(0, 0)] * (v.ndim - len(padding)) + [(0, p) for p in padding])


def crop(v: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading ``shape`` block of ``v``'s trailing axes, as a view: the
    adjoint of ``pad``."""
    return v[(Ellipsis,) + tuple(slice(0, n) for n in shape)]


def corner_mode_axes(shape: tuple[int, ...], modes: tuple[int, ...]) -> list[np.ndarray]:
    """Per-axis FFT-order indices of the corner set of ``modes`` on a
    ``shape`` grid (see the module docstring). Requires m >= 1 and the
    ranges to fit without touching the Nyquist mode."""
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
    return tuple(2 * m - 1 for m in modes[:-1]) + tuple(modes[-1:])


def corner_modes(kdims: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of ``corner_dims``: the mode counts of a weight whose
    trailing sizes are ``kdims``. Each leading size must be odd."""
    if any(d % 2 == 0 for d in kdims[:-1]):
        raise ContractError(f"corner sizes {kdims}: every axis but the last needs an odd size")
    return tuple((d + 1) // 2 for d in kdims[:-1]) + tuple(kdims[-1:])


def _phases(k: np.ndarray, n: int) -> np.ndarray:
    """2 pi (k j mod n) / n for the (len(k), n) pairs of frequency and point,
    reduced in integers so the angle stays below 2 pi."""
    return 2.0 * np.pi * (np.outer(k, np.arange(n)) % n) / n


class _ModeGrid:
    """The corner-mode transforms of one (padded shape, modes), as DFT
    matrices restricted to the corner set (see the module docstring)."""

    def __init__(self, padded_shape: tuple[int, ...], modes: tuple[int, ...]):
        corner = corner_mode_axes(padded_shape, modes)
        self.padded_shape = padded_shape
        self.n_total = float(np.prod(padded_shape))
        self.kdims = tuple(len(ix) for ix in corner)
        self.n_modes = int(np.prod(self.kdims))
        n, m = padded_shape[-1], self.kdims[-1]
        ang = _phases(corner[-1], n)
        fwd = np.empty((n, 2 * m))
        fwd[:, 0::2], fwd[:, 1::2] = np.cos(ang).T, -np.sin(ang).T
        inv = np.empty((2 * m, n))  # rows: Re and Im of each corner mode, as Re(z e^{+ikx}) / N
        inv[0::2], inv[1::2] = np.cos(ang) / self.n_total, -np.sin(ang) / self.n_total
        self.last_fwd, self.last_inv = fwd, inv
        self.lead_fwd = tuple(np.exp(-1j * _phases(k, nj))  # (K_j, N_j)
                              for k, nj in zip(corner[:-1], padded_shape))
        self.lead_inv = tuple(np.ascontiguousarray(f.conj().T) for f in self.lead_fwd)
        for a in (fwd, inv) + self.lead_fwd + self.lead_inv:
            a.flags.writeable = False

    def kernel(self, k: np.ndarray) -> np.ndarray:
        """(..., *kd) storage -> a fresh modes-major (M, ...) copy."""
        lead = k.shape[:k.ndim - len(self.kdims)]
        return np.moveaxis(k.reshape(lead + (self.n_modes,)), -1, 0).copy()

    def storage(self, km: np.ndarray) -> np.ndarray:
        """The inverse of ``kernel``: modes-major (M, ...) -> (..., *kd)."""
        return np.moveaxis(km, 0, -1).reshape(km.shape[1:] + self.kdims)

    def gather(self, v: np.ndarray) -> np.ndarray:
        """The corner of rfftn of real (B, C, *padded), as (M, C, B)."""
        b, c = v.shape[:2]
        nd = len(self.padded_shape)
        z = (v.reshape(-1, self.padded_shape[-1]) @ self.last_fwd).view(np.complex128)
        # (B, C, *N_lead, m) -> modes-major (*N_lead, m, C, B)
        z = z.reshape((b, c) + self.padded_shape[:-1] + (-1,)).transpose(
            tuple(range(2, 2 + nd)) + (1, 0))
        for j, f in enumerate(self.lead_fwd):
            z = f @ z.reshape(math.prod(self.kdims[:j]), f.shape[1], -1)
        return z.reshape(self.n_modes, c, b)

    def scatter(self, zm: np.ndarray) -> np.ndarray:
        """(M, C, B) corner modes -> the real (B, C, *padded) field
        Re(sum over the corner of z e^{+ik.x}) / N."""
        c, b = zm.shape[1:]
        nd = len(self.padded_shape)
        z = zm.reshape(self.kdims + (c, b))
        for j, e in enumerate(self.lead_inv):
            z = e @ z.reshape(math.prod(self.padded_shape[:j]), e.shape[1], -1)
        z = z.reshape(self.padded_shape[:-1] + (self.kdims[-1], c, b))
        z = np.ascontiguousarray(z.transpose((nd + 1, nd) + tuple(range(nd))))
        out = z.view(np.float64).reshape(-1, 2 * self.kdims[-1]) @ self.last_inv
        return out.reshape((b, c) + self.padded_shape)


@lru_cache(maxsize=_CACHE_SIZE)
def mode_grid(padded_shape: tuple[int, ...], modes: tuple[int, ...]) -> _ModeGrid:
    """The cached, read-only corner transforms of (padded_shape, modes)."""
    return _ModeGrid(padded_shape, modes)
