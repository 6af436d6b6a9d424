"""The repo-wide spectral conventions, on raw arrays.

Every solver, projection and metric takes its wavenumbers, |k|^2 tables and
dealias masks from here, so they agree on one set of conventions:

  - forward FFT unnormalized, inverse divides by the grid size (numpy.fft);
  - integer frequencies in FFT order (0, 1, ..., -2, -1), or in the rfft
    half layout (0, 1, ..., n // 2) for the last axis (``half=True``; the
    Nyquist entry of an even axis is +n/2 there, -n/2 in FFT order);
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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
def wavenumber_mesh(
    shape: tuple[int, ...], zero_nyquist: bool = False, half: bool = False
) -> tuple[np.ndarray, ...]:
    """Per-axis wavenumbers in sparse broadcast form, FFT order; ``half``
    puts the last axis in the rfft layout."""
    ks = []
    last = len(shape) - 1
    for i, n in enumerate(shape):
        k = wavenumbers(n, 1.0, zero_nyquist, half and i == last)
        view = [1] * len(shape)
        view[i] = k.size
        ks.append(_frozen(k.reshape(view)))
    return tuple(ks)


@lru_cache(maxsize=_CACHE_SIZE)
def k_squared(
    shape: tuple[int, ...], zero_nyquist: bool = False, half: bool = False
) -> np.ndarray:
    """|k|^2 over the grid, FFT order; ``half`` puts the last axis in the
    rfft layout."""
    ks = wavenumber_mesh(shape, zero_nyquist, half)
    k2 = ks[0] * ks[0]
    for k in ks[1:]:
        k2 = k2 + k * k
    return _frozen(k2)


@lru_cache(maxsize=_CACHE_SIZE)
def inverse_k_squared(shape: tuple[int, ...], half: bool = False) -> np.ndarray:
    """1/|k|^2 of the Nyquist-zeroed wavenumbers, 0 where |k| = 0; ``half``
    puts the last axis in the rfft layout."""
    k2 = k_squared(shape, zero_nyquist=True, half=half)
    inv = np.zeros_like(k2)
    nz = k2 > 0
    inv[nz] = 1.0 / k2[nz]
    return _frozen(inv)


@lru_cache(maxsize=_CACHE_SIZE)
def dealias_mask(shape: tuple[int, ...], half: bool = False) -> np.ndarray:
    """Boolean keep-mask of the 2/3 rule; ``half`` puts the last axis in the
    rfft layout."""
    keep = np.ones((1,) * len(shape), dtype=bool)
    last = len(shape) - 1
    for i, n in enumerate(shape):
        view = [1] * len(shape)
        cut = np.abs(frequencies(n, half and i == last)) <= n // 3
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
    ks = wavenumber_mesh(shape, zero_nyquist=True, half=True)
    k2inv = inverse_k_squared(shape, half=True)
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
    ks = wavenumber_mesh(shape, zero_nyquist=True, half=True)
    out = np.zeros(vh.shape[1:], dtype=np.complex128)
    for c, k in enumerate(ks):
        out += 1j * k * vh[c]
    return out
