"""The Fourier layer's corner-mode transforms and its GELU.

`gather` must be the corner of `rfftn` and `scatter` the field `irfftn`
builds from that corner, on 1D, 2D and 3D grids, odd and even, padded as
`fno_padding` pads them. The DFT matrices are cached per (padded shape,
modes) and read-only. The in-place GELU must give the bytes of the two-line
formula kept below as the reference, and leave its input alone.
"""

import numpy as np
import pytest

from specproj._erf import erf
from specproj.projection import corner_mode_axes
from specproj.surrogate.fno import activate, mode_grid

REL_TOL = 1e-13

# (grid shape, fno_padding, modes)
CASES = {
    "1d_odd": ((15,), (0,), (5,)),
    "1d_even_padded": ((16,), (4,), (8,)),
    "2d_odd": ((9, 11), (0, 0), (3, 4)),
    "2d_even": ((32, 32), (0, 0), (12, 12)),
    "2d_padded_mixed": ((12, 7), (3, 0), (4, 3)),
    "2d_64": ((64, 64), (0, 0), (12, 12)),
    "3d_padded": ((5, 7, 6), (3, 0, 0), (2, 3, 2)),
    "3d_odd": ((5, 7, 9), (0, 0, 0), (3, 4, 5)),
}


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _padded_input(grid, pad, rng, b=3, c=4):
    v = rng.standard_normal((b, c) + grid)
    return np.pad(v, [(0, 0), (0, 0)] + [(0, p) for p in pad])


def _corner_index(shape, modes):
    """(B, C, *k) arrays viewed modes-major (*k, C, B), and the corner set."""
    nd = len(shape)
    return tuple(range(2, 2 + nd)) + (1, 0), np.ix_(*corner_mode_axes(shape, modes))


@pytest.mark.parametrize("case", sorted(CASES))
def test_gather_is_the_rfftn_corner(case):
    grid, pad, modes = CASES[case]
    rng = np.random.default_rng(1)
    v = _padded_input(grid, pad, rng)
    shape = v.shape[2:]
    order, sel = _corner_index(shape, modes)
    ref = np.fft.rfftn(v, axes=tuple(range(2, v.ndim))).transpose(order)[sel]
    got = mode_grid(shape, modes).gather(v)
    assert got.shape == (ref[..., 0, 0].size, 4, 3)
    assert _rel(got, ref.reshape(got.shape)) < REL_TOL


@pytest.mark.parametrize("case", sorted(CASES))
def test_scatter_is_irfftn_of_the_corner(case):
    grid, pad, modes = CASES[case]
    shape = tuple(n + p for n, p in zip(grid, pad))
    grid_t = mode_grid(shape, modes)
    rng = np.random.default_rng(2)
    zm = (rng.standard_normal((grid_t.n_modes, 4, 3))
          + 1j * rng.standard_normal((grid_t.n_modes, 4, 3)))
    order, sel = _corner_index(shape, modes)
    # irfftn adds the conjugate mirror of every last-axis k > 0 mode, so the
    # corner goes in at half weight there to give Re(sum z e^{+ik.x}) / N
    last = corner_mode_axes(shape, modes)[-1]
    weight = np.where(last > 0, 0.5, 1.0).reshape(-1, 1, 1)
    zh = np.zeros((3, 4) + shape[:-1] + (shape[-1] // 2 + 1,), dtype=np.complex128)
    zh.transpose(order)[sel] = zm.reshape(grid_t.kdims + (4, 3)) * weight
    ref = np.fft.irfftn(zh, s=shape, axes=tuple(range(2, 2 + len(shape))))
    got = grid_t.scatter(zm)
    assert got.shape == ref.shape and got.dtype == np.float64
    assert _rel(got, ref) < REL_TOL


def test_matrices_are_cached_and_read_only():
    a, b = mode_grid((20, 16), (6, 5)), mode_grid((20, 16), (6, 5))
    assert a is b
    assert mode_grid((20, 17), (6, 5)) is not a
    mats = (a.last_fwd, a.last_inv) + a.lead_fwd + a.lead_inv
    assert len(mats) == 4
    for m in mats:
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def _gelu_reference(pre):
    cdf = 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
    return pre * cdf, cdf + pre * np.exp(-0.5 * pre * pre) * (1.0 / np.sqrt(2.0 * np.pi))


def test_gelu_bitwise_equals_the_two_line_formula_and_keeps_its_input():
    rng = np.random.default_rng(3)
    pre = 4.0 * rng.standard_normal((16, 20, 32, 32))
    pre.flat[:7] = [0.0, 40.0, -40.0, 7.9, -7.9, 1.0, -1.0]
    before = pre.copy()
    act, dact = activate("gelu", pre)
    ref_act, ref_dact = _gelu_reference(before)
    assert np.array_equal(pre, before)
    assert act.tobytes() == ref_act.tobytes()
    assert dact.tobytes() == ref_dact.tobytes()
