"""Conservation projections: Helmholtz algebra against a dense oracle,
momentum-kernel symmetry, composition, the stages against their
full-layout oracle (``full_layout``) and their adjoints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import full_layout
from specproj import projection
from specproj.errors import ContractError
from specproj.metrics import divergence_loss
from specproj.projection import (
    IDENTITY_STENCIL,
    P4Stencil,
    compose_forward,
    default_padding,
    mass_project_backward,
    mass_project_forward,
    momentum_backward,
    momentum_forward,
)
from specproj.spectral import corner_dims, corner_mode_axes, divergence, leray_project


def _mass(v, w_spe=None):
    """The mass stage on one (C, *grid) field."""
    return mass_project_forward(v[None], w_spe)[0][0]


def _momentum(v, kernel, w_inv=IDENTITY_STENCIL, padding=()):
    """The momentum stage on one (C, *grid) field, unpadded by default."""
    return momentum_forward(v[None], kernel, w_inv, padding)[0][0]


def _compose(v, selector, weights):
    return compose_forward(v[None], selector, **weights)[0][0]


def _grid_coords(shape):
    """Per-axis coordinates of a grid one period long per axis."""
    xs = []
    for i, n in enumerate(shape):
        view = [1] * len(shape)
        view[i] = n
        xs.append((np.arange(n) * (1.0 / n)).reshape(view))
    return xs


def _div_hat(v):
    return divergence(np.fft.rfftn(v, axes=tuple(range(1, v.ndim))), v.shape[1:])


def _rand(shape, channels, seed):
    return np.random.default_rng(seed).standard_normal((channels,) + shape)


def _solenoidal(shape):
    x, y = _grid_coords(shape)
    psi = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    # v = (d psi/dy, -d psi/dx)
    vx = 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    vy = -2 * np.pi * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
    return np.stack([np.broadcast_to(vx, shape), np.broadcast_to(vy, shape)])


def _gradient_field(shape):
    x, y = _grid_coords(shape)
    gx = 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    gy = -2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    return np.stack([np.broadcast_to(gx, shape), np.broadcast_to(gy, shape)])


def _dense_dft(n):
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def _dense_derivative_matrices(n):
    """Real matrices for the spectral d/dx and d/dy on an n-by-n unit grid,
    assembled from explicit DFT matrices (independent of np.fft)."""
    f1 = _dense_dft(n)
    finv1 = np.conj(f1) / n
    f2 = np.kron(f1, f1)        # row-major (x, y) flattening
    finv2 = np.kron(finv1, finv1)
    k = 2 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    kx = np.repeat(k, n)
    ky = np.tile(k, n)
    dx = np.real(finv2 @ np.diag(1j * kx) @ f2)
    dy = np.real(finv2 @ np.diag(1j * ky) @ f2)
    return dx, dy


def _kernel(channels, modes, rng=None):
    """Momentum weights on the corner set of ``modes``: ones, or random."""
    shape = (channels,) + corner_dims(modes)
    if rng is None:
        return np.ones(shape, dtype=np.complex128)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _all_modes(shape):
    """The largest corner set; on an odd grid it covers every mode."""
    return tuple((n + 1) // 2 for n in shape)


class TestMassProjection:
    def test_identity_on_solenoidal(self):
        g = (16, 16)
        v = _solenoidal(g)
        out = _mass(v)
        assert np.max(np.abs(out - v)) < 1e-10

    def test_annihilates_gradient_fields(self):
        g = (16, 16)
        out = _mass(_gradient_field(g))
        assert np.max(np.abs(out)) < 1e-10

    def test_divergence_zero_at_every_mode_and_dense_oracle(self):
        g = (8, 8)
        v = _rand(g, 2, seed=4)
        out = _mass(v)
        assert np.max(np.abs(_div_hat(out))) < 1e-10
        assert divergence_loss(out) < 1e-10
        # dense least-squares Helmholtz split on the flattened grid
        dx, dy = _dense_derivative_matrices(8)
        grad_op = np.vstack([dx, dy])  # potentials -> stacked gradient
        vflat = v.reshape(2, -1).ravel()
        phi, *_ = np.linalg.lstsq(grad_op, vflat, rcond=None)
        oracle = vflat - grad_op @ phi
        assert np.max(np.abs(out.reshape(2, -1).ravel() - oracle)) < 1e-10

    def test_idempotent(self):
        g = (16, 16)
        once = _mass(_rand(g, 2, seed=5))
        twice = _mass(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_linearity_property(self, seed):
        g = (8, 8)
        v1, v2 = _rand(g, 2, seed), _rand(g, 2, seed + 1)
        a, b = 1.3, -0.7
        lhs = _mass(a * v1 + b * v2)
        rhs = a * _mass(v1) + b * _mass(v2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1.0)

    def test_self_adjoint_dense_matrix(self):
        g = (8, 8)
        dim = 2 * 8 * 8
        mat = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = 1.0
            mat[:, j] = _mass(e.reshape(2, 8, 8)).ravel()
        assert np.max(np.abs(mat - mat.T)) < 1e-12
        assert np.max(np.abs(mat @ mat - mat)) < 1e-12

    def test_zero_mode_unchanged_exactly(self):
        g = (16, 16)
        v = _rand(g, 2, seed=6)
        out = _mass(v)
        for c in range(2):
            assert out[c].sum() == pytest.approx(v[c].sum(), abs=1e-11)
        # mode-level: the actual zero Fourier coefficient is bit-preserved
        sin = np.fft.fftn(v, axes=(1, 2))[:, 0, 0]
        sout = np.fft.fftn(out, axes=(1, 2))[:, 0, 0]
        assert np.max(np.abs(sin - sout)) < 1e-12 * max(np.max(np.abs(sin)), 1.0)

    def test_channel_mismatch_rejected(self):
        # the grid fixes the channel count: one per axis, on 2D or 3D grids only
        for grid, channels in [((8, 8), 1), ((6, 6), 3), ((6, 6, 6), 2), ((8,), 1)]:
            with pytest.raises(ContractError, match="one channel per axis"):
                _mass(_rand(grid, channels, seed=0))

    def test_w_spe_keeps_divergence_and_realness(self):
        g = (16, 16)
        rng = np.random.default_rng(9)
        w = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
        out = _mass(_rand(g, 2, seed=10), w)
        assert divergence_loss(out) < 1e-10
        mult = full_layout.build_spectral_multiplier(g, (3, 3), w)
        mir = (slice(None),) + full_layout.point_mirror(g)
        assert np.array_equal(mult[mir], np.conj(mult))
        assert mult[0, 0, 0] == 1.0 and mult[1, 0, 0] == 1.0

    def test_spatiotemporal_3d_mode(self):
        g = (8, 8, 8)
        v = _rand(g, 3, seed=12)
        out = _mass(v)
        assert np.max(np.abs(_div_hat(out))) < 1e-10


class TestMomentumProjection:
    def test_unit_kernel_doubles_fluctuation_keeps_mean(self):
        g = (15, 15)
        v = _rand(g, 2, seed=1)
        out = _momentum(v, _kernel(2, (8, 8)))
        mean = v.mean(axis=(1, 2), keepdims=True)
        assert np.max(np.abs(out - (2 * v - mean))) < 1e-10

    @pytest.mark.parametrize("kernel", ["random", "unit"])
    def test_channel_sums_exact_for_any_kernel(self, kernel):
        rng = np.random.default_rng(4)
        for shape, pad, w_inv in [((16, 16), (0, 0), IDENTITY_STENCIL),
                                  ((12, 15), (3, 4), P4Stencil(0.6, 0.15, -0.05)),
                                  ((9, 10, 11), (2, 0, 3), P4Stencil(1.3, -0.2, 0.1))]:
            modes = _all_modes(tuple(n + p for n, p in zip(shape, pad)))
            k = _kernel(3, modes, rng if kernel == "random" else None)
            x = rng.standard_normal((2, 3) + shape) + 0.5
            axes = tuple(range(2, x.ndim))
            out, _ = momentum_forward(x, k, w_inv, pad)
            np.testing.assert_allclose(out.sum(axis=axes), x.sum(axis=axes), rtol=1e-12)

    def test_zero_field_maps_to_zero(self):
        g = (12, 12)
        k = _kernel(1, (6, 6), np.random.default_rng(0))
        out = _momentum(np.zeros((1, 12, 12)), k)
        assert np.max(np.abs(out)) == 0.0

    def test_kernel_hermitian_symmetry_exact(self):
        # both full-layout expansions, the momentum kernel (zero off its
        # corner set) and the mass stage's spectral multiplier (one off it),
        # under the FFT-order point mirror (-i) mod n
        rng = np.random.default_rng(3)
        for shape in [(16, 16), (15, 15), (16, 15), (9, 10, 11), (8,), (15,)]:
            kmodes = _all_modes(shape)
            k = _kernel(2, kmodes, rng)
            modes = tuple(min(3, (n + 1) // 2) for n in shape)
            w = _kernel(2, modes, rng)
            mir = (slice(None),) + full_layout.point_mirror(shape)
            for full in (full_layout.hermitian_expand(k, corner_mode_axes(shape, kmodes), shape,
                                                      fill=0.0),
                         full_layout.build_spectral_multiplier(shape, modes, w)):
                assert np.array_equal(full[mir], np.conj(full)), shape

    def test_unit_kernel_constructible(self):
        # the largest corner set of an odd grid covers every mode
        shape = (11, 9)
        full = full_layout.hermitian_expand(_kernel(1, _all_modes(shape)),
                                            corner_mode_axes(shape, _all_modes(shape)), shape,
                                            fill=0.0)
        assert np.array_equal(full, np.ones_like(full))

    def test_output_imaginary_residue(self):
        # rebuild the full kernel and run the complex pipeline by hand
        for n in (16, 15):
            g = (n, n)
            v = _rand(g, 2, seed=7)
            modes = _all_modes(g)
            k = _kernel(2, modes, np.random.default_rng(5))
            full = full_layout.hermitian_expand(k, corner_mode_axes(g, modes), g,
                                                fill=0.0)
            spec = np.fft.ifftn(full * np.fft.fftn(v, axes=(1, 2)), axes=(1, 2))
            scale = np.max(np.abs(spec))
            assert np.max(np.abs(spec.imag)) < 1e-12 * max(scale, 1.0)

    def test_shift_equivariance(self):
        g = (32, 32)
        v = _rand(g, 2, seed=8)
        k = _kernel(2, (12, 12), np.random.default_rng(6))
        w_inv = P4Stencil(0.5, 0.2, -0.1)
        shift = (5, 11)
        shifted = np.roll(v, shift, axis=(1, 2))
        lhs = _momentum(shifted, k, w_inv)
        rhs = np.roll(_momentum(v, k, w_inv), shift, axis=(1, 2))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_padding_preserves_shape_and_errors(self):
        g = (12, 12)
        v = _rand(g, 1, seed=2)
        pad = default_padding((12, 12))
        assert pad == (3, 3)
        k = _kernel(1, (6, 6))
        out = _momentum(v, k, padding=pad)
        assert out.shape == v.shape
        # one kernel serves any padded grid its modes fit in; () is no padding
        assert np.array_equal(_momentum(v, k, padding=(0, 0)), _momentum(v, k))
        with pytest.raises(ContractError, match="do not fit"):
            _momentum(v, _kernel(1, (7, 7)))
        # the kernel's shape fixes its modes: its channels must be the field's,
        # and every corner size but the last is odd (2m - 1)
        with pytest.raises(ContractError, match="1 channels"):
            _momentum(v, _kernel(2, (6, 6)))
        with pytest.raises(ContractError, match="odd size"):
            _momentum(v, np.ones((1, 10, 6), dtype=np.complex128))
        with pytest.raises(ContractError, match="one non-negative count"):
            _momentum(v, k, padding=(3,))

    def test_stencil_rotation_symmetry_and_identity(self):
        s = P4Stencil(0.4, 0.2, 0.1)
        grid2 = np.array([[s.r, s.e, s.r], [s.e, s.c, s.e], [s.r, s.e, s.r]])
        assert np.array_equal(np.rot90(grid2), grid2)
        x = np.random.default_rng(0).standard_normal((1, 6, 6))
        assert np.array_equal(IDENTITY_STENCIL.apply(x, 2), x)


class TestCompose:
    def make_params(self, g, channels=2):
        return dict(kernel=_kernel(channels, _all_modes(g)), w_inv=IDENTITY_STENCIL,
                    padding=(0, 0))

    def test_selector_none_is_identity(self):
        g = (8, 8)
        v = _rand(g, 2, seed=0)
        out = _compose(v, "none", self.make_params(g))
        assert np.array_equal(out, v)

    def test_both_with_unit_kernel_doubles_mass_fluctuation(self):
        g = (15, 15)
        v = _rand(g, 2, seed=3)
        params = self.make_params(g)
        out = _compose(v, "both", params)
        mass = _mass(v)
        assert np.max(np.abs(out - (2 * mass - mass.mean(axis=(1, 2), keepdims=True)))) < 1e-10
        assert divergence_loss(out) < 1e-10

    def test_mass_on_solenoidal_is_identity(self):
        g = (16, 16)
        v = _solenoidal(g)
        out = _compose(v, "mass", self.make_params(g))
        assert np.max(np.abs(out - v)) < 1e-10

    def test_mass_with_one_channel_rejected(self):
        g = (8, 8)
        with pytest.raises(ContractError):
            _compose(_rand(g, 1, seed=0), "mass", self.make_params(g, 1))

    def test_unknown_selector(self):
        g = (8, 8)
        with pytest.raises(ContractError):
            _compose(_rand(g, 2, seed=0), "sideways", self.make_params(g))


class TestRealValuedness:
    def test_mass_with_multiplier_complex_path_residue(self):
        """Run the W_spe + Helmholtz pipeline in complex arithmetic and
        measure the imaginary part that the real-output implementation
        discards."""
        g = (16, 16)
        rng = np.random.default_rng(21)
        v = _rand(g, 2, seed=22)
        w = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
        mult = full_layout.build_spectral_multiplier(g, (3, 3), w)
        vhat = np.fft.fftn(v, axes=(1, 2)) * mult
        ks = full_layout.wavenumber_mesh(g, zero_nyquist=True)
        k2 = sum(k * k for k in ks)
        inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        dot = ks[0] * vhat[0] + ks[1] * vhat[1]
        proj = np.stack([vhat[c] - ks[c] * dot * inv for c in range(2)])
        out = np.fft.ifftn(proj, axes=(1, 2))
        assert np.max(np.abs(out.imag)) < 1e-12 * max(np.max(np.abs(out)), 1.0)


def test_zero_mode_bitwise_invariant_in_spectral_space():
    """The Helmholtz stage leaves the zero Fourier coefficient untouched
    bitwise (the subtraction there is exactly zero)."""
    rng = np.random.default_rng(30)
    xh = np.fft.rfftn(rng.standard_normal((1, 2, 16, 16)), axes=(2, 3))
    ph = leray_project(xh, (16, 16))
    assert ph[0, 0, 0, 0] == xh[0, 0, 0, 0]
    assert ph[0, 1, 0, 0] == xh[0, 1, 0, 0]


# ---------------------------------------------------------------------------
# production (rfft half spectrum) against the full-layout oracle
# ---------------------------------------------------------------------------

# (shape, padding, stencil); the mass stage runs on those with one channel
# per axis over 2 or 3 axes
ORACLE_SHAPES = [
    ((3, 2, 32, 32), (0, 0), IDENTITY_STENCIL),
    ((3, 2, 12, 15), (3, 4), P4Stencil(0.6, 0.15, -0.05)),
    ((3, 3, 9, 10, 11), (2, 0, 3), P4Stencil(1.3, -0.2, 0.1)),
    ((3, 3, 8, 8, 8), (0, 0, 0), IDENTITY_STENCIL),
    ((3, 1, 32), (8,), IDENTITY_STENCIL),
]
MASS_SHAPES = [s for s, _, _ in ORACLE_SHAPES if s[1] == len(s) - 2 >= 2]


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestFullLayoutOracle:
    @pytest.mark.parametrize("shape,padding,w_inv", ORACLE_SHAPES)
    def test_momentum_matches_oracle(self, shape, padding, w_inv):
        rng = np.random.default_rng(50)
        modes = tuple(max(1, (n + p) // 3) for n, p in zip(shape[2:], padding))
        x, g = rng.standard_normal(shape), rng.standard_normal(shape)
        kernel = _kernel(shape[1], modes, rng)
        out, cache = momentum_forward(x, kernel, w_inv, padding)
        ref, ref_cache = full_layout.momentum_forward(x, kernel, modes, w_inv, padding)
        got = (out,) + momentum_backward(g, cache)
        want = (ref,) + full_layout.momentum_backward(g, ref_cache)
        for name, a, b in zip(("out", "g_x", "g_kernel"), got, want):
            assert _rel(a, b) < 1e-12, name

    @pytest.mark.parametrize("with_w_spe", [False, True])
    @pytest.mark.parametrize("shape", MASS_SHAPES)
    def test_mass_matches_oracle(self, shape, with_w_spe):
        rng = np.random.default_rng(51)
        x, g = rng.standard_normal(shape), rng.standard_normal(shape)
        modes = w = None
        if with_w_spe:
            modes = tuple(min(3, (n + 1) // 2) for n in shape[2:])
            w = _kernel(shape[1], modes, rng)
        out, cache = mass_project_forward(x, w)
        ref, ref_cache = full_layout.mass_project_forward(x, modes, w)
        g_x, g_w = mass_project_backward(g, cache)
        ref_g_x, ref_g_w = full_layout.mass_project_backward(g, ref_cache)
        assert _rel(out, ref) < 1e-12
        assert _rel(g_x, ref_g_x) < 1e-12
        if with_w_spe:
            assert _rel(g_w, ref_g_w) < 1e-12
        else:
            assert g_w is None and ref_g_w is None

    @pytest.mark.parametrize("shape", [(2, 16, 16), (2, 12, 15), (3, 9, 10, 11), (1, 32)])
    def test_divergence_loss_matches_oracle(self, shape):
        u = np.random.default_rng(52).standard_normal(shape)
        assert abs(divergence_loss(u) - full_layout.divergence_loss(u)) < (
            1e-12 * full_layout.divergence_loss(u))


def test_identity_stencil_skip_matches_apply(monkeypatch):
    """Skipping ``P4Stencil.apply`` for the identity changes no value (only
    the sign of zeros the general path would write as +0)."""
    rng = np.random.default_rng(60)
    x, g = rng.standard_normal((2, 2, 12, 15)), rng.standard_normal((2, 2, 12, 15))
    kernel = _kernel(2, (4, 5), rng)

    def run():
        out, cache = momentum_forward(x, kernel, IDENTITY_STENCIL, (3, 4))
        return (out,) + momentum_backward(g, cache)

    skipped = run()
    monkeypatch.setattr(projection, "_stencil", lambda w_inv, x, ndim: w_inv.apply(x, ndim))
    general = run()
    for a, b in zip(skipped, general):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# direct adjoint checks of the four stage functions
# ---------------------------------------------------------------------------

def _momentum_case(shape, padding, modes, w_inv):
    def case(rng):
        x = rng.standard_normal(shape)
        kernel = _kernel(shape[1], modes, rng)
        return x, kernel, lambda x, k: momentum_forward(x, k, w_inv, padding), \
            momentum_backward
    return case


def _mass_case(shape, modes):
    def case(rng):
        x = rng.standard_normal(shape)
        w = _kernel(shape[1], modes, rng)
        return x, w, mass_project_forward, mass_project_backward
    return case


# each case names one stored entry on the k_last = 0 plane and one at k_last > 0
ADJOINT_CASES = {
    "momentum_2d_odd_padded_stencil": (
        _momentum_case((3, 2, 11, 13), (3, 2), (4, 5), P4Stencil(0.6, 0.15, -0.05)),
        {"k_last=0": (1, 5, 0), "k_last>0": (0, 2, 3)}),
    "momentum_1d": (
        _momentum_case((3, 1, 32), (8,), (7,), IDENTITY_STENCIL),
        {"k_last=0": (0, 0), "k_last>0": (0, 3)}),
    "mass_3d_w_spe": (
        _mass_case((2, 3, 6, 7, 8), (2, 3, 3)),
        {"k_last=0": (1, 1, 2, 0), "k_last>0": (2, 2, 4, 2)}),
}


class TestStageAdjoints:
    """Each stage's backward against its forward, on paths the end-to-end
    gradient checks do not reach: an odd padded grid under a non-identity
    stencil, the 1D momentum stage and the 3D mass stage with ``w_spe``."""

    @pytest.mark.parametrize("case", sorted(ADJOINT_CASES))
    def test_dot_product_identity(self, case):
        rng = np.random.default_rng(40)
        x, w, forward, backward = ADJOINT_CASES[case][0](rng)
        out, cache = forward(x, w)
        g = rng.standard_normal(out.shape)
        g_x, _ = backward(g, cache)
        lhs, rhs = np.sum(g * out), np.sum(g_x * x)
        scale = np.linalg.norm(g) * np.linalg.norm(out) + np.linalg.norm(g_x) * np.linalg.norm(x)
        assert abs(lhs - rhs) < 1e-13 * scale

    @pytest.mark.parametrize("plane", ["k_last=0", "k_last>0"])
    @pytest.mark.parametrize("case", sorted(ADJOINT_CASES))
    def test_weight_entry_finite_difference(self, case, plane):
        # <g, out> is linear in every stored weight, so a central difference
        # is exact up to rounding; a gradient off by irfftn's factor 2 fails
        make, entries = ADJOINT_CASES[case]
        rng = np.random.default_rng(41)
        x, w, forward, backward = make(rng)
        out, cache = forward(x, w)
        g = rng.standard_normal(out.shape)
        _, g_w = backward(g, cache)
        idx = entries[plane]
        for unit, analytic in ((1.0, g_w[idx].real), (1j, g_w[idx].imag)):
            wp, wm = w.copy(), w.copy()
            wp[idx] += 0.5 * unit
            wm[idx] -= 0.5 * unit
            fd = np.sum(g * forward(x, wp)[0]) - np.sum(g * forward(x, wm)[0])
            assert abs(fd - analytic) < 1e-10 * max(abs(analytic), abs(fd), 1.0), (unit, fd)
