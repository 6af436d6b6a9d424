"""The spectral core: transform convention, wavenumber algebra, derivative
tables, divergence, the 2/3 mask and the table cache."""

import full_layout
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specproj import spectral
from specproj.errors import ContractError
from specproj.grids import Axis, GridSpec
from specproj.metrics import divergence_loss


def _rand(shape, channels=1, seed=0):
    return np.random.default_rng(seed).standard_normal((channels,) + tuple(shape))


def _x(shape, axis=0):
    """Coordinates along ``axis`` of a grid one period long per axis."""
    n = shape[axis]
    view = [1] * len(shape)
    view[axis] = n
    return (np.arange(n) * (1.0 / n)).reshape(view)


def _fft(data, ndim):
    # channel axis 0, grid axes follow
    return np.fft.fftn(data, axes=tuple(range(1, ndim + 1)))


def _rfft(data, ndim):
    # the half spectrum the Helmholtz subtraction and the divergence take
    return np.fft.rfftn(data, axes=tuple(range(1, ndim + 1)))


def _ifft(coeffs, ndim):
    return np.real(np.fft.ifftn(coeffs, axes=tuple(range(1, ndim + 1))))


def _derivative(f, axis):
    """d/dx_axis of a single real field through the core's wavenumbers."""
    k = spectral.wavenumber_mesh(f.shape, zero_nyquist=True)[axis]
    return np.fft.irfftn(1j * k * np.fft.rfftn(f), s=f.shape, axes=tuple(range(f.ndim)))


class TestForwardInverse:
    """The transform convention the core documents: numpy.fft, forward
    unnormalized, inverse divided by the grid size."""

    def test_constant_field_is_dc_only(self):
        s = _fft(np.full((1, 16), 3.25), 1)
        assert abs(s[0, 0] - 3.25 * 16) < 1e-12
        assert np.max(np.abs(s[0, 1:])) < 1e-12

    def test_single_sine_hits_modes_pm1(self):
        mags = np.abs(_fft(np.sin(2 * np.pi * _x((8,)))[None], 1)[0])
        assert mags[1] > 1.0 and mags[7] > 1.0
        others = np.delete(mags, [1, 7])
        assert np.max(others) < 1e-12

    def test_parseval_direct_sum(self):
        f = _rand((16,), seed=3)
        lhs = np.sum(f**2)
        rhs = np.sum(np.abs(_fft(f, 1)) ** 2) / 16
        assert abs(lhs - rhs) < 1e-12 * max(lhs, 1.0)

    def test_zero_spectrum_inverts_to_zero(self):
        assert np.all(_ifft(np.zeros((1, 4, 4), dtype=complex), 2) == 0.0)

    def test_sine_round_trip(self):
        f = np.sin(2 * np.pi * _x((32,)))[None]
        assert np.max(np.abs(_ifft(_fft(f, 1), 1) - f)) < 1e-12

    def test_zero_mode_imag_tiny(self):
        s = _fft(_rand((8, 8), seed=11), 2)
        assert abs(s[0, 0, 0].imag) / (8 * 8) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.lists(st.integers(4, 64), min_size=1, max_size=3),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, shape, seed):
        f = _rand(shape, seed=seed)
        back = _ifft(_fft(f, len(shape)), len(shape))
        scale = np.max(np.abs(f))
        assert np.max(np.abs(back - f)) < 1e-12 * max(scale, 1.0)

    @settings(max_examples=15, deadline=None)
    @given(n=st.sampled_from([4, 8, 16, 32]), seed=st.integers(0, 2**16))
    def test_parseval_property(self, n, seed):
        f = _rand((n, n), channels=2, seed=seed)
        lhs = np.sum(f**2)
        rhs = np.sum(np.abs(_fft(f, 2)) ** 2) / (n * n)
        assert abs(lhs - rhs) < 1e-12 * max(lhs, 1.0)

    def test_linearity(self):
        f1, f2 = _rand((8, 8), seed=1), _rand((8, 8), seed=2)
        a, b = 1.7, -0.4
        lhs = _fft(a * f1 + b * f2, 2)
        rhs = a * _fft(f1, 2) + b * _fft(f2, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


class TestGradient:
    def test_sine_derivative_analytic(self):
        x = _x((32,))
        df = _derivative(np.sin(2 * np.pi * x), 0)
        expect = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.max(np.abs(df - expect)) < 1e-10

    def test_gradient_of_constant_is_zero(self):
        k = spectral.wavenumber_mesh((8, 8), zero_nyquist=True)[1]
        assert np.max(np.abs(1j * k * np.fft.rfftn(np.full((8, 8), 2.5)))) < 1e-12

    def test_second_derivative_analytic(self):
        x = _x((32,))
        d2f = _derivative(_derivative(np.sin(2 * np.pi * x), 0), 0)
        expect = -4 * np.pi**2 * np.sin(2 * np.pi * x)
        assert np.max(np.abs(d2f - expect)) < 1e-9

    def test_matches_fourth_order_differences(self):
        # the disagreement IS the FD truncation error, so it shrinks ~16x per
        # grid doubling on a smooth field
        errs = []
        for n in (16, 32, 64):
            f = np.exp(np.sin(2 * np.pi * _x((n,))))
            h = 1.0 / n
            fd4 = (
                -np.roll(f, -2) + 8 * np.roll(f, -1) - 8 * np.roll(f, 1) + np.roll(f, 2)
            ) / (12 * h)
            spec = _derivative(f, 0)
            errs.append(np.max(np.abs(spec - fd4)) / np.max(np.abs(fd4)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[0] / errs[1] > 8.0

    def test_linearity_of_ops(self):
        shape = (8, 8)
        v1, v2 = _rfft(_rand(shape, 2, seed=1), 2), _rfft(_rand(shape, 2, seed=2), 2)
        a, b = 0.3, -2.2
        for op in (
            lambda vh: spectral.divergence(vh, shape),
            lambda vh: spectral.leray_project(vh[None], shape),
        ):
            lhs = op(a * v1 + b * v2)
            rhs = a * op(v1) + b * op(v2)
            scale = max(np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestDivergence:
    def test_x_derivative_of_y_function_vanishes(self):
        shape = (16, 16)
        y = _x(shape, 1)
        v = np.stack([np.broadcast_to(np.sin(2 * np.pi * y), shape), np.zeros(shape)])
        d = spectral.divergence(_rfft(v, 2), shape)
        assert np.max(np.abs(d)) < 1e-10

    def test_analytic_divergence(self):
        shape = (32, 32)
        x = _x(shape, 0)
        v = np.stack([np.broadcast_to(np.sin(2 * np.pi * x), shape), np.zeros(shape)])
        d = np.fft.irfftn(spectral.divergence(_rfft(v, 2), shape), s=shape, axes=(0, 1))
        expect = np.broadcast_to(2 * np.pi * np.cos(2 * np.pi * x), shape)
        assert np.max(np.abs(d - expect)) < 1e-10

    def test_divergence_of_gradient_is_laplacian(self):
        shape = (32, 32)
        x, y = _x(shape, 0), _x(shape, 1)
        phi = np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        sh = np.fft.rfftn(phi)
        ks = spectral.wavenumber_mesh(shape, zero_nyquist=True)
        grad = np.stack([1j * k * sh for k in ks])
        d = np.fft.irfftn(spectral.divergence(grad, shape), s=shape, axes=(0, 1))
        assert np.max(np.abs(d - (-8 * np.pi**2) * phi)) < 1e-9
        lap = np.fft.irfftn(-spectral.k_squared(shape, zero_nyquist=True) * sh, s=shape,
                            axes=(0, 1))
        assert np.max(np.abs(d - lap)) < 1e-9

    def test_channel_axis_mismatch(self):
        with pytest.raises(ContractError):
            divergence_loss(_rand((8, 8), channels=3))


class TestLaplacianInverse:
    def test_analytic_inverse(self):
        phi = np.sin(2 * np.pi * _x((32,)))
        lap = -4 * np.pi**2 * phi
        inv = spectral.inverse_k_squared((32,))
        out = np.fft.irfft(-inv * np.fft.rfft(lap), n=32)
        assert np.max(np.abs(out - phi)) < 1e-10

    def test_zero_mode_gauge(self):
        # the mean and the pure-Nyquist modes have zero effective wavenumber
        inv = spectral.inverse_k_squared((8, 8))
        assert inv.shape == (8, 5)
        assert inv[0, 0] == 0.0 and inv[4, 0] == 0.0 and inv[0, 4] == 0.0 and inv[4, 4] == 0.0
        out = inv * np.fft.rfftn(np.full((8, 8), 7.0))
        assert np.max(np.abs(out)) < 1e-12

    def test_laplacian_composition_identity(self):
        shape = (16, 16)
        s = np.fft.rfftn(np.random.default_rng(8).standard_normal(shape))
        s[0, 0] = 0.0       # zero-mean
        s[8, :] = 0.0       # strip the non-representable band
        s[:, 8] = 0.0
        k2 = spectral.k_squared(shape, zero_nyquist=True)
        back = k2 * (spectral.inverse_k_squared(shape) * s)
        assert np.max(np.abs(back - s)) < 1e-12 * np.max(np.abs(s))


class TestDealias:
    def test_two_thirds_mask(self):
        keep = spectral.dealias_mask((12,))
        assert keep.shape == (7,)
        for i, n in enumerate(np.fft.rfftfreq(12, d=1.0 / 12)):
            assert keep[i] == (abs(n) <= 4)

    @pytest.mark.parametrize("n", [8, 9, 12, 13, 64])
    def test_rule_even_and_odd(self, n):
        # |n| <= n // 3; at n = 9 that keeps |n| <= 3, where
        # (2/3) * (n // 2) would keep only |n| <= 2
        full = np.abs(np.rint(np.fft.fftfreq(n, d=1.0 / n))) <= n // 3
        assert np.array_equal(spectral.dealias_mask((n,)), full[: n // 2 + 1])

    def test_2d_mask_is_outer_product_and_half_layout_is_first_half(self):
        keep = spectral.dealias_mask((9, 12))
        rows, cols = full_layout.dealias_mask((9,)), spectral.dealias_mask((12,))
        assert np.array_equal(keep, rows[:, None] & cols[None, :])
        assert np.array_equal(keep, full_layout.dealias_mask((9, 12))[:, :7])


class TestWavenumbers:
    def test_fft_order_and_conjugate_pairing(self):
        k = spectral.wavenumbers(8, 2.0)
        assert k[0] == 0.0
        for n in range(1, 8):
            if n == 4:
                continue  # even-size self-conjugate mode
            assert k[n] == -k[8 - n]
        assert k[1] == pytest.approx(2 * np.pi / 2.0, rel=1e-15)

    def test_odd_size_pairing(self):
        k = spectral.wavenumbers(5, 1.0)
        assert k[0] == 0.0
        for n in range(1, 5):
            assert k[n] == -k[5 - n]

    def test_nyquist_zeroing_flag(self):
        assert spectral.wavenumbers(8, 1.0)[4] != 0.0
        assert spectral.wavenumbers(8, 1.0, zero_nyquist=True)[4] == 0.0
        assert spectral.wavenumbers(8, 1.0, zero_nyquist=True, half=True)[4] == 0.0
        assert np.all(spectral.wavenumbers(9, 1.0, zero_nyquist=True)[1:] != 0.0)

    def test_half_layout_is_first_half_of_full(self):
        for n in (8, 9):
            full = spectral.frequencies(n)
            half = spectral.frequencies(n, half=True)
            assert np.array_equal(half, np.abs(full[: n // 2 + 1]))

    @pytest.mark.parametrize("shape", [(8, 12), (9, 13), (6, 5, 10), (7, 9, 11)])
    def test_half_tables_are_first_columns_of_full(self, shape):
        """Bitwise, with one exception: the Nyquist wavenumber of an even last
        axis is +n/2 in the half layout and -n/2 in FFT order."""
        m = shape[-1] // 2 + 1

        def same(half, full):
            return half.tobytes() == np.ascontiguousarray(full[..., :m]).tobytes()

        for zero_nyquist in (False, True):
            full = full_layout.wavenumber_mesh(shape, zero_nyquist)
            half = spectral.wavenumber_mesh(shape, zero_nyquist)
            assert all(same(h, f) for h, f in zip(half[:-1], full[:-1]))
            if zero_nyquist or shape[-1] % 2:
                assert same(half[-1], full[-1])
            else:
                assert same(half[-1][..., :-1], full[-1][..., : m - 1])
                assert half[-1][..., -1] == -full[-1][..., m - 1]
            assert same(spectral.k_squared(shape, zero_nyquist),
                        full_layout.k_squared(shape, zero_nyquist))
        assert same(spectral.inverse_k_squared(shape), full_layout.inverse_k_squared(shape))

    def test_half_tables_are_cached_and_read_only(self):
        shape = (16, 8)
        calls = [
            lambda: spectral.wavenumber_mesh(shape, True),
            lambda: spectral.k_squared(shape),
            lambda: spectral.inverse_k_squared(shape),
        ]
        for call in calls:
            assert call() is call()
        for t in (*calls[0](), calls[1](), calls[2]()):
            assert t.shape[-1] in (1, 5)
            with pytest.raises(ValueError):
                t[0] = 1.0

    @pytest.mark.parametrize("n", [49, 98])
    def test_integer_frequencies_are_exact(self, n):
        # numpy.fft.fftfreq(n, d=1/n) is not integer-valued at these sizes
        f = spectral.frequencies(n)
        assert np.array_equal(f, np.rint(f))
        assert f[1] == 1.0 and f[-1] == -1.0
        assert spectral.wavenumber_mesh((n,))[0][1] == 2 * np.pi

    def test_cached_tables_are_read_only(self):
        tables = [
            spectral.frequencies(16),
            spectral.wavenumbers(16, 1.0, zero_nyquist=True),
            *spectral.wavenumber_mesh((16, 8)),
            spectral.k_squared((16, 8)),
            spectral.inverse_k_squared((16, 8)),
            spectral.dealias_mask((16, 8)),
        ]
        for t in tables:
            with pytest.raises(ValueError):
                t[0] = 1.0
        assert spectral.k_squared((16, 8)) is tables[-3]


class TestGridContracts:
    def test_axis_size_and_extent_bounds(self):
        with pytest.raises(ContractError):
            GridSpec((Axis("x", 1, 1.0),))
        with pytest.raises(ContractError):
            GridSpec((Axis("x", 8, 0.0),))
        with pytest.raises(ContractError):
            GridSpec((Axis("x", 8, -2.0),))

    def test_declared_axis_order_is_kept(self):
        g = GridSpec((Axis("t", 4, 2.0), Axis("x", 8, 1.0)))
        assert [a.name for a in g.axes] == ["t", "x"]
        assert g.shape == (4, 8)

    def test_grid_wavenumber_mesh_is_the_spectral_mesh(self):
        # each axis of a unit-extent grid's mesh is the spectral core's FFT-
        # order wavenumbers, bitwise; an axis of extent L scales them by 1/L
        for zero_nyquist in (False, True):
            unit = GridSpec((Axis("t", 4, 1.0), Axis("x", 9, 1.0)))
            for a, n, shape in zip(unit.wavenumber_mesh(zero_nyquist), (4, 9),
                                   ((4, 1), (1, 9))):
                b = spectral.wavenumbers(n, 1.0, zero_nyquist)
                assert a.tobytes() == b.tobytes() and a.shape == shape
            k = GridSpec((Axis("x", 8, 2.0),)).wavenumber_mesh(zero_nyquist)[0]
            assert k.tobytes() == spectral.wavenumbers(8, 2.0, zero_nyquist).tobytes()


def test_corner_modes_inverts_corner_dims():
    for modes in [(1,), (5,), (3, 4), (2, 3, 2), (1, 1)]:
        assert spectral.corner_modes(spectral.corner_dims(modes)) == modes
    # a leading corner size is 2m - 1, so an even one has no mode count
    for kdims in [(4, 3), (5, 2, 3)]:
        with pytest.raises(ContractError, match="odd size"):
            spectral.corner_modes(kdims)
