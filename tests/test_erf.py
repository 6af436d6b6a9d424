"""The NumPy erf port against SciPy's compiled erf, its traced peak memory,
and the index weights built from it against the same formula on SciPy's
erf."""

import math
import tracemalloc

import numpy as np
from scipy.special import erf as scipy_erf

from specproj._erf import erf
from specproj.consistency.schedule import P_MEAN, P_STD, index_weights, timesteps


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_within_one_ulp_of_scipy_on_ten_million_points():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):  # 10 x 1e6 points keeps the temporaries small
        x = rng.uniform(-10.0, 10.0, 1_000_000)
        worst = max(worst, _ulps(erf(x), scipy_erf(x)).max())
    assert worst <= 1.0


def test_special_values_and_branch_edges_exact():
    tiny = 5e-324  # the smallest subnormal
    x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 30.0, -30.0, tiny, -tiny, 1e-310,
                  1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                  8.0, -8.0, np.nextafter(8.0, 0.0), np.nextafter(-8.0, 0.0)])
    got = erf(x)
    assert np.array_equal(got, scipy_erf(x), equal_nan=True)
    assert np.array_equal(np.signbit(got[:2]), [False, True])  # erf(-0) = -0
    assert np.array_equal(got[2:7], [1.0, -1.0, np.nan, 1.0, -1.0], equal_nan=True)


def test_traced_peak_stays_under_five_and_a_half_inputs():
    # each phase frees its temporaries before the next one allocates
    x = 3.0 * np.random.default_rng(4).standard_normal((8, 8, 16, 16))
    erf(x)  # warm up numpy's own first-call allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        erf(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * x.nbytes, peak / x.nbytes


def test_shape_and_scalar_input_kept():
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    assert erf(x).shape == (2, 3, 4)
    assert erf(0.5).shape == () and float(erf(0.5)) == float(scipy_erf(0.5))


def test_index_weights_match_the_scipy_formula():
    # The weights are differences of nearby erf values, so a 1-ulp difference
    # in erf moves a small weight by many of its own ulps; what is bounded is
    # the absolute difference, by one ulp of 1.0, the scale of the erf values.
    for n in [2, 3, 11, 21, 41, 81, 161, 321, 641, 1281]:
        t = timesteps(n)
        z = (np.log(t) - P_MEAN) / (math.sqrt(2.0) * P_STD)
        ref = scipy_erf(z[1:]) - scipy_erf(z[:-1])
        ref /= ref.sum()
        w = index_weights(n)
        assert np.all(w > 0)
        assert np.max(np.abs(w - ref)) <= np.spacing(1.0), n
