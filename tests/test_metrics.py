"""Metric definitions, degenerate-case policies, and report emission."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specproj.errors import ContractError
from specproj.metrics import (
    MetricReport,
    csi,
    divergence_loss,
    high_corr_step,
    momentum_loss,
    mse,
    nrmse,
    pearson,
)
from specproj.projection import mass_project_forward
from specproj.runconfig import parse_config_text


class TestNrmseMse:
    def test_equal_fields(self):
        y = np.random.default_rng(0).standard_normal((3, 8))
        assert nrmse(y, y) == 0.0
        assert mse(y, y) == 0.0

    def test_zero_prediction_is_one(self):
        y = np.random.default_rng(1).standard_normal((3, 8))
        assert nrmse(np.zeros_like(y), y) == pytest.approx(1.0, abs=1e-12)

    def test_double_truth_is_one(self):
        y = np.random.default_rng(2).standard_normal((4, 6))
        assert nrmse(2 * y, y) == pytest.approx(1.0, abs=1e-12)

    def test_mse_unit_offset_counts_points(self):
        n = 10
        y = np.zeros((2, n))
        p = np.ones((2, n))
        assert mse(p, y) == pytest.approx(n, abs=1e-12)

    def test_mse_two_sample_hand_sum(self):
        p = np.array([[1.0, 2.0], [0.0, 0.0]])
        y = np.array([[0.0, 0.0], [3.0, 4.0]])
        # sample norms^2: 5 and 25 -> mean 15
        assert mse(p, y) == pytest.approx(15.0, abs=1e-12)

    def test_nonneg_and_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((2, 5))
        p = y.copy()
        p[0, 0] += 1e-9
        assert nrmse(p, y) > 0 and mse(p, y) > 0


class TestPearson:
    def test_perfect_correlation(self):
        y = np.random.default_rng(0).standard_normal(32)
        assert pearson(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation_with_offset(self):
        y = np.random.default_rng(1).standard_normal(32)
        assert pearson(-y + 3.0, y) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_prediction_policy(self):
        y = np.random.default_rng(2).standard_normal(16)
        assert pearson(np.full(16, 2.0), y) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.01, 100.0), b=st.floats(-10, 10), seed=st.integers(0, 99))
    def test_positive_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(24)
        p = rng.standard_normal(24)
        assert pearson(a * p + b, y) == pytest.approx(pearson(p, y), abs=1e-12)

    def test_high_corr_step(self):
        rs = np.array([0.99, 0.95, 0.91, 0.85, 0.7])
        assert high_corr_step(rs, 0.9) == 3
        assert high_corr_step(rs, 0.8) == 4
        assert high_corr_step(rs, 0.5) == math.inf


class TestDivergenceLoss:
    def test_solenoidal_field(self):
        x = np.arange(16) / 16
        vx = np.broadcast_to(np.sin(2 * np.pi * x)[None, :], (16, 16))  # depends on y only
        v = np.stack([vx, np.zeros((16, 16))])
        assert divergence_loss(v) < 1e-12

    def test_four_point_hand_value_is_pi(self):
        x = np.arange(4) / 4
        vx = np.broadcast_to(np.sin(2 * np.pi * x)[:, None], (4, 4))
        v = np.stack([vx, np.zeros((4, 4))])
        # |2 pi cos(2 pi x)| at x in {0, 1/4, 1/2, 3/4} averages to pi
        assert divergence_loss(v) == pytest.approx(math.pi, rel=1e-12)

    def test_projected_field_below_threshold(self):
        v = np.random.default_rng(4).standard_normal((1, 2, 32, 32))
        out, _ = mass_project_forward(v)
        assert divergence_loss(out[0]) < 1e-10


class TestMomentumLoss:
    def test_equal_fields(self):
        p = np.random.default_rng(0).standard_normal((1, 4, 4))
        assert momentum_loss(p, p) == 0.0

    def test_uniform_offset_hand_value(self):
        ref = np.zeros((1, 4))
        pred = np.full((1, 4), 0.5)
        # (1/4) * (4 * 0.5)^2 = 1.0
        assert momentum_loss(pred, ref) == pytest.approx(1.0, abs=1e-14)

    def test_zero_sum_perturbation_invariant(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((2, 8))
        pred = rng.standard_normal((2, 8))
        base = momentum_loss(pred, ref)
        noise = rng.standard_normal((2, 8))
        noise -= noise.mean(axis=1, keepdims=True)  # zero spatial sum per channel
        assert momentum_loss(pred + noise, ref) == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestCsi:
    def test_perfect_classification(self):
        y = np.array([0.0, 0.1, 0.6, 0.0])
        assert csi(y, y, 0.5) == 1.0

    def test_hand_counts(self):
        # TP = 3, FP = 1, FN = 1 -> 0.6
        pred = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        truth = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        assert csi(pred, truth, 0.5) == pytest.approx(0.6, abs=1e-15)

    def test_vacuous_agreement_is_one(self):
        assert csi(np.zeros(5), np.zeros(5), 0.05) == 1.0

    def test_false_positive_never_helps(self):
        rng = np.random.default_rng(2)
        truth = (rng.uniform(size=20) > 0.5).astype(float)
        pred = truth.copy()
        base = csi(pred, truth, 0.5)
        dry = np.nonzero(truth < 0.5)[0]
        pred[dry[0]] = 1.0
        assert csi(pred, truth, 0.5) <= base

    def test_bad_threshold(self):
        with pytest.raises(ContractError):
            csi(np.ones(3), np.ones(3), 0.0)


class TestReport:
    def test_aggregate_is_mean_of_steps(self, tmp_path):
        rep = MetricReport(meta={"case": "unit"})
        for v in (0.1, 0.2, 0.3):
            rep.add("nrmse", v)
        assert rep.aggregate("nrmse") == pytest.approx(0.2, abs=1e-12)
        rep.write_text(tmp_path / "report.txt")
        rep.write_csv(tmp_path / "report.csv")
        parsed = parse_config_text((tmp_path / "report.txt").read_text())
        assert float(parsed["nrmse"]) == pytest.approx(0.2, abs=1e-12)
        rows = (tmp_path / "report.csv").read_text().splitlines()
        assert rows[0] == "step,metric,value"
        assert len(rows) == 4
