"""Evaluation metrics and report emission.

Conventions documented once:
  - nRMSE is the mean over samples of per-sample relative L2 norms; "MSE"
    here is the mean over samples of squared L2 norms (a sum over points,
    not a per-point mean).
  - Pearson on a constant array is defined as 0; the high-correlation
    horizon returns math.inf when the mean correlation never crosses the
    threshold.
  - the divergence loss is the spatial mean of |div u| with the spectral
    derivative convention of this repo (``specproj.spectral``: each axis one
    period long, as the mass projection takes it).
  - every metric takes plain arrays; the grid is read off their axes.
  - "momentum" at a point is the raw field value (unit density); only the
    spatial sum per channel enters the momentum loss.
  - CSI with no flooded cell in either field is 1 (vacuous agreement).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError
from .spectral import divergence


def _per_sample(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.ndim == 1:
        pred, truth = pred[None], truth[None]
    n = pred.shape[0]
    return pred.reshape(n, -1), truth.reshape(n, -1)


def nrmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """(1/n) sum_i |pred_i - truth_i|_2 / |truth_i|_2 over leading samples."""
    p, y = _per_sample(pred, truth)
    norms = np.linalg.norm(y, axis=1)
    if np.any(norms == 0):
        raise ContractError("nRMSE undefined: a sample has zero norm")
    return float(np.mean(np.linalg.norm(p - y, axis=1) / norms))


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    """(1/n) sum_i |pred_i - truth_i|_2^2 over leading samples."""
    p, y = _per_sample(pred, truth)
    return float(np.mean(np.sum((p - y) ** 2, axis=1)))


def pearson(pred: np.ndarray, truth: np.ndarray) -> float:
    """Correlation over flattened values; 0 when either side is constant."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(truth, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise ContractError("shape mismatch")
    dp = p - p.mean()
    dy = y - y.mean()
    np_, ny_ = np.linalg.norm(dp), np.linalg.norm(dy)
    if np_ == 0.0 or ny_ == 0.0:
        return 0.0
    return float(np.clip(np.dot(dp, dy) / (np_ * ny_), -1.0, 1.0))


def high_corr_step(mean_correlations: np.ndarray, threshold: float) -> float:
    """First step index whose mean-over-test-set correlation drops below the
    threshold; math.inf if it never does."""
    r = np.asarray(mean_correlations, dtype=np.float64)
    below = np.nonzero(r < threshold)[0]
    return float(below[0]) if below.size else math.inf


def divergence_loss(u: np.ndarray) -> float:
    """(1/N) sum_i |div u(x_i)| of a (C, *spatial) field with one channel per
    axis, with the FFT pseudo-spectral derivatives of ``specproj.spectral``."""
    shape = u.shape[1:]
    if u.shape[0] != len(shape):
        raise ContractError("divergence loss needs one channel per grid axis")
    vh = np.fft.rfftn(u, axes=tuple(range(1, u.ndim)))
    div = np.fft.irfftn(divergence(vh, shape), s=shape, axes=tuple(range(len(shape))))
    return float(np.mean(np.abs(div)))


def momentum_loss(pred: np.ndarray, ref: np.ndarray) -> float:
    """(1/N) |sum_i M_pred,i - sum_i M_ref,i|_2^2: spatial sums per channel,
    squared L2 across channels, divided by the number of spatial points."""
    pred = np.asarray(pred, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if pred.shape != ref.shape:
        raise ContractError("shape mismatch")
    if pred.ndim == 0:
        raise ContractError("need at least one spatial axis")
    if pred.ndim == 1:
        pred, ref = pred[None], ref[None]
    n_points = int(np.prod(pred.shape[1:]))
    sums = pred.reshape(pred.shape[0], -1).sum(axis=1) - ref.reshape(ref.shape[0], -1).sum(axis=1)
    return float(np.sum(sums * sums) / n_points)


def csi(pred: np.ndarray, truth: np.ndarray, threshold: float) -> float:
    """TP / (TP + FP + FN) for cells exceeding the depth threshold."""
    if threshold <= 0:
        raise ContractError("threshold must be positive")
    p = np.asarray(pred) > threshold
    y = np.asarray(truth) > threshold
    if p.shape != y.shape:
        raise ContractError("shape mismatch")
    tp = int(np.sum(p & y))
    fp = int(np.sum(p & ~y))
    fn = int(np.sum(~p & y))
    if tp + fp + fn == 0:
        return 1.0
    return tp / (tp + fp + fn)


@dataclass
class MetricReport:
    """Per-step values plus their mean aggregates, with the thresholds and
    grid metadata a reader needs to interpret them."""

    per_step: dict[str, list[float]] = field(default_factory=dict)
    thresholds: dict[str, float] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.per_step.setdefault(metric, []).append(float(value))

    def aggregate(self, metric: str) -> float:
        vals = self.per_step[metric]
        finite = [v for v in vals if math.isfinite(v)]
        return float(np.mean(finite)) if finite else math.inf

    def write_text(self, path: str | Path) -> None:
        lines = [f"{k} = {v}" for k, v in self.meta.items()]
        lines += [f"threshold_{k} = {v!r}" for k, v in self.thresholds.items()]
        for metric in sorted(self.per_step):
            lines.append(f"{metric} = {self.aggregate(metric)!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "metric", "value"])
            for metric in sorted(self.per_step):
                for step, value in enumerate(self.per_step[metric]):
                    writer.writerow([step, metric, repr(value)])
