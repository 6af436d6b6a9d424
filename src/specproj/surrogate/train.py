"""Training loops (Markov / one-shot) and autoregressive rollout.

Runs are pure functions of (params, dataset, config, seed): batches are
drawn from a named sub-stream, gradients come out of single vectorized
reductions (fixed order, so results are bit-reproducible regardless of
thread count), and the loss curve is returned for serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericsError
from ..grids import GridSpec, RealField
from ..optim import Adam, cosine_lr
from ..rng import substream
from .fno import (
    loss_relative_mse,
    loss_relative_mse_grad,
    pcno_backward_batch,
    pcno_forward_batch,
)
from .params import FnoParams

_DIVERGE = 1e6


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch: int = 16
    lr: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch < 1 or self.lr <= 0:
            raise ContractError("epochs >= 0, batch >= 1, lr > 0 required")


def markov_pairs(trajs: list[np.ndarray], t_in: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Stack (window of t_in frames -> next frame) pairs from trajectories.

    Each trajectory is (T, C, *spatial); the window frames are concatenated
    along the channel axis, matching the model's input channel count.
    """
    xs, ys = [], []
    for tr in trajs:
        t = tr.shape[0]
        if t <= t_in:
            raise ContractError(f"trajectory too short for t_in={t_in}")
        for s in range(t - t_in):
            window = tr[s : s + t_in].reshape((-1,) + tr.shape[2:])
            xs.append(window)
            ys.append(tr[s + t_in])
    return np.stack(xs), np.stack(ys)


def one_shot_pairs(trajs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Whole-grid pairs for 3D training: the initial frame broadcast along
    the temporal axis maps to the full (C, T, *spatial) trajectory in one
    pass. One trajectory is one sample.
    """
    xs, ys = [], []
    for tr in trajs:
        t = tr.shape[0]
        if t < 2:
            raise ContractError("one-shot pairs need trajectories of >= 2 frames")
        grid_traj = np.moveaxis(tr, 0, 1)  # (C, T, *spatial)
        init = np.broadcast_to(tr[0][:, None], grid_traj.shape)
        xs.append(init.copy())
        ys.append(grid_traj)
    return np.stack(xs), np.stack(ys)


def train(
    params: FnoParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    grid: GridSpec,
    cfg: TrainConfig,
    cond: np.ndarray | None = None,
) -> tuple[FnoParams, list[tuple[int, float, float]]]:
    """Optimize params on (inputs, targets); returns (params, loss curve).

    inputs: (N, in_channels, *spatial); targets: (N, out_channels, *spatial);
    cond: optional (N, cond_dim). Zero epochs returns the input parameters
    bit-exactly. Loss curve rows are (step, loss, lr).
    """
    if inputs.shape[0] != targets.shape[0]:
        raise ContractError("inputs and targets disagree on sample count")
    if inputs.ndim - 2 != grid.ndim:
        raise ContractError("sample shape does not match the grid")
    params = params.copy()
    if cfg.epochs == 0:
        return params, []
    rng = substream(cfg.seed, "train/shuffle")
    opt = Adam(params.groups(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    n = inputs.shape[0]
    steps_per_epoch = max(1, -(-n // cfg.batch))
    total = cfg.epochs * steps_per_epoch
    curve: list[tuple[int, float, float]] = []
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch : (b + 1) * cfg.batch]
            if len(idx) == 0:
                continue
            xb, yb = inputs[idx], targets[idx]
            cb = cond[idx] if cond is not None else None
            out, tape = pcno_forward_batch(params, xb, grid, cb)
            loss = loss_relative_mse(out, yb)
            if not np.isfinite(loss) or loss > _DIVERGE:
                raise NumericsError(f"training diverged: loss {loss:.3e} at step {step}")
            grads = pcno_backward_batch(params, tape, loss_relative_mse_grad(out, yb))
            lr = cosine_lr(step, total, cfg.lr)
            opt.step(grads, lr=lr)
            curve.append((step, loss, lr))
            step += 1
    return params, curve


def rollout(
    params: FnoParams,
    u0: RealField,
    steps: int,
    cond: np.ndarray | None = None,
    selector: str | None = None,
    t_in: int = 1,
) -> list[RealField]:
    """Autoregressive forecast: feed each prediction back as the next input.

    For t_in > 1, u0 must carry t_in * out_channels channels (the stacked
    window, oldest first); each step slides the window by one frame.
    """
    if steps < 1:
        raise ContractError("steps >= 1 required")
    h = params.hyper
    if u0.channels != h.in_channels:
        raise ContractError(f"initial state needs {h.in_channels} channels")
    frame_ch = h.out_channels
    if t_in * frame_ch != h.in_channels:
        raise ContractError("t_in * out_channels must equal in_channels")
    window = u0.data.copy()
    frames: list[RealField] = []
    for _ in range(steps):
        out, _ = pcno_forward_batch(params, window[None], u0.grid, cond, selector)
        nxt = out[0]
        frames.append(RealField(u0.grid, nxt))
        window = np.concatenate([window[frame_ch:], nxt], axis=0) if t_in > 1 else nxt
    return frames
