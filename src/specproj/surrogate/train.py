"""The Markov training loop and the autoregressive rollout.

Runs are pure functions of (params, dataset, config, seed): batches are
drawn from a named sub-stream, gradients come out of single vectorized
reductions (fixed order, so results are bit-reproducible regardless of
thread count), and the loss curve is returned for serialization. A step
holds the parameters, the Adam moments and one tape: the backward empties
the tape as it reads it, and the step's output and gradients go before the
next forward.

``rollout`` is the one forecast loop, on arrays: the deterministic surrogate
and the DiffPCNO sample step through it at batch 1, the uncertainty ensemble
with all its members at once. Its surrogate forward keeps no tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, NumericsError
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


def train(
    params: FnoParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
) -> tuple[FnoParams, list[tuple[int, float, float]]]:
    """Optimize params on (inputs, targets); returns (params, loss curve).

    inputs: (N, in_channels, *spatial); targets: (N, out_channels, *spatial).
    Zero epochs returns the input parameters bit-exactly. Loss curve rows
    are (step, loss, lr).
    """
    if inputs.shape[0] != targets.shape[0]:
        raise ContractError("inputs and targets disagree on sample count")
    if inputs.ndim - 2 != params.hyper.ndim:
        raise ContractError("sample shape does not match the model's dimension")
    params = params.copy()
    if cfg.epochs == 0:
        return params, []
    rng = substream(cfg.seed, "train/shuffle")
    opt = Adam(params.arrays, lr=cfg.lr, weight_decay=cfg.weight_decay)
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
            out, tape = pcno_forward_batch(params, xb)
            loss = loss_relative_mse(out, yb)
            if not np.isfinite(loss) or loss > _DIVERGE:
                raise NumericsError(f"training diverged: loss {loss:.3e} at step {step}")
            lr = cosine_lr(step, total, cfg.lr)
            # the backward empties the tape as it reads it, and this step's
            # output and gradients go before the next forward
            opt.step(pcno_backward_batch(params, tape, loss_relative_mse_grad(out, yb)), lr=lr)
            del out, tape
            curve.append((step, loss, lr))
            step += 1
    return params, curve


def surrogate_step(params: FnoParams):
    """The surrogate's deterministic forward pass as a ``rollout`` step.
    Each window runs on its own, at batch 1 and without a tape, so a frame's
    bytes do not depend on how many windows step together."""
    def step(windows: np.ndarray, rngs=None) -> np.ndarray:
        return np.concatenate([pcno_forward_batch(params, w[None], tape=False)[0]
                               for w in windows])
    return step


def rollout(step, windows: np.ndarray, steps: int,
            rngs: list[np.random.Generator] | None = None):
    """Autoregressive forecast of B windows at once: ``step(windows, rngs)``
    returns the next frames (B, C, *spatial), which replace the windows'
    oldest C channels; ``rngs`` holds one generator per window.

    A window stacks the model's t_in input frames along the channel axis,
    oldest first (the ``markov_pairs`` layout); for t_in = 1 it is one
    frame. Returns an iterator over each step's frames, (B, C, *spatial),
    each made when the iterator reaches it.
    """
    if steps < 1:  # checked at the call: a generator body would wait for the first frame
        raise ContractError("steps >= 1 required")
    return _rollout_frames(step, windows, steps, rngs)


def _rollout_frames(step, windows, steps, rngs):
    for s in range(steps):
        with np.errstate(all="ignore"):  # the check below reports a blow-up once
            frames = step(windows, rngs)
        if not np.all(np.isfinite(frames)):
            raise NumericsError(f"forecast is not finite at step {s}")
        yield frames
        windows = np.concatenate([windows[:, frames.shape[1]:], frames], axis=1)
