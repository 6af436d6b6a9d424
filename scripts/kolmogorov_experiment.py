#!/usr/bin/env python3
"""Desk-scale forced-turbulence experiment.

Generates velocity-form reference trajectories, trains a small Fourier-layer
surrogate, and compares the plain model against its mass-projected variant
on held-out rollouts: relative MSE per step plus the divergence and momentum
losses. Emits a CSV for plotting.

    python scripts/kolmogorov_experiment.py --out results --seed 7
"""

import argparse
import csv
import time
from pathlib import Path

import numpy as np

from specproj.metrics import divergence_loss, momentum_loss, nrmse
from specproj.projection import compose_forward
from specproj.rng import substream
from specproj.solvers import KolmogorovConfig, gaussian_random_vorticity, solve_kolmogorov
from specproj.surrogate import (
    FnoHyper,
    TrainConfig,
    fno_forward_batch,
    init_params,
    loss_relative_mse,
    markov_pairs,
    train,
)


def make_trajectories(n_traj, n, seed):
    """``n_traj`` velocity trajectories (T, 2, n, n), solved as one batch."""
    cfg = KolmogorovConfig(n=n, dt=1e-3, frame_interval=100, t_in=1, t_out=11)
    w0 = np.stack([gaussian_random_vorticity(cfg, substream(seed, f"solver/{i}"))
                   for i in range(n_traj)])
    _, u = solve_kolmogorov(cfg, w0=w0)
    return [np.moveaxis(traj, 0, 1) for traj in u]


def forecast(params, x, selector):
    """The plain model's one-step forecast, projected by the ``selector``
    stages after the fact."""
    return compose_forward(fno_forward_batch(params, x, tape=False)[0], selector)[0]


def rollout_metrics(params, traj, steps, selector):
    state = traj[0][None]
    rows = []
    for s in range(steps):
        state = forecast(params, state, selector)
        truth = traj[s + 1]
        rows.append(
            dict(
                step=s + 1,
                nrmse=nrmse(state[0][None], truth[None]),
                divergence=divergence_loss(state[0]),
                momentum=momentum_loss(state[0], truth),
            )
        )
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="kolmogorov_results")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trajectories", type=int, default=24)
    ap.add_argument("--grid", type=int, default=32)
    ap.add_argument("--epochs", type=int, default=10)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    trajs = make_trajectories(args.trajectories, args.grid, args.seed)
    split = int(0.8 * len(trajs))
    x, y = markov_pairs(trajs[:split])
    xt, yt = markov_pairs(trajs[split:])
    print(f"[{time.time()-t0:5.1f}s] {split} train / {len(trajs)-split} test trajectories")

    hyper = FnoHyper(n_layers=1, modes=(8, 8), width=8, in_channels=2,
                     out_channels=2, selector="none")
    params = init_params(hyper, (args.grid, args.grid), substream(args.seed, "train/init"))
    cfg = TrainConfig(epochs=args.epochs, batch=16, lr=2e-3, weight_decay=1e-4,
                      seed=args.seed)
    trained, curve = train(params, x, y, cfg)
    print(f"[{time.time()-t0:5.1f}s] trained {len(curve)} steps, final loss {curve[-1][1]:.4f}")

    for selector, label in (("none", "plain"), ("mass", "projected")):
        pred = forecast(trained, xt, selector)
        rel = loss_relative_mse(pred, yt)
        div = float(np.mean([divergence_loss(p) for p in pred]))
        print(f"  one-step {label:9s}: relMSE {rel:.4f}  divergence {div:.3e}")

    steps = trajs[0].shape[0] - 1
    with open(out / "rollout_metrics.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["variant", "trajectory", "step",
                                                "nrmse", "divergence", "momentum"])
        writer.writeheader()
        for selector, label in (("none", "plain"), ("mass", "projected")):
            for j, traj in enumerate(trajs[split:]):
                for row in rollout_metrics(trained, traj, steps, selector):
                    writer.writerow(dict(variant=label, trajectory=j, **row))
    print(f"[{time.time()-t0:5.1f}s] wrote {out / 'rollout_metrics.csv'}")


if __name__ == "__main__":
    main()
