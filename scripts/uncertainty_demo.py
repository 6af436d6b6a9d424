#!/usr/bin/env python3
"""Residual-corrector calibration demo.

Builds a synthetic task whose one-step-ahead residual around a frozen
surrogate is pixelwise Gaussian, trains the consistency-model corrector, and
checks how well the sampled ensemble reproduces the known mean and spread.
Writes the per-pixel calibration table as CSV.

    python scripts/uncertainty_demo.py --steps 6000 --out uq_results
"""

import argparse
import csv
import time
from pathlib import Path

import numpy as np

from specproj.consistency import (
    CtConfig,
    DenoiserBundle,
    DenoiserHyper,
    RangeNormalizer,
    ToyDenoiser,
    diffpcno_step,
    train_ct,
    uncertainty_ensemble,
)
from specproj.rng import substream
from specproj.surrogate import FnoHyper, fno_forward_batch, init_params


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="uq_results")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=6000)
    ap.add_argument("--mu", type=float, default=0.8)
    ap.add_argument("--sigma", type=float, default=0.25)
    ap.add_argument("--n-traj", type=int, default=50)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    n, n_samples = 8, 64

    fh = FnoHyper(n_layers=1, modes=(3, 3), width=4, in_channels=1, out_channels=1)
    frozen = init_params(fh, (n, n), substream(args.seed, "toy/pcno"))
    rng = substream(args.seed, "toy/data")
    u_t = rng.standard_normal((n_samples, 1, n, n))
    u_hat, _ = fno_forward_batch(frozen, u_t, tape=False)
    y = u_hat + rng.normal(args.mu, args.sigma, size=u_hat.shape)

    normalizer = RangeNormalizer.fit(y - u_hat)
    hyper = DenoiserHyper(channels=1, cond_channels=2, modes=(4, 4), hidden=128)
    den = ToyDenoiser.init(hyper, substream(args.seed, "toy/den"))
    den, curve = train_ct(den, normalizer.forward(y - u_hat),
                          np.concatenate([u_t, u_hat], axis=1),
                          CtConfig(steps=args.steps, batch=32, lr=1e-3, seed=args.seed))
    print(f"[{time.time()-t0:5.1f}s] consistency training done "
          f"(loss {curve[0][1]:.3f} -> {np.mean([c[1] for c in curve[-100:]]):.3f})")

    bundle = DenoiserBundle(den, normalizer)
    u0 = rng.standard_normal((1, n, n))
    det, _ = fno_forward_batch(frozen, u0[None], tape=False)
    step_fn = lambda ws, rngs: diffpcno_step(frozen, bundle, ws, rngs)
    mean, std = uncertainty_ensemble(step_fn, u0, steps=1, n_traj=args.n_traj,
                                     seed=args.seed + 100)
    res_mean = mean[0] - det[0]
    print(f"ensemble residual mean {res_mean.mean():.4f} (target {args.mu}), "
          f"std {std[0].mean():.4f} (target {args.sigma})")

    with open(out / "calibration.csv", "w", newline="") as fh_:
        writer = csv.writer(fh_)
        writer.writerow(["pixel", "residual_mean", "residual_std"])
        flat_m = res_mean.ravel()
        flat_s = std[0].ravel()
        for i in range(flat_m.size):
            writer.writerow([i, repr(float(flat_m[i])), repr(float(flat_s[i]))])
    print(f"[{time.time()-t0:5.1f}s] wrote {out / 'calibration.csv'}")


if __name__ == "__main__":
    main()
