"""Command-line entry point.

Subcommands: generate | project | train | rollout | sample | uncertainty |
evaluate. Global flags: --seed, --config, --threads, --out; SPECPROJ_THREADS
is the --threads fallback. Every command is a pure function of (config
snapshot, input files, seed) and writes that snapshot next to its outputs.

Exit codes: 0 success, 1 usage, 2 data/contract violation or I/O error,
3 numerical failure (blow-up, CFL/timestep underflow, divergence, a forecast
that is not finite).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fldio
from .consistency import (
    CtConfig,
    DenoiserBundle,
    DenoiserHyper,
    RangeNormalizer,
    ToyDenoiser,
    diffpcno_step,
    load_denoiser,
    save_denoiser,
    train_ct,
    uncertainty_ensemble,
)
from .errors import ContractError, NumericsError
from .grids import Axis, GridSpec, RealField, SPATIAL
from .metrics import MetricReport, csi, divergence_loss, mse, nrmse, pearson
from .projection import ProjectionParams, RotationInvariantKernel, compose_projection
from .runconfig import RunConfig, load_config, parse_floats, write_snapshot
from .solvers import generate_dataset, load_dataset
from .surrogate import (
    FnoHyper,
    TrainConfig,
    init_params,
    load_model,
    markov_pairs,
    pcno_forward_batch,
    rollout,
    save_model,
    train,
)
from .surrogate.params import read_container
from .rng import substream


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="specproj", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    p.add_argument("--threads", type=int, default=None, help="worker threads (env SPECPROJ_THREADS)")
    p.add_argument("--out", type=str, default=None, help="output file or directory")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a reference dataset")
    g.add_argument("kind", choices=("kse", "kolmogorov", "swe"))
    g.add_argument("--count", type=int, default=None)

    pr = sub.add_parser("project", help="apply a conservation projection to a field file")
    pr.add_argument("input", type=str)
    pr.add_argument("--selector", choices=("none", "mass", "momentum", "both"), default=None)
    pr.add_argument("--params", type=str, default=None, help="model container with kernels")

    tr = sub.add_parser("train", help="train a surrogate or a consistency corrector")
    tr.add_argument("dataset", type=str)
    tr.add_argument("model_kind", choices=("fno", "pcno", "diffpcno", "refiner"))
    tr.add_argument("--pcno", type=str, default=None, help="frozen surrogate (diffpcno/refiner)")

    ro = sub.add_parser("rollout", help="deterministic autoregressive forecast")
    ro.add_argument("model", type=str)
    ro.add_argument("init", type=str)
    ro.add_argument("--steps", type=int, default=None)

    sa = sub.add_parser("sample", help="stochastic forecast (one trajectory)")
    sa.add_argument("model", type=str, help="denoiser container")
    sa.add_argument("init", type=str)
    sa.add_argument("--pcno", type=str, default=None)
    sa.add_argument("--steps", type=int, default=None)
    sa.add_argument("--time-points", type=str, default=None, help="comma list, descending from t_max")

    un = sub.add_parser("uncertainty", help="ensemble mean/std over stochastic rollouts")
    un.add_argument("model", type=str)
    un.add_argument("init", type=str)
    un.add_argument("--pcno", type=str, default=None)
    un.add_argument("--steps", type=int, default=None)
    un.add_argument("--n-traj", type=int, default=None)

    ev = sub.add_parser("evaluate", help="metric report for prediction vs truth directories")
    ev.add_argument("pred", type=str)
    ev.add_argument("truth", type=str)
    ev.add_argument("--metrics", type=str, default=None, help="comma list")
    ev.add_argument("--thresholds", type=str, default=None, help="comma list for csi")
    return p


def _resolve_common(ns, cfg: RunConfig):
    seed = ns.seed if ns.seed is not None else cfg.get_int("seed", 0)
    env = os.environ.get("SPECPROJ_THREADS")
    if ns.threads is not None:
        threads = ns.threads
    elif env:
        try:
            threads = int(env)
        except ValueError:
            raise ContractError(f"SPECPROJ_THREADS is not an integer: {env!r}") from None
    else:
        threads = cfg.get_int("threads", 1)
    out = ns.out if ns.out is not None else cfg.get_str("out")
    return seed, threads, out


def _need_out(out, what="this command") -> Path:
    if out is None:
        raise UsageError(f"--out is required for {what}")
    return Path(out)


def _need_out_file(out, what: str) -> Path:
    """--out for a command that writes one file: its directory must exist
    before any work starts."""
    path = _need_out(out, what)
    if not path.parent.is_dir():
        raise ContractError(f"output directory {str(path.parent)!r} does not exist")
    return path


def _snapshot(out_dir: Path, command: str, args: list[str], seed: int, threads: int, extra: dict):
    resolved = {"command": command, "args": " ".join(args), "seed": seed, "threads": threads,
                "out": str(out_dir)}
    resolved.update(extra)
    write_snapshot(out_dir / "config.snapshot" if out_dir.is_dir() else Path(str(out_dir) + ".config"), resolved)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_GEN_KEYS = {
    "kse": {"count", "n", "length", "dt", "nu", "warmup", "steps", "substeps", "vary_nu"},
    "kolmogorov": {"count", "n", "nu", "dt", "frame_interval", "t_in", "t_out", "form",
                   "init_tau", "init_alpha", "init_scale"},
    "swe": {"count", "ny", "nx", "slope", "rainfall", "duration", "record_interval",
            "cell_size", "manning_n"},
}


def cmd_generate(ns, cfg: RunConfig, argv: list[str]) -> int:
    seed, threads, out = _resolve_common(ns, cfg)
    out_dir = _need_out(out, "generate")
    allowed = _GEN_KEYS[ns.kind]
    cfg.reject_unknown(allowed)
    count = ns.count if ns.count is not None else cfg.get_int("count", 2)
    overrides: dict = {}
    for key in sorted(allowed - {"count"}):
        if not cfg.has(key):
            continue
        if key in ("n", "warmup", "steps", "substeps", "frame_interval", "t_in", "t_out", "ny", "nx"):
            overrides[key] = cfg.get_int(key)
        elif key in ("form",):
            overrides[key] = cfg.get_str(key)
        elif key in ("vary_nu",):
            overrides[key] = cfg.get_bool(key)
        else:
            overrides[key] = cfg.get_float(key)
    generate_dataset(ns.kind, out_dir, count, seed, overrides, threads=threads)
    snap = {"count": count}
    snap.update({k: overrides[k] for k in sorted(overrides)})
    _snapshot(out_dir, f"generate {ns.kind}", argv, seed, threads, snap)
    print(f"wrote {count} {ns.kind} trajectories to {out_dir}")
    return 0


def cmd_project(ns, cfg: RunConfig, argv: list[str]) -> int:
    seed, threads, out = _resolve_common(ns, cfg)
    out_path = _need_out_file(out, "project")
    cfg.reject_unknown({"selector", "params"})
    selector = ns.selector if ns.selector is not None else cfg.get_str("selector", "mass")
    if selector == "none":
        fldio.unpack_array(Path(ns.input).read_bytes())  # validate, then copy
        out_path.write_bytes(Path(ns.input).read_bytes())
        _snapshot(out_path, "project", argv, seed, threads,
                  {"selector": selector, "arg_input": ns.input})
        return 0
    field = fldio.read_fld(ns.input)
    params_path = ns.params or cfg.get_str("params")
    if params_path == "-":
        params_path = None
    if params_path:
        model, _ = load_model(params_path)
        proj = model.projection()
    else:
        kernel = None
        if selector in ("momentum", "both"):
            kernel = RotationInvariantKernel.unit(field.grid.shape, field.channels)
        proj = ProjectionParams(kernel=kernel)
    projected = compose_projection(field, selector, proj)
    fldio.write_fld(projected, out_path)
    _snapshot(out_path, "project", argv, seed, threads,
              {"selector": selector, "arg_input": ns.input,
               "params": params_path if params_path else "-"})
    return 0


_TRAIN_KEYS = {"epochs", "batch", "lr", "weight_decay", "n_layers", "modes", "width",
               "t_in", "selector", "wspe_modes", "momentum_padding", "ct_steps", "ct_batch",
               "ct_lr", "hidden", "emb_dim", "s0", "s1", "limit_pairs", "pcno"}


def _dataset_grid(header: dict, stanzas: list[dict], spatial_shape: tuple[int, ...]) -> GridSpec:
    kind = header.get("kind", "")
    if kind == "kse":
        length = float(stanzas[0]["L"])
        return GridSpec((Axis("x", spatial_shape[0], length),))
    if kind == "kolmogorov":
        return GridSpec(tuple(Axis(n, s, 1.0) for n, s in zip("xy", spatial_shape)))
    axes = tuple(Axis(n, s, s * float(stanzas[0].get("cell", 1.0)), SPATIAL)
                 for n, s in zip(("y", "x"), spatial_shape))
    return GridSpec(axes)


def cmd_train(ns, cfg: RunConfig, argv: list[str]) -> int:
    seed, threads, out = _resolve_common(ns, cfg)
    out_path = _need_out_file(out, "train")
    cfg.reject_unknown(_TRAIN_KEYS)
    header, stanzas, trajs = load_dataset(ns.dataset)
    t_in = cfg.get_int("t_in", 1)
    limit = cfg.get_int("limit_pairs", 0)
    inputs, targets = markov_pairs(trajs, t_in=t_in)
    if limit:
        inputs, targets = inputs[:limit], targets[:limit]
    spatial = inputs.shape[2:]
    grid = _dataset_grid(header, stanzas, spatial)
    field_ch = targets.shape[1]

    if ns.model_kind in ("fno", "pcno"):
        selector = cfg.get_str("selector", "mass" if ns.model_kind == "pcno" else "none")
        if ns.model_kind == "fno":
            selector = "none"
        momentum_padding = cfg.get_tuple("momentum_padding", (0,) * len(spatial))
        n_layers = cfg.get_int("n_layers", 1)
        modes = cfg.get_tuple("modes", (8,) * len(spatial))
        width = cfg.get_int("width", 8)
        wspe_modes = cfg.get_tuple("wspe_modes", None)
        hyper = FnoHyper(
            n_layers=n_layers,
            modes=modes,
            width=width,
            in_channels=inputs.shape[1],
            out_channels=field_ch,
            selector=selector,
            wspe_modes=wspe_modes,
            momentum_lattice=tuple(n + p for n, p in zip(spatial, momentum_padding))
            if selector in ("momentum", "both") else None,
            momentum_padding=momentum_padding if selector in ("momentum", "both") else None,
        )
        params = init_params(hyper, spatial, substream(seed, "train/init"))
        tcfg = TrainConfig(
            epochs=cfg.get_int("epochs", 5),
            batch=cfg.get_int("batch", 16),
            lr=cfg.get_float("lr", 1e-3),
            weight_decay=cfg.get_float("weight_decay", 1e-4),
            seed=seed,
        )
        params, curve = train(params, inputs, targets, grid, tcfg)
        save_model(out_path, params)
        _write_curve(Path(str(out_path) + ".loss.csv"), curve)
        resolved = {
            "arg_dataset": ns.dataset, "epochs": tcfg.epochs, "batch": tcfg.batch,
            "lr": repr(tcfg.lr), "weight_decay": repr(tcfg.weight_decay),
            "t_in": t_in, "selector": selector, "n_layers": n_layers,
            "modes": ",".join(map(str, modes)), "width": width,
            "momentum_padding": ",".join(map(str, momentum_padding)),
        }
        if wspe_modes is not None:
            resolved["wspe_modes"] = ",".join(map(str, wspe_modes))
        if limit:
            resolved["limit_pairs"] = limit
        _snapshot(out_path, f"train {ns.model_kind}", argv, seed, threads, resolved)
        print(f"trained {ns.model_kind} ({len(curve)} steps) -> {out_path}")
        return 0

    # consistency correctors need a frozen deterministic model
    pcno_path = ns.pcno or cfg.get_str("pcno")
    if not pcno_path:
        raise UsageError(f"{ns.model_kind} training requires --pcno (frozen surrogate)")
    pcno, _ = load_model(pcno_path)
    preds = []
    for s in range(0, inputs.shape[0], 64):
        outb, _ = pcno_forward_batch(pcno, inputs[s : s + 64], grid)
        preds.append(outb)
    u_hat = np.concatenate(preds)
    # the corrector noises the residual around the frozen forecast, the
    # refiner the state itself; both are conditioned on (u_t, u_hat)
    kind = "residual" if ns.model_kind == "diffpcno" else "state"
    fit_on = (targets - u_hat) if kind == "residual" else targets
    normalizer = RangeNormalizer.fit(fit_on)
    hyper = DenoiserHyper(
        field_shape=targets.shape[1:],
        cond_shape=(inputs.shape[1] + field_ch,) + spatial,
        hidden=cfg.get_int("hidden", 128),
        emb_dim=cfg.get_int("emb_dim", 16),
    )
    den = ToyDenoiser.init(hyper, substream(seed, "ct/init"))
    ct_cfg = CtConfig(
        steps=cfg.get_int("ct_steps", 400),
        batch=cfg.get_int("ct_batch", 16),
        lr=cfg.get_float("ct_lr", 1e-3),
        s0=cfg.get_int("s0", 10),
        s1=cfg.get_int("s1", 1280),
        seed=seed,
    )
    den, curve = train_ct(den, normalizer.forward(fit_on),
                          np.concatenate([inputs, u_hat], axis=1), ct_cfg)
    bundle = DenoiserBundle(den, normalizer, kind=kind)
    save_denoiser(out_path, bundle, extra={"pcno": str(pcno_path)})
    _write_curve(Path(str(out_path) + ".loss.csv"), curve)
    resolved = {
        "arg_dataset": ns.dataset, "pcno": str(pcno_path), "ct_steps": ct_cfg.steps,
        "ct_batch": ct_cfg.batch, "ct_lr": repr(ct_cfg.lr), "t_in": t_in,
        "hidden": hyper.hidden, "emb_dim": hyper.emb_dim,
        "s0": ct_cfg.s0, "s1": ct_cfg.s1,
    }
    if limit:
        resolved["limit_pairs"] = limit
    _snapshot(out_path, f"train {ns.model_kind}", argv, seed, threads, resolved)
    print(f"trained {ns.model_kind} ({len(curve)} steps) -> {out_path}")
    return 0


def _write_curve(path: Path, curve) -> None:
    lines = ["step,loss,lr"] + [f"{s},{l!r},{r!r}" for s, l, r in curve]
    path.write_text("\n".join(lines) + "\n")


def _load_init(path: str, hyper: FnoHyper) -> tuple[np.ndarray, GridSpec]:
    """The model's input window and its grid. A frame file is the window as
    it is; a trajectory (C, T, *spatial) such as ``generate`` writes gives
    its first t_in = in_channels // out_channels frames, stacked oldest
    first as ``markov_pairs`` stacks them."""
    u = fldio.read_fld(path)
    if u.grid.ndim == hyper.ndim + 1:
        frames = np.moveaxis(u.data[:, : hyper.in_channels // hyper.out_channels], 1, 0)
        window, grid = frames.reshape((-1,) + frames.shape[2:]), GridSpec(u.grid.axes[1:])
    elif u.grid.ndim == hyper.ndim:
        window, grid = u.data, u.grid
    else:
        raise ContractError(f"{path}: {u.grid.ndim} grid axes, the model needs "
                            f"{hyper.ndim} (a frame) or {hyper.ndim + 1} (a trajectory)")
    return window, grid


def _surrogate_forecast(params, init_path: str):
    """``(step, window)`` for the surrogate's deterministic forward pass."""
    window, grid = _load_init(init_path, params.hyper)
    return (lambda w, rng: pcno_forward_batch(params, w[None], grid)[0][0]), window


def _forecast(model_path: str, init_path: str, pcno_path: str | None,
              time_points: tuple[float, ...] | None = None):
    """``(step, window)`` for ``sample`` and ``uncertainty``. A surrogate
    container steps by its forward pass, so ``sample`` on it gives the frames
    ``rollout`` gives; a denoiser container steps by ``diffpcno_step`` over
    its frozen surrogate, from --pcno or the path recorded at training."""
    if read_container(model_path)[0].get("model_kind") != "denoiser":
        return _surrogate_forecast(load_model(model_path)[0], init_path)
    bundle, header = load_denoiser(model_path)
    if time_points is not None:
        bundle = replace(bundle, time_points=time_points)
    pcno_path = pcno_path or header.get("pcno")
    if not pcno_path:
        raise UsageError("stochastic commands need --pcno (frozen surrogate)")
    pcno, _ = load_model(pcno_path)
    window, grid = _load_init(init_path, pcno.hyper)
    return (lambda w, rng: diffpcno_step(pcno, bundle, w, grid, rng)), window


def cmd_rollout(ns, cfg: RunConfig, argv: list[str]) -> int:
    seed, threads, out = _resolve_common(ns, cfg)
    out_path = _need_out_file(out, "rollout")
    cfg.reject_unknown({"steps"})
    steps = ns.steps if ns.steps is not None else cfg.get_int("steps", 1)
    frames = rollout(*_surrogate_forecast(load_model(ns.model)[0], ns.init), steps)
    fldio.write_array(out_path, np.moveaxis(frames, 0, 1))
    _snapshot(out_path, "rollout", argv, seed, threads,
              {"arg_model": ns.model, "arg_init": ns.init, "steps": steps})
    return 0


def cmd_sample(ns, cfg: RunConfig, argv: list[str]) -> int:
    seed, threads, out = _resolve_common(ns, cfg)
    out_path = _need_out_file(out, "sample")
    cfg.reject_unknown({"steps", "pcno", "time_points"})
    steps = ns.steps if ns.steps is not None else cfg.get_int("steps", 1)
    tp_raw = ns.time_points or cfg.get_str("time_points")
    tps = parse_floats(tp_raw, "time points") if tp_raw else None
    step, window = _forecast(ns.model, ns.init, ns.pcno or cfg.get_str("pcno"), tps)
    frames = rollout(step, window, steps, substream(seed, "sample/0"))
    fldio.write_array(out_path, np.moveaxis(frames, 0, 1))
    _snapshot(out_path, "sample", argv, seed, threads,
              {"arg_model": ns.model, "arg_init": ns.init, "steps": steps})
    return 0


def cmd_uncertainty(ns, cfg: RunConfig, argv: list[str]) -> int:
    seed, threads, out = _resolve_common(ns, cfg)
    out_dir = _need_out(out, "uncertainty")
    cfg.reject_unknown({"steps", "n_traj", "pcno"})
    steps = ns.steps if ns.steps is not None else cfg.get_int("steps", 1)
    n_traj = ns.n_traj if ns.n_traj is not None else cfg.get_int("n_traj", 50)
    step, window = _forecast(ns.model, ns.init, ns.pcno or cfg.get_str("pcno"))
    mean, std = uncertainty_ensemble(step, window, steps, n_traj=n_traj, seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    fldio.write_array(out_dir / "mean.fld", np.moveaxis(mean, 1, 0))
    fldio.write_array(out_dir / "std.fld", np.moveaxis(std, 1, 0))
    _snapshot(out_dir, "uncertainty", argv, seed, threads,
              {"arg_model": ns.model, "arg_init": ns.init, "steps": steps, "n_traj": n_traj})
    return 0


_ALL_METRICS = ("nrmse", "mse", "pearson", "divergence", "momentum", "csi")


def cmd_evaluate(ns, cfg: RunConfig, argv: list[str]) -> int:
    from .metrics import momentum_loss

    seed, threads, out = _resolve_common(ns, cfg)
    out_dir = _need_out(out, "evaluate")
    cfg.reject_unknown({"metrics", "thresholds"})
    wanted = (ns.metrics or cfg.get_str("metrics", "nrmse,mse,pearson")).split(",")
    for m in wanted:
        if m not in _ALL_METRICS:
            raise ContractError(f"unknown metric {m!r} (choose from {_ALL_METRICS})")
    thresholds = parse_floats(ns.thresholds or cfg.get_str("thresholds", "0.05,0.5"), "thresholds")
    pred_dir, truth_dir = Path(ns.pred), Path(ns.truth)
    truth_files = sorted(truth_dir.glob("traj_*.fld"))
    if not truth_files:
        raise ContractError(f"no traj_*.fld files in {truth_dir}")
    pairs = []
    for tf in truth_files:
        pf = pred_dir / tf.name
        if not pf.exists():
            raise ContractError(f"prediction missing for trajectory {tf.name}")
        pairs.append((fldio.read_array(pf), fldio.read_array(tf)))

    report = MetricReport(meta={"pred": str(pred_dir), "truth": str(truth_dir),
                                "trajectories": str(len(pairs))})
    n_steps = min(min(p.shape[1], t.shape[1]) for p, t in pairs)
    for step in range(n_steps):
        preds = np.stack([p[:, step] for p, _ in pairs])  # (n_traj, C, *spatial)
        truths = np.stack([t[:, step] for _, t in pairs])
        if "nrmse" in wanted:
            report.add("nrmse", nrmse(preds, truths))
        if "mse" in wanted:
            report.add("mse", mse(preds, truths))
        if "pearson" in wanted:
            report.add("pearson", float(np.mean([pearson(p, t) for p, t in zip(preds, truths)])))
        if "momentum" in wanted:
            report.add("momentum", float(np.mean(
                [momentum_loss(p, t) for p, t in zip(preds, truths)])))
        if "divergence" in wanted:
            grid = GridSpec(tuple(Axis(f"a{i}", s, 1.0) for i, s in enumerate(preds.shape[2:])))
            report.add("divergence",
                       float(np.mean([divergence_loss(RealField(grid, p)) for p in preds])))
        if "csi" in wanted:
            for gamma in thresholds:
                report.add(f"csi_{gamma}", float(np.mean(
                    [csi(p, t, gamma) for p, t in zip(preds, truths)])))
    if "csi" in wanted:
        for gamma in thresholds:
            report.thresholds[f"csi_{gamma}"] = gamma
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_text(out_dir / "report.txt")
    report.write_csv(out_dir / "report.csv")
    _snapshot(out_dir, "evaluate", argv, seed, threads,
              {"arg_pred": str(pred_dir), "arg_truth": str(truth_dir),
               "metrics": ",".join(wanted),
               "thresholds": ",".join(repr(t) for t in thresholds)})
    print((out_dir / "report.txt").read_text().rstrip())
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "project": cmd_project,
    "train": cmd_train,
    "rollout": cmd_rollout,
    "sample": cmd_sample,
    "uncertainty": cmd_uncertainty,
    "evaluate": cmd_evaluate,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(load_config(ns.config) if ns.config else {})
    return _COMMANDS[ns.command](ns, cfg, argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
