"""Command-line entry point.

Subcommands: generate | project | train | rollout | sample | uncertainty |
evaluate. Global flags: --seed, --config, --threads, --out; SPECPROJ_THREADS
is the --threads fallback. Each command declares its settings once, as rows
of a table (``runconfig.Row``): the rows give the setting flags, the config
keys a command accepts, the defaults and the snapshot. ``generate`` and
``train`` pick a table by their positional kind. Every command is a pure
function of (config snapshot, input files, seed) and writes its resolved
settings as that snapshot next to its outputs.

At start the CLI pins BLAS to one thread where NumPy's bundled OpenBLAS
allows it, so outputs do not depend on OPENBLAS_NUM_THREADS either.

Exit codes: 0 success, 1 usage, 2 data/contract violation (a malformed or
unknown setting included) or I/O error, 3 numerical failure (blow-up,
CFL/timestep underflow, divergence, a forecast that is not finite).
"""

from __future__ import annotations

import argparse
import ctypes
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
from .metrics import MetricReport, csi, divergence_loss, momentum_loss, mse, nrmse, pearson
from .projection import SELECTORS, ProjectionParams, compose_forward
from .runconfig import (
    Row,
    boolean,
    bounded,
    integer,
    integers,
    load_config,
    number,
    numbers,
    one_of,
    resolve,
    write_snapshot,
)
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
    surrogate_step,
    train,
)
from .rng import substream


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# settings tables
# ---------------------------------------------------------------------------

_COMMON = (
    Row("seed", bounded(integer, lambda v: 0 <= v < 2**64, "in [0, 2**64)"), 0,
        flag=True, help="master seed (overrides config)"),
    Row("threads", bounded(integer, lambda v: v >= 1, ">= 1"), 1,
        flag=True, help="worker threads (env SPECPROJ_THREADS)", env="SPECPROJ_THREADS"),
    Row("out", Path, flag=True, help="output file or directory"),
)

_COUNT = Row("count", integer, 2, flag=True)


def _solver_table(ints: str, floats: str, *more: Row) -> tuple[Row, ...]:
    """``count``, then the solver overrides in key order; an override left
    at None keeps the solver's own default."""
    rows = [Row(k, integer) for k in ints.split()] + [Row(k, number) for k in floats.split()]
    return (_COUNT,) + tuple(sorted(rows + list(more), key=lambda r: r.key))


_GENERATE = {
    "kse": _solver_table("n warmup steps substeps", "length dt nu", Row("vary_nu", boolean)),
    "kolmogorov": _solver_table("n frame_interval t_in t_out",
                                "nu dt init_tau init_alpha init_scale",
                                Row("form", one_of("velocity", "vorticity"))),
    "swe": _solver_table("ny nx", "slope rainfall duration record_interval cell_size manning_n"),
}

_PCNO = Row("pcno", str, flag=True, help="frozen surrogate (diffpcno/refiner)")
_STEPS = Row("steps", integer, 1, flag=True)
_LIMIT_PAIRS = Row("limit_pairs", bounded(integer, lambda v: v >= 0, ">= 0"))  # 0: all pairs

_SURROGATE = (
    Row("epochs", integer, 5), Row("batch", integer, 16), Row("lr", number, 1e-3),
    Row("weight_decay", number, 1e-4), Row("t_in", bounded(integer, lambda v: v >= 1, ">= 1"), 1),
    Row("selector", one_of(*SELECTORS)),  # None: read off the data; fno: always none
    Row("n_layers", integer, 1),
    Row("modes", integers),  # None: min(8, (n + 1) // 2) per axis, read off the grid
    Row("width", integer, 8),
    Row("momentum_padding", integers),  # None: 0 per axis
    Row("wspe_modes", integers), _LIMIT_PAIRS,
)

_CORRECTOR = (  # t_in is the frozen pcno's
    _PCNO, Row("ct_steps", integer, 400), Row("ct_batch", integer, 16), Row("ct_lr", number, 1e-3),
    Row("hidden", integer, 128), Row("emb_dim", integer, 16),
    Row("s0", integer, 10), Row("s1", integer, 1280), _LIMIT_PAIRS,
)

_ALL_METRICS = ("nrmse", "mse", "pearson", "divergence", "momentum", "csi")

# command -> {its positional kind (None if it has none): rows}
_TABLES = {
    "generate": _GENERATE,
    "project": {None: (
        Row("selector", one_of(*SELECTORS), "mass", flag=True, help=" | ".join(SELECTORS)),
        # "-" is how older snapshots record "no container"
        Row("params", lambda t: None if t == "-" else t, flag=True,
            help="model container with kernels"),
    )},
    "train": {"fno": _SURROGATE, "pcno": _SURROGATE, "diffpcno": _CORRECTOR, "refiner": _CORRECTOR},
    "rollout": {None: (_STEPS,)},
    "sample": {None: (_PCNO, _STEPS, Row("time_points", numbers, flag=True,
                                         help="comma list, descending from t_max"))},
    "uncertainty": {None: (_PCNO, _STEPS, Row("n_traj", integer, 50, flag=True))},
    "evaluate": {None: (
        Row("metrics", one_of(*_ALL_METRICS, many=True), ("nrmse", "mse", "pearson"),
            flag=True, help="comma list"),
        Row("thresholds", numbers, (0.05, 0.5), flag=True, help="comma list for csi"),
    )},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_flags(parser: argparse.ArgumentParser, rows) -> None:
    for r in {r.key: r for r in rows if r.flag}.values():
        parser.add_argument("--" + r.key.replace("_", "-"), default=None, help=r.help)


def _build_parser() -> _Parser:
    p = _Parser(prog="specproj", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    _add_flags(p, _COMMON)
    sub = p.add_subparsers(dest="command", required=True)
    subs = {
        "generate": sub.add_parser("generate", help="write a reference dataset"),
        "project": sub.add_parser("project", help="apply a conservation projection to a field file"),
        "train": sub.add_parser("train", help="train a surrogate or a consistency corrector"),
        "rollout": sub.add_parser("rollout", help="deterministic autoregressive forecast"),
        "sample": sub.add_parser("sample", help="stochastic forecast (one trajectory)"),
        "uncertainty": sub.add_parser("uncertainty", help="ensemble mean/std over stochastic rollouts"),
        "evaluate": sub.add_parser("evaluate", help="metric report for prediction vs truth directories"),
    }
    subs["generate"].add_argument("kind", choices=tuple(_GENERATE))
    subs["project"].add_argument("input", type=str)
    subs["train"].add_argument("dataset", type=str)
    subs["train"].add_argument("kind", choices=tuple(_TABLES["train"]))
    for name, help_ in (("rollout", None), ("sample", "denoiser container"), ("uncertainty", None)):
        subs[name].add_argument("model", type=str, help=help_)
        subs[name].add_argument("init", type=str)
    subs["evaluate"].add_argument("pred", type=str)
    subs["evaluate"].add_argument("truth", type=str)
    for name, tables in _TABLES.items():
        _add_flags(subs[name], [r for rows in tables.values() for r in rows])
    return p


def _need_out(out: Path | None, what: str, file: bool = False) -> Path:
    """--out; for a command that writes one file, its directory must exist
    before any work starts."""
    if out is None:
        raise UsageError(f"--out is required for {what}")
    if file and not out.parent.is_dir():
        raise ContractError(f"output directory {str(out.parent)!r} does not exist")
    return out


def _snapshot(s: dict) -> None:
    """Write the resolved settings next to the outputs in ``--out``."""
    out = s["out"]
    write_snapshot(out / "config.snapshot" if out.is_dir() else Path(str(out) + ".config"), s)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(ns, s: dict) -> int:
    out_dir = _need_out(s["out"], "generate")
    overrides = {r.key: s[r.key] for r in _GENERATE[ns.kind]
                 if r is not _COUNT and s[r.key] is not None}
    generate_dataset(ns.kind, out_dir, s["count"], s["seed"], overrides, threads=s["threads"])
    _snapshot(s)
    print(f"wrote {s['count']} {ns.kind} trajectories to {out_dir}")
    return 0


def cmd_project(ns, s: dict) -> int:
    out_path = _need_out(s["out"], "project", file=True)
    selector = s["selector"]
    if selector in ("momentum", "both") and not s["params"]:
        raise ContractError(f"selector {selector} needs --params (a model with a momentum kernel)")
    x = fldio.read_fld(ns.input)
    proj = ProjectionParams()
    if s["params"]:
        model = load_model(s["params"])[0]
        if x.ndim - 1 != model.hyper.ndim:
            raise ContractError(f"{ns.input}: {x.ndim - 1} grid axes, the model "
                                f"{s['params']} needs {model.hyper.ndim}")
        proj = model.projection()
    out, _ = compose_forward(x[None], selector, proj)
    fldio.write_array(out_path, out[0])
    _snapshot(s)
    return 0


def cmd_train(ns, s: dict) -> int:
    out_path = _need_out(s["out"], "train", file=True)
    surrogate = ns.kind in ("fno", "pcno")
    if surrogate:
        t_in = s["t_in"]
    else:
        # consistency correctors need a frozen deterministic model, whose
        # input window they share
        if not s["pcno"]:
            raise UsageError(f"{ns.kind} training requires --pcno (frozen surrogate)")
        pcno, _ = load_model(s["pcno"])
        t_in = pcno.hyper.in_channels // pcno.hyper.out_channels
    _, _, trajs = load_dataset(ns.dataset)
    inputs, targets = markov_pairs(trajs, t_in=t_in)
    if s["limit_pairs"]:
        inputs, targets = inputs[: s["limit_pairs"]], targets[: s["limit_pairs"]]
    spatial = inputs.shape[2:]
    field_ch = targets.shape[1]

    if surrogate:
        if ns.kind == "fno":
            s["selector"] = "none"
        elif s["selector"] is None:  # the mass stage needs one channel per axis
            mass_ok = len(spatial) in (2, 3) and field_ch == len(spatial)
            s["selector"] = "mass" if mass_ok else "momentum"
        s["modes"] = s["modes"] or tuple(min(8, (n + 1) // 2) for n in spatial)
        pad = s["momentum_padding"] = s["momentum_padding"] or (0,) * len(spatial)
        hyper = FnoHyper(
            n_layers=s["n_layers"], modes=s["modes"], width=s["width"],
            in_channels=inputs.shape[1], out_channels=field_ch,
            selector=s["selector"], wspe_modes=s["wspe_modes"],
            momentum_padding=pad if s["selector"] in ("momentum", "both") else None,
        )
        tcfg = TrainConfig(epochs=s["epochs"], batch=s["batch"], lr=s["lr"],
                           weight_decay=s["weight_decay"], seed=s["seed"])
        # the initial set goes straight in: train works on its own copy
        params, curve = train(init_params(hyper, spatial, substream(s["seed"], "train/init")),
                              inputs, targets, tcfg)
        save_model(out_path, params)
    else:
        u_hat = np.concatenate([pcno_forward_batch(pcno, inputs[b : b + 64], tape=False)[0]
                                for b in range(0, inputs.shape[0], 64)])
        del pcno  # only its forecast and its t_in are used from here on
        # the corrector noises the residual around the frozen forecast, the
        # refiner the state itself; both are conditioned on (u_t, u_hat)
        kind = "residual" if ns.kind == "diffpcno" else "state"
        fit_on = (targets - u_hat) if kind == "residual" else targets
        normalizer = RangeNormalizer.fit(fit_on)
        hyper = DenoiserHyper(field_shape=targets.shape[1:],
                              cond_shape=(inputs.shape[1] + field_ch,) + spatial,
                              hidden=s["hidden"], emb_dim=s["emb_dim"])
        ct_cfg = CtConfig(steps=s["ct_steps"], batch=s["ct_batch"], lr=s["ct_lr"],
                          s0=s["s0"], s1=s["s1"], seed=s["seed"])
        den, curve = train_ct(ToyDenoiser.init(hyper, substream(s["seed"], "ct/init")),
                              normalizer.forward(fit_on),
                              np.concatenate([inputs, u_hat], axis=1), ct_cfg)
        save_denoiser(out_path, DenoiserBundle(den, normalizer, kind=kind),
                      extra={"pcno": s["pcno"]})
    _write_curve(Path(str(out_path) + ".loss.csv"), curve)
    _snapshot(s)
    print(f"trained {ns.kind} ({len(curve)} steps) -> {out_path}")
    return 0


def _write_curve(path: Path, curve) -> None:
    lines = ["step,loss,lr"] + [f"{s},{l!r},{r!r}" for s, l, r in curve]
    path.write_text("\n".join(lines) + "\n")


def _load_init(path: str, hyper: FnoHyper) -> np.ndarray:
    """The model's input window. A frame file is the window as it is; a
    trajectory (C, T, *spatial) such as ``generate`` writes gives its first
    t_in = in_channels // out_channels frames, stacked oldest first as
    ``markov_pairs`` stacks them."""
    u = fldio.read_fld(path)
    if u.ndim == hyper.ndim + 2:
        t_in = hyper.in_channels // hyper.out_channels
        if u.shape[1] < t_in:
            raise ContractError(f"{path}: {u.shape[1]} frames, the model needs t_in = {t_in}")
        frames = np.moveaxis(u[:, :t_in], 1, 0)
        return frames.reshape((-1,) + frames.shape[2:])
    if u.ndim == hyper.ndim + 1:
        return u
    raise ContractError(f"{path}: {u.ndim - 1} grid axes, the model needs "
                        f"{hyper.ndim} (a frame) or {hyper.ndim + 1} (a trajectory)")


def _surrogate_forecast(params, init_path: str):
    """``(step, window)`` for the surrogate's deterministic forward pass."""
    return surrogate_step(params), _load_init(init_path, params.hyper)


def _forecast(model_path: str, init_path: str, pcno_path: str | None,
              time_points: tuple[float, ...] | None = None):
    """``(step, window)`` for ``sample`` and ``uncertainty``. A surrogate
    container steps by its forward pass, so ``sample`` on it gives the frames
    ``rollout`` gives; it takes no frozen surrogate and no time points. A
    denoiser container steps by ``diffpcno_step`` over its frozen surrogate,
    from --pcno or the path recorded at training."""
    if fldio.read_model_header(model_path).get("model_kind") != "denoiser":
        given = [name for name, v in (("--pcno", pcno_path), ("time points", time_points)) if v]
        if given:
            raise ContractError(f"{model_path} is a surrogate, which takes no "
                                f"{' or '.join(given)}: they apply to a denoiser container")
        return _surrogate_forecast(load_model(model_path)[0], init_path)
    bundle, header = load_denoiser(model_path)
    if time_points:
        bundle = replace(bundle, time_points=time_points)
    pcno_path = pcno_path or header.get("pcno")
    if not pcno_path:
        raise UsageError("stochastic commands need --pcno (frozen surrogate)")
    pcno, _ = load_model(pcno_path)
    window = _load_init(init_path, pcno.hyper)
    return (lambda ws, rngs: diffpcno_step(pcno, bundle, ws, rngs)), window


def _write_forecast(out_path: Path, step, window: np.ndarray, steps: int, rngs=None) -> None:
    """One trajectory from ``window``, written as (C, steps, *spatial)."""
    frames = np.concatenate(list(rollout(step, window[None], steps, rngs)))
    fldio.write_array(out_path, np.moveaxis(frames, 0, 1))


def cmd_rollout(ns, s: dict) -> int:
    out_path = _need_out(s["out"], "rollout", file=True)
    _write_forecast(out_path, *_surrogate_forecast(load_model(ns.model)[0], ns.init), s["steps"])
    _snapshot(s)
    return 0


def cmd_sample(ns, s: dict) -> int:
    out_path = _need_out(s["out"], "sample", file=True)
    step, window = _forecast(ns.model, ns.init, s["pcno"], s["time_points"])
    _write_forecast(out_path, step, window, s["steps"], [substream(s["seed"], "sample/0")])
    _snapshot(s)
    return 0


def cmd_uncertainty(ns, s: dict) -> int:
    out_dir = _need_out(s["out"], "uncertainty")
    step, window = _forecast(ns.model, ns.init, s["pcno"])
    mean, std = uncertainty_ensemble(step, window, s["steps"], n_traj=s["n_traj"], seed=s["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    fldio.write_array(out_dir / "mean.fld", np.moveaxis(mean, 1, 0))
    fldio.write_array(out_dir / "std.fld", np.moveaxis(std, 1, 0))
    _snapshot(s)
    return 0


def cmd_evaluate(ns, s: dict) -> int:
    out_dir = _need_out(s["out"], "evaluate")
    wanted, thresholds = s["metrics"], s["thresholds"]
    pred_dir, truth_dir = Path(ns.pred), Path(ns.truth)
    truth_files = sorted(truth_dir.glob("traj_*.fld"))
    if not truth_files:
        raise ContractError(f"no traj_*.fld files in {truth_dir}")
    pairs = []
    for tf in truth_files:
        pf = pred_dir / tf.name
        if not pf.exists():
            raise ContractError(f"prediction missing for trajectory {tf.name}")
        pairs.append((fldio.read_fld(pf), fldio.read_fld(tf)))

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
            report.add("divergence", float(np.mean([divergence_loss(p) for p in preds])))
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
    _snapshot(s)
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
    ns = _build_parser().parse_args(argv)
    kind = getattr(ns, "kind", None)
    s = {"command": f"{ns.command} {kind}" if kind else ns.command, "args": " ".join(argv)}
    tables = _TABLES[ns.command]
    # the setting flags of every kind of the command; resolve rejects a given
    # one that the chosen kind's table lacks
    flags = {r.key: getattr(ns, r.key)
             for rows in (_COMMON, *tables.values()) for r in rows if r.flag}
    s.update(resolve(_COMMON + tables[kind], flags, load_config(ns.config) if ns.config else {}))
    return _COMMANDS[ns.command](ns, s)


def _pin_blas_threads() -> None:
    """One BLAS thread, so a batched matrix product (the denoiser's) rounds
    the same whatever OPENBLAS_NUM_THREADS says. NumPy's bundled OpenBLAS
    exports the setter; another BLAS is left as it is."""
    try:  # the library NumPy links, and through it the BLAS it loaded
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    _pin_blas_threads()
    try:
        return run(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (ContractError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
