"""Command-line entry point.

Subcommands: generate | project | train | rollout | sample | uncertainty |
evaluate. Global flags: --seed, --config, --threads (the worker threads of
``generate swe``, at most --count and the CPU count), --out.
Each command is listed once, as one row of the command table: its function,
help line, positionals, settings tables and whether --out names a file or a
directory. A settings table's rows (``runconfig.Row``) give the setting
flags, the config keys, the defaults and the snapshot; ``generate`` and
``train`` pick a table by their positional kind. ``run`` alone checks --out
before any work starts, calls the command, writes the resolved settings as
a snapshot next to its outputs and prints the command's line, so every
command is a pure function of (config snapshot, input files, seed).

Before a command runs, the CLI pins BLAS to one thread where NumPy's
bundled OpenBLAS allows it, so outputs do not depend on OPENBLAS_NUM_THREADS
either.

It then sets glibc's allocator policy through ``mallopt``: blocks below
32 MiB come from the heap (M_MMAP_THRESHOLD), and up to 64 MiB of free
memory at the heap top stays mapped (M_TRIM_THRESHOLD). With glibc's
defaults each training step's tape-sized arrays were unmapped or trimmed
when freed and faulted in again by the next step; with the policy the next
step reuses them. It moves memory, not arithmetic, so it changes no output
byte. Off glibc (no ``mallopt`` symbol) it does nothing.

Exit codes: 0 success, 1 usage, 2 data/contract violation (a malformed or
unknown setting included) or I/O error, 3 numerical failure (blow-up,
CFL/timestep underflow, divergence, a forecast that is not finite).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

# NumPy and the numeric layers are imported by the commands that use them,
# so --help, a usage error and a settings error load neither
from . import SELECTOR, SELECTORS
from .errors import ContractError, NumericsError
from .runconfig import (AT_LEAST_0, AT_LEAST_1, EVEN_AT_LEAST_0, NON_NEGATIVE, POSITIVE, SEED, Row,
                        boolean, integer, integers, load_config, number, numbers, one_of, resolve,
                        snapshot_text)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# settings tables
# ---------------------------------------------------------------------------

_COMMON = (
    Row("seed", SEED, 0, flag=True, help="master seed (overrides config)"),
    Row("threads", AT_LEAST_1, 1, flag=True,
        help="generate swe worker threads, at most --count and the CPU count"),
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

_PCNO = Row("pcno", str, flag=True, help="frozen surrogate under the diffpcno corrector")
_STEPS = Row("steps", integer, 1, flag=True)
_LIMIT_PAIRS = Row("limit_pairs", AT_LEAST_0)  # 0: all pairs

_SURROGATE = (
    Row("epochs", AT_LEAST_0, 5), Row("batch", AT_LEAST_1, 16), Row("lr", POSITIVE, 1e-3),
    Row("weight_decay", NON_NEGATIVE, 1e-4),
    Row("t_in", AT_LEAST_1, 1),
    Row("selector", SELECTOR),  # None: read off the data; fno: always none
    Row("n_layers", AT_LEAST_0, 1),
    Row("modes", integers),  # None: min(8, (n + 1) // 2) per axis, read off the grid
    Row("width", AT_LEAST_1, 8),
    Row("momentum_padding", integers),  # None: 0 per axis; only with a momentum stage
    Row("wspe_modes", integers),  # None or empty: no spectral multiplier; only with a mass stage
    _LIMIT_PAIRS,
)

_CORRECTOR = (  # t_in is the frozen pcno's
    _PCNO, Row("ct_steps", AT_LEAST_1, 400), Row("ct_batch", AT_LEAST_1, 16),
    Row("ct_lr", POSITIVE, 1e-3), Row("hidden", AT_LEAST_1, 128),
    Row("emb_dim", EVEN_AT_LEAST_0, 16), Row("s0", AT_LEAST_1, 10), Row("s1", AT_LEAST_1, 1280),
    _LIMIT_PAIRS,
)

_PROJECT = (
    Row("selector", SELECTOR, "mass", flag=True, help=" | ".join(SELECTORS)),
    # "-" is how older snapshots record "no container"
    Row("params", lambda t: None if t == "-" else t, flag=True,
        help="model container with kernels"),
)

_SAMPLE = (_PCNO, _STEPS, Row("time_points", numbers, flag=True,
                              help="comma list, descending from t_max"))
_UNCERTAINTY = (_PCNO, _STEPS, Row("n_traj", integer, 50, flag=True))


def _each(metric, preds: np.ndarray, truths: np.ndarray) -> float:
    import numpy as np
    return float(np.mean([metric(p, t) for p, t in zip(preds, truths)]))


# evaluate's metrics: name -> score(m, preds, truths, thresholds), the report
# entries of one step over all trajectories. Each looks its function up on m,
# the specproj.metrics module, when it runs, so a rebound one is called.
_METRICS = {
    "nrmse": lambda m, p, t, _: {"nrmse": m.nrmse(p, t)},
    "mse": lambda m, p, t, _: {"mse": m.mse(p, t)},
    "pearson": lambda m, p, t, _: {"pearson": _each(m.pearson, p, t)},
    "divergence": lambda m, p, t, _: {"divergence": _each(lambda u, _: m.divergence_loss(u), p, t)},
    "momentum": lambda m, p, t, _: {"momentum": _each(m.momentum_loss, p, t)},
    "csi": lambda m, p, t, gammas: {f"csi_{g}": _each(lambda a, b: m.csi(a, b, g), p, t)
                                    for g in dict.fromkeys(gammas)},  # a repeated one once
}

_EVALUATE = (
    Row("metrics", one_of(*_METRICS, many=True), ("nrmse", "mse", "pearson"),
        flag=True, help="comma list"),
    Row("thresholds", numbers, (0.05, 0.5), flag=True, help="comma list for csi"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_flags(parser: argparse.ArgumentParser, rows) -> None:
    for r in {r.key: r for r in rows if r.flag}.values():
        parser.add_argument("--" + r.key.replace("_", "-"), default=None, help=r.help)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(ns, s: dict) -> str:
    from .solvers import generate_dataset
    overrides = {r.key: s[r.key] for r in _GENERATE[ns.kind]
                 if r is not _COUNT and s[r.key] is not None}
    generate_dataset(ns.kind, s["out"], s["count"], s["seed"], overrides, threads=s["threads"])
    return f"wrote {s['count']} {ns.kind} trajectories to {s['out']}"


def cmd_project(ns, s: dict) -> None:
    from . import fldio
    from .projection import compose_forward
    selector, model_path = s["selector"], s["params"]
    momentum = selector in ("momentum", "both")
    if momentum and not model_path:
        raise ContractError(f"selector {selector} needs --params (a model with a momentum kernel)")
    x = fldio.read_fld(ns.input)
    weights = {}  # the model's, as fno_forward_batch passes them
    if model_path:
        from .surrogate import load_model
        model = load_model(model_path)[0]
        if momentum and "momentum_free" not in model.arrays:
            raise ContractError(f"{model_path}: a selector = {model.hyper.selector} model has "
                                f"no momentum kernel, which selector {selector} needs")
        if x.ndim - 1 != model.hyper.ndim:
            raise ContractError(f"{ns.input}: {x.ndim - 1} grid axes, the model "
                                f"{model_path} needs {model.hyper.ndim}")
        weights = dict(kernel=model.arrays.get("momentum_free"), w_spe=model.arrays.get("w_spe"),
                       padding=model.hyper.momentum_padding)
    with fldio.naming(ns.input):
        out, _ = compose_forward(x[None], selector, **weights)
    fldio.write_array(s["out"], out[0])


def cmd_train(ns, s: dict) -> str:
    import numpy as np
    from .rng import substream
    from .solvers import load_dataset
    from .spectral import corner_mode_axes
    from .surrogate import (FnoHyper, TrainConfig, fno_forward_batch, init_params, load_model,
                            markov_pairs, save_model, train)
    out_path = s["out"]
    surrogate = ns.kind in ("fno", "pcno")
    if surrogate:
        t_in = s["t_in"]
    else:
        # the consistency corrector needs a frozen deterministic model, whose
        # input window it shares
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
    default_modes = tuple(min(8, (n + 1) // 2) for n in spatial)  # fits every grid

    if surrogate:
        if ns.kind == "fno":
            s["selector"] = "none"
        elif s["selector"] is None:  # the mass stage needs one channel per axis
            mass_ok = len(spatial) in (2, 3) and field_ch == len(spatial)
            s["selector"] = "mass" if mass_ok else "momentum"
        s["modes"] = s["modes"] or default_modes
        momentum = s["selector"] in ("momentum", "both")
        if s["wspe_modes"] and s["selector"] not in ("mass", "both"):
            raise ContractError(f"wspe_modes is set, but selector {s['selector']} "
                                f"has no mass stage")
        # a zero padding pads nothing, and older snapshots record one for every model
        if any(s["momentum_padding"] or ()) and not momentum:
            raise ContractError(f"momentum_padding is set, but selector {s['selector']} "
                                f"has no momentum stage")
        if momentum:
            s["momentum_padding"] = s["momentum_padding"] or (0,) * len(spatial)
        for key in ("modes", "wspe_modes"):
            if s[key]:  # init_params would refuse them without naming the setting
                try:
                    corner_mode_axes(spatial, s[key])
                except ContractError as e:
                    raise ContractError(f"{ns.dataset}: {key} = {','.join(map(str, s[key]))} does "
                                        f"not fit its {'x'.join(map(str, spatial))} grid ({e})")
        hyper = FnoHyper(
            n_layers=s["n_layers"], modes=s["modes"], width=s["width"],
            in_channels=inputs.shape[1], out_channels=field_ch,
            selector=s["selector"], wspe_modes=s["wspe_modes"] or (),
            momentum_padding=s["momentum_padding"] if momentum else (),
        )
        tcfg = TrainConfig(epochs=s["epochs"], batch=s["batch"], lr=s["lr"],
                           weight_decay=s["weight_decay"], seed=s["seed"])
        # the initial set goes straight in: train works on its own copy
        params, curve = train(init_params(hyper, spatial, substream(s["seed"], "train/init")),
                              inputs, targets, tcfg)
        save_model(out_path, params)
    else:
        from .consistency import (CtConfig, DenoiserBundle, DenoiserHyper, RangeNormalizer,
                                  ToyDenoiser, save_denoiser, train_ct)
        u_hat = np.concatenate([fno_forward_batch(pcno, inputs[b : b + 64], tape=False)[0]
                                for b in range(0, inputs.shape[0], 64)])
        del pcno  # only its forecast and its t_in are used from here on
        # the corrector noises the residual around the frozen forecast,
        # conditioned on (u_t, u_hat)
        residual = targets - u_hat
        normalizer = RangeNormalizer.fit(residual)
        hyper = DenoiserHyper(channels=field_ch, cond_channels=inputs.shape[1] + field_ch,
                              modes=default_modes, hidden=s["hidden"], emb_dim=s["emb_dim"])
        ct_cfg = CtConfig(steps=s["ct_steps"], batch=s["ct_batch"], lr=s["ct_lr"],
                          s0=s["s0"], s1=s["s1"], seed=s["seed"])
        den, curve = train_ct(ToyDenoiser.init(hyper, substream(s["seed"], "ct/init")),
                              normalizer.forward(residual),
                              np.concatenate([inputs, u_hat], axis=1), ct_cfg)
        save_denoiser(out_path, DenoiserBundle(den, normalizer), extra={"pcno": s["pcno"]})
    _write_curve(Path(str(out_path) + ".loss.csv"), curve)
    return f"trained {ns.kind} ({len(curve)} steps) -> {out_path}"


def _write_curve(path: Path, curve) -> None:
    lines = ["step,loss,lr"] + [f"{s},{l!r},{r!r}" for s, l, r in curve]
    path.write_text("\n".join(lines) + "\n")


def _load_init(path: str, model_path: str, hyper: FnoHyper, den_path: str | None = None,
               den_hyper=None) -> np.ndarray:
    """The model's input window. A frame file is the window as it is; a
    trajectory (C, T, *spatial) such as ``generate`` writes gives its first
    t_in = in_channels // out_channels frames, stacked oldest first as
    ``markov_pairs`` stacks them. A window whose channels or grid the model,
    or the denoiser over it, cannot take is refused naming both files."""
    import numpy as np
    from . import fldio
    from .spectral import corner_mode_axes
    from .surrogate import check_grid
    u = fldio.read_fld(path)
    if u.ndim == hyper.ndim + 2:
        t_in = hyper.in_channels // hyper.out_channels
        if u.shape[1] < t_in:
            raise ContractError(f"{path}: {u.shape[1]} frames, the model needs t_in = {t_in}")
        frames = np.moveaxis(u[:, :t_in], 1, 0)
        u = frames.reshape((-1,) + frames.shape[2:])
    elif u.ndim != hyper.ndim + 1:
        raise ContractError(f"{path}: {u.ndim - 1} grid axes, the model needs "
                            f"{hyper.ndim} (a frame) or {hyper.ndim + 1} (a trajectory)")
    grid = u.shape[1:]
    where = f"{path}: {u.shape[0]} channels on a {'x'.join(map(str, grid))} grid"
    try:
        if u.shape[0] != hyper.in_channels:
            raise ContractError(f"it takes {hyper.in_channels} input channels")
        check_grid(hyper, grid)
    except ContractError as e:
        raise ContractError(f"{where} do not fit the model {model_path}: {e}") from None
    if den_hyper is not None:
        try:
            corner_mode_axes(grid, den_hyper.modes)
        except ContractError as e:
            raise ContractError(f"{where} do not fit the denoiser {den_path} over "
                                f"{model_path}: {e}") from None
    return u


def _forecast(model_path: str, init_path: str, pcno_path: str | None,
              time_points: tuple[float, ...] | None = None):
    """``(step, window)`` for ``sample`` and ``uncertainty``: the denoiser
    container steps by ``diffpcno_step`` over its frozen surrogate, from
    --pcno or the path recorded at training."""
    from .consistency import diffpcno_step, load_denoiser
    from .surrogate import load_model
    bundle, header = load_denoiser(model_path)
    if time_points:
        bundle = replace(bundle, time_points=time_points)
    pcno_path = pcno_path or header.get("pcno")
    if not pcno_path:
        raise UsageError("stochastic commands need --pcno (frozen surrogate)")
    pcno, _ = load_model(pcno_path)
    window = _load_init(init_path, pcno_path, pcno.hyper, model_path, bundle.denoiser.hyper)
    return (lambda ws, rngs: diffpcno_step(pcno, bundle, ws, rngs)), window


def _write_forecast(out_path: Path, step, window: np.ndarray, steps: int, rngs=None) -> None:
    """One trajectory from ``window``, written as (C, steps, *spatial)."""
    import numpy as np
    from . import fldio
    from .surrogate import rollout
    frames = np.concatenate(list(rollout(step, window[None], steps, rngs)))
    fldio.write_array(out_path, np.moveaxis(frames, 0, 1))


def cmd_rollout(ns, s: dict) -> None:
    from .surrogate import load_model, surrogate_step
    params = load_model(ns.model)[0]
    window = _load_init(ns.init, ns.model, params.hyper)
    _write_forecast(s["out"], surrogate_step(params), window, s["steps"])


def cmd_sample(ns, s: dict) -> None:
    from .consistency.schedule import check_time_points
    from .rng import substream
    if s["time_points"]:  # checked before any model loads
        try:
            check_time_points(s["time_points"])
        except ContractError as e:
            raise ContractError(f"time_points = {','.join(map(str, s['time_points']))}: "
                                f"{e}") from None
    step, window = _forecast(ns.model, ns.init, s["pcno"], s["time_points"])
    _write_forecast(s["out"], step, window, s["steps"], [substream(s["seed"], "sample/0")])


def cmd_uncertainty(ns, s: dict) -> None:
    import numpy as np
    from . import fldio
    from .consistency import uncertainty_ensemble
    out_dir = s["out"]
    step, window = _forecast(ns.model, ns.init, s["pcno"])
    mean, std = uncertainty_ensemble(step, window, s["steps"], n_traj=s["n_traj"], seed=s["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    fldio.write_array(out_dir / "mean.fld", np.moveaxis(mean, 1, 0))
    fldio.write_array(out_dir / "std.fld", np.moveaxis(std, 1, 0))


def cmd_evaluate(ns, s: dict) -> str:
    import numpy as np
    from . import fldio, metrics
    out_dir, wanted, thresholds = s["out"], s["metrics"], s["thresholds"]
    if "csi" in wanted and not thresholds:
        raise ContractError("metric csi needs at least one threshold, and thresholds is empty")
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
        for path, traj in zip((pf, tf), pairs[-1]):
            fldio.same_layout(path, traj, pairs[0][1])
    report = metrics.MetricReport(meta={"pred": str(pred_dir), "truth": str(truth_dir),
                                        "trajectories": str(len(pairs))})
    n_steps = min(min(p.shape[1], t.shape[1]) for p, t in pairs)
    for step in range(n_steps):
        preds = np.stack([p[:, step] for p, _ in pairs])  # (n_traj, C, *spatial)
        truths = np.stack([t[:, step] for _, t in pairs])
        for name in dict.fromkeys(wanted):
            for key, value in _METRICS[name](metrics, preds, truths, thresholds).items():
                report.add(key, value)
    if "csi" in wanted:
        report.thresholds.update({f"csi_{g}": g for g in thresholds})
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_text(out_dir / "report.txt")
    report.write_csv(out_dir / "report.csv")
    return (out_dir / "report.txt").read_text().rstrip()


class _Command(NamedTuple):
    run: Callable  # (ns, settings) -> the line to print, or None
    help: str
    positionals: str  # a "kind" takes its choices from the tables
    tables: dict  # positional kind (None if the command has none) -> rows
    out_file: bool  # --out names one file, not a directory


_COMMANDS = {
    "generate": _Command(cmd_generate, "write a reference dataset", "kind", _GENERATE, False),
    "project": _Command(cmd_project, "apply a conservation projection to a field file",
                        "input", {None: _PROJECT}, True),
    "train": _Command(cmd_train, "train a surrogate or a consistency corrector", "dataset kind",
                      {"fno": _SURROGATE, "pcno": _SURROGATE, "diffpcno": _CORRECTOR}, True),
    "rollout": _Command(cmd_rollout, "deterministic autoregressive forecast", "model init",
                        {None: (_STEPS,)}, True),
    "sample": _Command(cmd_sample, "stochastic forecast (one trajectory)", "model init",
                       {None: _SAMPLE}, True),
    "uncertainty": _Command(cmd_uncertainty, "ensemble mean/std over stochastic rollouts",
                            "model init", {None: _UNCERTAINTY}, False),
    "evaluate": _Command(cmd_evaluate, "metric report for prediction vs truth directories",
                         "pred truth", {None: _EVALUATE}, False),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="specproj", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", type=str, default=None, help="key = value config file")
    _add_flags(p, _COMMON)
    sub = p.add_subparsers(dest="command", required=True)
    for name, c in _COMMANDS.items():
        sp = sub.add_parser(name, help=c.help)
        for pos in c.positionals.split():
            sp.add_argument(pos, choices=tuple(c.tables) if pos == "kind" else None)
        _add_flags(sp, [r for rows in c.tables.values() for r in rows])
    return p


def run(argv: list[str]) -> int:
    """Check --out and the snapshot lines, run the command (``train`` fills in
    the settings it reads off the data), then write its snapshot and print its line."""
    ns = _build_parser().parse_args(argv)
    c, kind = _COMMANDS[ns.command], getattr(ns, "kind", None)
    s = {"command": f"{ns.command} {kind}" if kind else ns.command, "args": " ".join(argv)}
    # the setting flags of every kind of the command; resolve rejects a given
    # one that the chosen kind's table lacks
    flags = {r.key: getattr(ns, r.key)
             for rows in (_COMMON, *c.tables.values()) for r in rows if r.flag}
    s.update(resolve(_COMMON + c.tables[kind], flags, load_config(ns.config) if ns.config else {}))
    out = s["out"]
    if out is None:
        raise UsageError(f"--out is required for {ns.command}")
    snapshot_text(s)  # a setting its snapshot line cannot hold is refused before any work
    if c.out_file and not out.parent.is_dir():  # checked before any work starts
        raise ContractError(f"output directory {str(out.parent)!r} does not exist")
    _pin_blas_threads()
    _keep_freed_memory()
    line = c.run(ns, s)
    snapshot = Path(str(out) + ".config") if c.out_file else out / "config.snapshot"
    snapshot.write_text(snapshot_text(s))
    if line is not None:
        print(line)
    return 0


def _pin_blas_threads() -> None:
    """One BLAS thread, so a batched matrix product (the denoiser's) rounds
    the same whatever OPENBLAS_NUM_THREADS says. NumPy's bundled OpenBLAS
    exports the setter; another BLAS is left as it is."""
    import ctypes
    import numpy as np
    try:  # the library NumPy links, and through it the BLAS it loaded
        setter = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(1)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


def _keep_freed_memory() -> None:
    """Freed blocks stay in the process for the next allocation: arrays
    below 32 MiB (glibc's own ceiling for its dynamic mmap threshold on
    64-bit) come from the heap, and the heap top is trimmed only past
    64 MiB free (twice that, glibc's own ratio). Either alone leaves the
    churn: the first faults about as often as the defaults, the second
    twice as often. A C library without ``mallopt`` is left as it is."""
    import ctypes
    try:  # the symbols the process already links, the C library's among them
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
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
