"""Trajectory dataset assembly: FLD1 files plus a flat-text manifest.

Every trajectory draws its parameters and initial state from its own RNG
sub-stream keyed by (seed, index), so a file's bytes depend on neither the
count nor the thread count. A Kolmogorov or shallow-water trajectory is one
independent job, and ``threads`` runs the jobs in parallel. A KSE set is one
batched solve of every trajectory: its steps are NumPy call overhead, which
a second thread would not share. The manifest is stanza-per-trajectory
``key = value`` text: the generator's own lines (the sampled parameters,
the conditioning features of the dataset, among them), then every other
field of the config that was solved, each field under its own name once, so
a stanza rebuilds it with ``fldio.from_header``, then the generator
settings that are no config field: KSE ``vary_nu``, and the SWE DEM's
``slope`` and ``dem_noise``. A trajectory is a (C, T, *spatial)
array, written as it is.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from ..errors import ContractError, NumericsError
from .. import fldio
from ..rng import substream
from .kse import initial_condition, sample_config, solve_kse
from .kolmogorov import KolmogorovConfig, solve_kolmogorov
from .swe import SweConfig, solve_swe_flood, tilted_dem

KINDS = ("kse", "kolmogorov", "swe")

DEM_NOISE = 0.05  # std of the white noise on a shallow-water set's tilted DEM


def traj_filename(index: int) -> str:
    return f"traj_{index:04d}.fld"


def write_manifest(path: Path, header: dict, stanzas: list[dict]) -> None:
    lines = []
    for k, v in header.items():
        lines.append(f"{k} = {v}")
    for stanza in stanzas:
        lines.append("")
        for k, v in stanza.items():
            lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")


def read_manifest(path: Path) -> tuple[dict, list[dict]]:
    header: dict[str, str] = {}
    stanzas: list[dict] = []
    current = header
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            if current is not header or header:
                current = {}
                stanzas.append(current)
            continue
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ContractError(f"manifest line without '=': {raw!r}")
        current[key.strip()] = value.strip()
    return header, [s for s in stanzas if s]


def _stanza(index: int, seed: int, lines: dict, cfg) -> dict:
    """``index``, ``file`` and ``seed``, the generator's own ``lines``, then
    each field of the solved ``cfg`` that no line holds under its name (the
    SWE ``dem`` array left out), formatted as ``fldio.header_of`` does."""
    stanza = {"index": index, "file": traj_filename(index), "seed": seed, **lines}
    for field in dataclasses.fields(cfg):
        if field.name != "dem":
            stanza.setdefault(field.name, fldio.format_value(getattr(cfg, field.name)))
    return stanza


def _generate_kse(count: int, seed: int, overrides: dict) -> list[tuple[np.ndarray, dict]]:
    """Each trajectory's config and initial condition from its own
    sub-stream, then one batched solve of all of them."""
    vary_nu = bool(overrides.pop("vary_nu", False))
    cfgs, u0 = [], []
    for index in range(count):
        rng = substream(seed, f"solver/{index}")
        cfgs.append(sample_config(rng, vary_nu=vary_nu, seed=seed, **overrides))
        u0.append(initial_condition(cfgs[-1], rng))
    trajs = solve_kse(cfgs, u0=np.stack(u0))
    return [
        (traj, _stanza(index, seed, {
            "dt": repr(cfg.dt),
            "nu": repr(cfg.nu),
            "warmup": cfg.warmup,
            "steps": cfg.steps,
            "substeps": cfg.substeps,
        }, cfg) | {"vary_nu": fldio.format_value(vary_nu)})
        for index, (traj, cfg) in enumerate(zip(trajs, cfgs))
    ]


def _generate_kolmogorov(index: int, seed: int, overrides: dict) -> tuple[np.ndarray, dict]:
    rng = substream(seed, f"solver/{index}")
    form = overrides.pop("form", "velocity")
    cfg = KolmogorovConfig(seed=seed, **overrides)
    from .kolmogorov import gaussian_random_vorticity

    w0 = gaussian_random_vorticity(cfg, rng)
    w_traj, u_traj = solve_kolmogorov(cfg, w0=w0)
    traj = u_traj if form == "velocity" else w_traj
    stanza = _stanza(index, seed, {
        "nu": repr(cfg.nu),
        "dt": repr(cfg.dt),
        "frame_interval": cfg.frame_interval,
        "steps": cfg.t_in + cfg.t_out,
        "form": form,
        "init_tau": repr(cfg.init_tau),
        "init_alpha": repr(cfg.init_alpha),
    }, cfg)
    return traj, stanza


def _generate_swe(index: int, seed: int, overrides: dict) -> tuple[np.ndarray, dict]:
    rng = substream(seed, f"solver/{index}")
    ny = int(overrides.pop("ny", 24))
    nx = int(overrides.pop("nx", 24))
    slope = float(overrides.pop("slope", 0.005))
    rain = float(overrides.pop("rainfall", 1e-5))
    dem = tilted_dem(ny, nx, slope=slope) + DEM_NOISE * rng.standard_normal((ny, nx))
    cfg = SweConfig(dem=dem, rainfall=rain, **overrides)
    traj = solve_swe_flood(cfg)
    stanza = _stanza(index, seed, {
        "ny": ny,
        "nx": nx,
        "manning_n": repr(cfg.manning_n),
        "rainfall": repr(rain),
        "duration": repr(cfg.duration),
        "steps": traj.shape[1],
    }, cfg)
    stanza["slope"] = fldio.format_value(slope)  # the DEM's recipe
    stanza["dem_noise"] = fldio.format_value(DEM_NOISE)
    return traj, stanza


# one job per trajectory; a KSE set is solved as one batch
_GENERATORS = {
    "kolmogorov": _generate_kolmogorov,
    "swe": _generate_swe,
}


def generate_dataset(
    kind: str,
    out_dir: str | Path,
    count: int,
    seed: int,
    overrides: dict | None = None,
    threads: int = 1,
) -> Path:
    """Write ``count`` trajectories plus a manifest; deterministic per seed.
    ``threads`` runs Kolmogorov and shallow-water jobs in parallel; a KSE set
    is one batched solve whatever it is."""
    if kind not in KINDS:
        raise ContractError(f"unknown dataset kind {kind!r} (choose from {KINDS})")
    if count < 1:
        raise ContractError("count >= 1 required")
    overrides = dict(overrides or {})
    if kind == "kse":
        results = _generate_kse(count, seed, overrides)
    else:
        gen = _GENERATORS[kind]

        def job(i: int):
            return gen(i, seed, dict(overrides))

        if threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(job, range(count)))
        else:
            results = [job(i) for i in range(count)]

    for i, (traj, _) in enumerate(results):
        if not np.all(np.isfinite(traj)):
            raise NumericsError(f"{kind} trajectory {i} is not finite")
    # made only once every trajectory is computed and checked, so a failed
    # run leaves none
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stanzas = []
    for i, (traj, stanza) in enumerate(results):
        fldio.write_array(out / traj_filename(i), traj)
        stanzas.append(stanza)
    write_manifest(out / "manifest", {"kind": kind, "count": count, "seed": seed}, stanzas)
    return out


def load_dataset(path: str | Path) -> tuple[dict, list[dict], list[np.ndarray]]:
    """Read back (header, stanzas, trajectory arrays (T, C, *spatial)). Each
    stanza's ``file`` names a file in the dataset directory, read through
    ``fldio.read_fld``; every trajectory has the first one's channels and
    grid."""
    p = Path(path)
    manifest = p / "manifest"
    header, stanzas = read_manifest(manifest)
    if not stanzas:
        raise ContractError(f"{manifest}: no trajectory stanza")
    trajs = []  # (channels, T, *spatial) as read
    for i, stanza in enumerate(stanzas):
        name = stanza.get("file")
        if name is None:
            raise ContractError(f"{manifest}: stanza {i} has no file line")
        if Path(name).name != name or name in ("", ".", ".."):
            raise ContractError(f"{manifest}: stanza {i} file {name!r} is not a file name "
                                "in the dataset directory")
        trajs.append(fldio.read_fld(p / name))
        fldio.same_layout(p / name, trajs[-1], trajs[0])
    return header, stanzas, [np.moveaxis(a, 0, 1) for a in trajs]  # -> (T, channels, *spatial)
