"""The three benchmark workloads: what each sets up and what one round runs.

Every workload drives the real CLI with the commands a user would type. Its
set-up makes the inputs the timed rounds read; a round is one pass of the
workload's commands. Each round command belongs to one of three stages
(``stage1_s`` .. ``stage3_s``), or to none when it is timed only as part of
``wall_s``. All seeds come from the one workload seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from outputs import check_depth_dir, check_divergence_free, check_report, check_velocity_dir, pack_fld, read_fld


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``out`` is its --out path, relative to the work
    directory; the outputs are that file or directory plus its sidecars."""

    argv: tuple[str, ...]
    out: str
    stage: str = ""
    check: Callable[[Path], None] | None = None


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def cli(seed: int, label: str, out: str, *args: str, config: str | None = None,
        stage: str = "", check: Callable[[Path], None] | None = None) -> Command:
    argv = ["--threads", "1", "--seed", str(derive_seed(seed, label)), "--out", out]
    if config:
        argv += ["--config", config]
    return Command(tuple(argv) + args, out, stage, check)


def write_config(path: Path, values: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


# Sizes: "full" is the measured benchmark, "smoke" the seconds-long version
# the benchmark's own tests run. The counts of the full size are scaled so a
# round takes 5 to 10 s on two cores while keeping which layer dominates.
SIZES = {
    "full": {
        "setups": 3,
        "min_rounds": 2,
        "kol_datagen": {"n": 64, "dt": 0.001, "frame_interval": 100, "t_in": 1, "t_out": 9},
        "kol_datagen_count": 2,
        "kse": {},
        "kse_count": 2,
        "swe": {"ny": 96, "nx": 96, "duration": 3600, "record_interval": 300, "rainfall": 1e-4},
        "swe_count": 1,
        "kol_data": {"n": 32, "dt": 0.001, "frame_interval": 100, "t_in": 1, "t_out": 9},
        "train_count": 4,
        "pcno_big": {"width": 20, "modes": "12,12", "n_layers": 4, "selector": "both", "epochs": 1},
        "fno_big": {"width": 20, "modes": "12,12", "n_layers": 4, "epochs": 1},
        "ct_train": {"ct_steps": 50},
        "forecast_count": 3,
        "pcno_small": {},
        "ct_forecast": {"ct_steps": 30},
        "steps": 9,
        "uq_steps": 8,
        "n_traj": 30,
    },
    "smoke": {
        "setups": 2,
        "min_rounds": 2,
        "kol_datagen": {"n": 16, "dt": 0.001, "frame_interval": 10, "t_in": 1, "t_out": 2},
        "kol_datagen_count": 1,
        "kse": {"n": 32, "warmup": 4, "steps": 4, "substeps": 2},
        "kse_count": 1,
        "swe": {"ny": 12, "nx": 12, "duration": 600, "record_interval": 300, "rainfall": 1e-4},
        "swe_count": 1,
        "kol_data": {"n": 16, "dt": 0.001, "frame_interval": 10, "t_in": 1, "t_out": 3},
        "train_count": 2,
        "pcno_big": {"width": 4, "modes": "4,4", "n_layers": 1, "selector": "both", "epochs": 1},
        "fno_big": {"width": 4, "modes": "4,4", "n_layers": 1, "epochs": 1},
        "ct_train": {"ct_steps": 4, "hidden": 16},
        "forecast_count": 2,
        "pcno_small": {"width": 4, "modes": "4,4"},
        "ct_forecast": {"ct_steps": 4, "hidden": 16},
        "steps": 3,
        "uq_steps": 2,
        "n_traj": 4,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, str, str]  # what stage1_s .. stage3_s time on this workload
    setup: Callable  # (work dir, seed, size, run) -> None; run(Command) executes one command
    round: Callable  # (seed, size) -> list[Command]
    round_dirs: tuple[str, ...] = ()  # created empty before every round


def _datagen_setup(work: Path, seed: int, size: dict, run) -> None:
    write_config(work / "cfg" / "kol.cfg", size["kol_datagen"])
    write_config(work / "cfg" / "kse.cfg", size["kse"])
    write_config(work / "cfg" / "swe.cfg", size["swe"])


def _datagen_round(seed: int, size: dict) -> list[Command]:
    return [
        cli(seed, "gen/kolmogorov", "out/kol", "generate", "kolmogorov",
            "--count", str(size["kol_datagen_count"]), config="cfg/kol.cfg",
            stage="stage1", check=check_velocity_dir),
        cli(seed, "gen/kse", "out/kse", "generate", "kse", "--count", str(size["kse_count"]),
            config="cfg/kse.cfg", stage="stage2"),
        cli(seed, "gen/swe", "out/swe", "generate", "swe", "--count", str(size["swe_count"]),
            config="cfg/swe.cfg", stage="stage3", check=check_depth_dir),
    ]


def _train_setup(work: Path, seed: int, size: dict, run) -> None:
    write_config(work / "cfg" / "kol.cfg", size["kol_data"])
    write_config(work / "cfg" / "pcno.cfg", size["pcno_big"])
    write_config(work / "cfg" / "fno.cfg", size["fno_big"])
    write_config(work / "cfg" / "ct.cfg", size["ct_train"])
    run(cli(seed, "data", "setup/kol", "generate", "kolmogorov", "--count", str(size["train_count"]),
            config="cfg/kol.cfg", check=check_velocity_dir))


def _train_round(seed: int, size: dict) -> list[Command]:
    return [
        cli(seed, "train/pcno", "out/pcno.mdl", "train", "setup/kol", "pcno",
            config="cfg/pcno.cfg", stage="stage1"),
        cli(seed, "train/diffpcno", "out/diff.mdl", "train", "setup/kol", "diffpcno",
            "--pcno", "out/pcno.mdl", config="cfg/ct.cfg", stage="stage2"),
        cli(seed, "train/fno", "out/fno.mdl", "train", "setup/kol", "fno",
            config="cfg/fno.cfg", stage="stage3"),
    ]


def _forecast_setup(work: Path, seed: int, size: dict, run) -> None:
    write_config(work / "cfg" / "kol.cfg", size["kol_data"])
    write_config(work / "cfg" / "pcno.cfg", size["pcno_small"])
    write_config(work / "cfg" / "ct.cfg", size["ct_forecast"])
    count = size["forecast_count"]
    run(cli(seed, "data", "setup/kol", "generate", "kolmogorov", "--count", str(count),
            config="cfg/kol.cfg", check=check_velocity_dir))
    run(cli(seed, "train/pcno", "setup/pcno.mdl", "train", "setup/kol", "pcno", config="cfg/pcno.cfg"))
    run(cli(seed, "train/diffpcno", "setup/diff.mdl", "train", "setup/kol", "diffpcno",
            "--pcno", "setup/pcno.mdl", config="cfg/ct.cfg"))
    # `project --selector none` copies whole trajectories, so no CLI command
    # extracts a single frame: the benchmark cuts frame 0 (the initial state)
    # and frames 1..steps (the truth the rollouts are scored against).
    for sub in ("init", "truth"):
        (work / "setup" / sub).mkdir()
    for i in range(count):
        name = f"traj_{i:04d}.fld"
        traj = read_fld(work / "setup" / "kol" / name)  # (C, T, x, y)
        (work / "setup" / "init" / name).write_bytes(pack_fld(traj[:, 0]))
        (work / "setup" / "truth" / name).write_bytes(pack_fld(traj[:, 1 : size["steps"] + 1]))


def _forecast_round(seed: int, size: dict) -> list[Command]:
    steps = str(size["steps"])
    names = [f"traj_{i:04d}.fld" for i in range(size["forecast_count"])]
    cmds = [
        cli(seed, f"rollout/{n}", f"out/roll/{n}", "rollout", "setup/pcno.mdl", f"setup/init/{n}",
            "--steps", steps, stage="stage1", check=check_divergence_free)
        for n in names
    ]
    cmds += [
        cli(seed, f"sample/{n}", f"out/samp/{n}", "sample", "setup/diff.mdl", f"setup/init/{n}",
            "--steps", steps, stage="stage2")
        for n in names
    ]
    cmds.append(cli(seed, "uncertainty", "out/uq", "uncertainty", "setup/diff.mdl",
                    f"setup/init/{names[0]}", "--steps", str(size["uq_steps"]),
                    "--n-traj", str(size["n_traj"]), stage="stage3"))
    cmds.append(cli(seed, "evaluate", "out/eval", "evaluate", "out/roll", "setup/truth",
                    "--metrics", "nrmse,mse,pearson,divergence", check=check_report))
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "datagen",
            ("generate kolmogorov", "generate kse", "generate swe"),
            _datagen_setup,
            _datagen_round,
        ),
        Workload(
            "train",
            ("train pcno", "train diffpcno", "train fno"),
            _train_setup,
            _train_round,
        ),
        Workload(
            "forecast",
            ("rollout x trajectories", "sample x trajectories", "uncertainty"),
            _forecast_setup,
            _forecast_round,
            round_dirs=("out/roll", "out/samp"),
        ),
    )
}
