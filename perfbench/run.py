#!/usr/bin/env python3
"""Benchmark of the specproj command line, driven from outside as a user would.

    python3 perfbench/run.py --workload {datagen,train,forecast} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

One single-threaded closed-loop client starts each command as a fresh
``python -m specproj.cli`` process only after the previous one has ended.
Every command gets ``--threads 1`` and one BLAS/OpenMP thread.

A run sets the workload up several times (``setup_s`` is the median; the
set-ups must be byte-identical), then runs rounds -- one pass of the
workload's commands each, same inputs every time -- for about ``--seconds``
seconds and at least two rounds. Timings are medians over rounds. Every
output is parsed, checked, and its sha256 must match the first round's.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced rounds with rounds whose commands run under ``traced_cli.py``, and
prints the per-layer metrics plus the tracing overhead. The last line of
standard output is the JSON result; the full record (environment, every
round, output digests) is written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy

import tracing
from outputs import OutputError, check_file
from workloads import SIZES, WORKLOADS, Command

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COMMAND_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STAGES = ("stage1", "stage2", "stage3")


class SetupFailed(Exception):
    pass


@dataclass
class CommandResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    trace: dict | None = None


@dataclass
class Round:
    index: int
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    stages: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


def child_env() -> dict[str, str]:
    # One BLAS thread: on two cores a second one made no command faster and
    # doubled the run-to-run spread of the timings.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


class Client:
    """Closed loop: one child process at a time, waited for with its rusage."""

    def __init__(self, work: Path, env: dict[str, str]):
        self.work = work
        self.env = env
        self.started = 0
        (work / "logs").mkdir(parents=True)

    def run(self, cli_args, traced: bool = False, run_id: str = "") -> CommandResult:
        self.started += 1
        log = self.work / "logs" / f"{self.started:05d}.log"
        if traced:
            summary = self.work / "logs" / f"{self.started:05d}.trace.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(summary), run_id, "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "specproj.cli", *cli_args]
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = CommandResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                               proc.returncode)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            print(f"command failed ({proc.returncode}): specproj {' '.join(cli_args)}: {' | '.join(tail)}",
                  file=sys.stderr)
        elif traced:
            result.trace = json.loads(summary.read_text())
        return result


def output_files(work: Path, out: str) -> list[Path]:
    """The --out file or directory tree, plus sidecars named ``<out>.*``."""
    base = work / out
    if base.is_dir():
        files = [p for p in base.rglob("*") if p.is_file()]
    else:
        files = [base] if base.exists() else []
    files += [p for p in base.parent.glob(base.name + ".*") if p.is_file()]
    return sorted(files)


def check_outputs(work: Path, cmd: Command) -> tuple[dict[str, str], list[str]]:
    """sha256 per output file, and what is wrong with the outputs."""
    digests, errors = {}, []
    files = output_files(work, cmd.out)
    if not files:
        return digests, [f"{cmd.out}: no output"]
    try:
        for f in files:
            digests[str(f.relative_to(work))] = check_file(f)
        if cmd.check is not None:
            cmd.check(work / cmd.out)
    except (OutputError, ValueError, OSError) as e:
        errors.append(f"{cmd.out}: {e}")
    return digests, errors


def tree_digests(work: Path, dirs) -> dict[str, str]:
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for d in dirs for p in sorted((work / d).rglob("*")) if p.is_file()}


def combined_digest(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def run_setups(workload, size, seed, work: Path, client: Client):
    """Set the workload up ``size['setups']`` times; return the times, what
    is wrong with the set-up outputs, and their digests."""
    times, errors, reference = [], [], None
    done: list[Command] = []

    def run(cmd: Command) -> None:
        if client.run(cmd.argv).returncode != 0:
            raise SetupFailed(f"set-up command failed: specproj {' '.join(cmd.argv)}")
        done.append(cmd)

    for _ in range(size["setups"]):
        for d in ("cfg", "setup"):
            shutil.rmtree(work / d, ignore_errors=True)
        done.clear()
        start = time.perf_counter()
        if client.run(["--help"]).returncode != 0:
            raise SetupFailed("`python -m specproj.cli --help` failed")
        workload.setup(work, seed, size, run)
        times.append(time.perf_counter() - start)
        for cmd in done:
            errors.extend(check_outputs(work, cmd)[1])
        digests = tree_digests(work, ("cfg", "setup"))
        if reference is None:
            reference = digests
        elif digests != reference:
            errors.append("set-up outputs differ between identical set-ups")
    return times, errors, reference


def run_round(index: int, traced: bool, cmds: list[Command], workload, work: Path,
              client: Client) -> Round:
    rnd = Round(index, traced)
    shutil.rmtree(work / "out", ignore_errors=True)
    for d in ("out",) + workload.round_dirs:
        (work / d).mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results = []
    for i, cmd in enumerate(cmds):
        res = client.run(cmd.argv, traced=traced, run_id=f"round{index}/cmd{i}")
        results.append(res)
        rnd.cpu_s += res.cpu_s
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, res.rss_mb)
        if cmd.stage:
            rnd.stages[cmd.stage] += res.wall_s
    rnd.wall_s = time.perf_counter() - start
    for cmd, res in zip(cmds, results):
        errors = [f"{cmd.out}: exit code {res.returncode}"] if res.returncode != 0 else []
        if not errors:
            digests, errors = check_outputs(work, cmd)
            rnd.digests.update(digests)
        if res.trace is not None:
            rnd.traces.append(res.trace)
        if errors:
            rnd.failed += 1
            rnd.errors.extend(errors)
    return rnd


def layer_metrics(rnd: Round) -> dict[str, float]:
    """Per-layer totals over the commands of one traced round."""
    values: dict[str, float] = {}
    for layer, _, attr in tracing.TARGETS:
        name = tracing.span_name(layer, attr)
        values[f"{name}.calls"] = 0
        values[f"{name}.self_s"] = 0.0
    for name in tracing.BYTE_COUNTED:
        values[f"{name}.bytes"] = 0
    for trace in rnd.traces:
        for name, entry in trace["layers"].items():
            values[f"{name}.calls"] += entry["calls"]
            values[f"{name}.self_s"] += entry["self_s"]
        for name, nbytes in trace["bytes"].items():
            values[f"{name}.bytes"] += nbytes
    values["cli.import_s"] = median(t["import_s"] for t in rnd.traces)
    return values


def layer_unit(name: str) -> str:
    return {"calls": "count", "bytes": "B"}.get(name.rsplit(".", 1)[1], "s")


def environment(env: dict[str, str]) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "thread_env": {var: env[var] for var in THREAD_VARS},
        "cli_threads": 1,
        "git_revision": git_revision(),
        "src_specproj_lines": sum(len(p.read_bytes().splitlines())
                                  for p in (ROOT / "src" / "specproj").rglob("*.py")),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)
    # a terminated run still stops and reaps its current command (Client.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "specproj" / "cli.py").is_file():
        print(f"error: no specproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = child_env()
    client = Client(work, env)
    try:
        try:
            setup_times, setup_errors, setup_digests = run_setups(workload, size, args.seed, work, client)
        except SetupFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        setup_commands = client.started
        cmds = workload.round(args.seed, size)
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(len(rounds), traced, cmds, workload, work, client))
            longest = max(r.wall_s for r in rounds[-2:])
            if len(rounds) >= size["min_rounds"] and time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = rounds[0].digests
    for rnd in rounds[1:]:
        if rnd.digests != reference:
            changed = sorted(k for k in set(rnd.digests) | set(reference)
                             if rnd.digests.get(k) != reference.get(k))
            rnd.errors.append(f"outputs differ from round 0: {', '.join(changed)}")
            rnd.failed = max(rnd.failed, 1)
    attempted = client.started
    failed = sum(r.failed for r in rounds) + (1 if setup_errors else 0)
    plain = [r for r in rounds if not r.traced]

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        traced_rounds = [r for r in rounds if r.traced]
        per_round = [layer_metrics(r) for r in traced_rounds if r.traces]
        if per_round:
            for name in per_round[0]:
                metrics[name] = (median(v[name] for v in per_round), layer_unit(name))
        metrics["trace_overhead_s"] = (median(r.wall_s for r in traced_rounds)
                                       - median(r.wall_s for r in plain), "s")
    else:
        metrics["wall_s"] = (median(r.wall_s for r in plain), "s")
        metrics["cpu_s"] = (median(r.cpu_s for r in plain), "s")
        metrics["setup_s"] = (median(setup_times), "s")
        metrics["peak_rss_mb"] = (median(r.peak_rss_mb for r in plain), "MB")
        for stage in STAGES:
            metrics[f"{stage}_s"] = (median(r.stages[stage] for r in plain), "s")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    errors = setup_errors + [e for r in rounds for e in r.errors]
    correct = failed == 0 and not missing
    better = {m["name"]: m["better"] for m in wanted}
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "stages": dict(zip(STAGES, workload.stages)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": errors,
        "setup": {"commands": setup_commands, "times_s": setup_times, "digests": setup_digests},
        "rounds": [{"index": r.index, "traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "peak_rss_mb": r.peak_rss_mb, "stages_s": r.stages, "failed": r.failed}
                   for r in rounds],
        "round_commands": len(cmds),
        "output_digests": reference,
        "output_digest": combined_digest(reference),
        "metrics": {name: {"value": value, "unit": unit, "better": better.get(name)}
                    for name, (value, unit) in metrics.items()},
        "environment": environment(env),
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} size={args.size} seed={args.seed} trace={args.trace}: "
          f"{len(setup_times)} set-ups, {len(plain)} untraced + {len(rounds) - len(plain)} traced rounds")
    for name, (value, unit) in metrics.items():
        label = workload.stages[STAGES.index(name[:-2])] if name[:-2] in STAGES else ""
        print(f"  {name:48s} {value:14.6f} {unit:5s} {better.get(name) or '':6s} {label}")
    print(f"  fail_ratio = {failed}/{attempted} commands = {failed / attempted:.4f}")
    print(f"  output digest {record['output_digest']}")
    for e in errors:
        print(f"  error: {e}")
    if missing:
        print(f"  error: metrics not produced: {', '.join(missing)}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
