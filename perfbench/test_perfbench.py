"""Tests of the benchmark itself: the BENCHMARK.json contract, the span
arithmetic, and a smoke size of every workload run end to end.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outputs
import tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_per_layer_covers_every_traced_function():
    expected = {"cli.import_s", "trace_overhead_s"}
    for layer, _, attr in tracing.TARGETS:
        name = tracing.span_name(layer, attr)
        expected |= {f"{name}.calls", f"{name}.self_s"}
    expected |= {f"{name}.bytes" for name in tracing.BYTE_COUNTED}
    assert {m["name"] for m in SPEC["per_layer"]} == expected


def test_self_time_subtracts_covered_children():
    spans = [
        ("outer", 0.0, 10.0, -1, "r"),
        ("inner", 1.0, 3.0, 0, "r"),
        ("inner", 2.0, 4.0, 0, "r"),  # overlaps the first child: counted once
        ("leaf", 1.5, 2.5, 1, "r"),
        ("inner", 9.0, 12.0, 0, "r"),  # clipped to the parent's end
    ]
    summary = tracing.summarize(spans)
    assert summary["outer"] == {"calls": 1, "self_s": pytest.approx(10.0 - 3.0 - 1.0)}
    assert summary["inner"]["calls"] == 3
    assert summary["inner"]["self_s"] == pytest.approx((2.0 - 1.0) + 2.0 + 3.0)
    assert summary["leaf"] == {"calls": 1, "self_s": pytest.approx(1.0)}


def test_output_checks_reject_bad_files(tmp_path):
    good = np.arange(12.0).reshape(1, 3, 4)
    fld = tmp_path / "a.fld"
    fld.write_bytes(outputs.pack_fld(good))
    assert outputs.check_file(fld) == hashlib.sha256(fld.read_bytes()).hexdigest()
    np.testing.assert_array_equal(outputs.read_fld(fld), good)
    for bad in (outputs.pack_fld(good)[:-8], outputs.pack_fld(np.array([[1.0, np.nan]]))):
        fld.write_bytes(bad)
        with pytest.raises(outputs.OutputError):
            outputs.check_file(fld)
    mdl = tmp_path / "m.mdl"
    block = outputs.pack_fld(good)
    mdl.write_bytes(b"MDL1\nkind = x\nblocks = 1\nw %d\n" % len(block) + block + b"!")
    with pytest.raises(outputs.OutputError):
        outputs.check_file(mdl)
    # u = (sin y, sin x) is divergence-free; u = (sin x, 0) is not
    x = np.arange(16) / 16 * 2 * np.pi
    xx, yy = np.meshgrid(x, x, indexing="ij")
    assert outputs.divergence(np.stack([np.sin(yy), np.sin(xx)])) < outputs.DIVERGENCE_FLOOR
    assert outputs.divergence(np.stack([np.sin(xx), 0 * xx])) > 1.0


def check_result(result: dict, record: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["errors"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        emitted = result["metrics"][m["name"]]
        assert set(emitted) == {"value", "unit"} and emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert record["metrics"][m["name"]]["better"] == m["better"]
    assert record["fail_ratio"] == 0.0
    assert record["output_digests"] and record["environment"]["src_specproj_lines"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_workload_end_to_end(workload):
    result = result_of(run_bench(workload, 5, 0))
    check_result(result, record_of(workload, 5, 0), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_reports_layers():
    result = result_of(run_bench("train", 5, 1))
    check_result(result, record_of("train", 5, 1), SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["optim.Adam.step.calls"] > 0
    # consistency.training calls sample_index through a `from ... import` name
    assert metrics["consistency.sample_index.calls"] > 0
    assert metrics["consistency.index_weights.calls"] > 0
    assert metrics["projection.momentum_backward.calls"] > 0
    assert metrics["fldio.read_array.bytes"] > 0
    assert metrics["solvers.solve_kolmogorov.calls"] == 0


def test_outputs_replay_byte_for_byte_across_runs():
    result_of(run_bench("datagen", 7, 0))
    first = record_of("datagen", 7, 0)["output_digests"]
    result_of(run_bench("datagen", 7, 0))
    assert record_of("datagen", 7, 0)["output_digests"] == first


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("datagen", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
