"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps specproj
functions by module and attribute path; a rename or deletion in ``src``
must fail here rather than break the traced run."""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolve(module_name, attr):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module_name}.{attr}"
        for _, module_name, attr in tracing.TARGETS
        if not callable(_resolve(module_name, attr))
    ]
    assert not missing, f"traced functions no longer in specproj: {missing}"
