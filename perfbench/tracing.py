"""Layer spans for the traced benchmark run.

The benchmark does not change the program to trace it. Instead, inside one
CLI child process, it replaces each traced public function of a specproj
layer with a wrapper that records a span (name, start, end, parent, run id)
in memory. A name bound with ``from ... import`` lives on in the importing
module, so every module attribute that still refers to the original function
is rebound, and callers find the wrapper wherever they look the name up.

Self time of a span is its duration minus the part of it that its child
spans cover. Per traced function the summary holds the call count, the total
self time and, for the FLD1 I/O functions, the file bytes moved.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

# (layer, module, attribute path) of every traced function
TARGETS = (
    ("cli", "specproj.cli", "main"),
    ("fldio", "specproj.fldio", "read_array"),
    ("fldio", "specproj.fldio", "write_array"),
    ("solvers", "specproj.solvers.kolmogorov", "solve_kolmogorov"),
    ("solvers", "specproj.solvers.kolmogorov", "velocity_from_vorticity_hat"),
    ("solvers", "specproj.solvers.kse", "solve_kse"),
    ("solvers", "specproj.solvers.kse", "KseIntegrator.step"),
    ("solvers", "specproj.solvers.swe", "solve_swe_flood"),
    ("grids", "specproj.grids", "GridSpec.wavenumber_mesh"),
    ("projection", "specproj.projection", "mass_project_forward"),
    ("projection", "specproj.projection", "mass_project_backward"),
    ("projection", "specproj.projection", "momentum_forward"),
    ("projection", "specproj.projection", "momentum_backward"),
    ("surrogate", "specproj.surrogate.fno", "fno_forward_batch"),
    ("surrogate", "specproj.surrogate.fno", "fno_backward_batch"),
    ("surrogate", "specproj.surrogate.params", "load_model"),
    ("optim", "specproj.optim", "Adam.step"),
    ("consistency", "specproj.consistency.denoiser", "ToyDenoiser.forward_batch"),
    ("consistency", "specproj.consistency.denoiser", "ToyDenoiser.backward_batch"),
    ("consistency", "specproj.consistency.denoiser", "load_denoiser"),
    ("consistency", "specproj.consistency.schedule", "sample_index"),
    ("consistency", "specproj.consistency.schedule", "index_weights"),
    ("consistency", "specproj.consistency.sampling", "sample_multistep"),
    ("consistency", "specproj.consistency.sampling", "uncertainty_ensemble"),
    ("metrics", "specproj.metrics", "nrmse"),
    ("metrics", "specproj.metrics", "mse"),
    ("metrics", "specproj.metrics", "pearson"),
    ("metrics", "specproj.metrics", "divergence_loss"),
    ("metrics", "specproj.metrics", "momentum_loss"),
)

# traced functions whose first argument is an FLD1 file path
BYTE_COUNTED = ("fldio.read_array", "fldio.write_array")


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr}"


class Tracer:
    """In-memory span recorder for one CLI run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, str]] = []  # name, start, end, parent, run id
        self.bytes: dict[str, int] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        count_bytes = name in BYTE_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.run_id))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if count_bytes:
                path = args[0] if args else kwargs["path"]
                self.bytes[name] = self.bytes.get(name, 0) + os.path.getsize(path)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace every target with its traced wrapper, at every binding site."""
    for layer, module_name, attr in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(span_name(layer, attr), original)
        setattr(owner, fn_name, wrapped)
        if owner_name:
            continue  # methods are looked up on their class
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("specproj"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count and total self time in seconds."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(children.get(i, []), start, end)
    return out
