"""Pseudo-spectral and finite-volume reference solvers and dataset assembly.

Each solver returns its trajectory as a plain (C, T, *spatial) array (the
KSE and Kolmogorov solvers, which take a batch, a (B, C, T, *spatial) stack
of them);
``generate_dataset`` checks that every trajectory is finite before it
creates the output directory, and writes each as an FLD1 file.
"""

from .kse import KseConfig, KseIntegrator, initial_condition, sample_config, solve_kse
from .kolmogorov import KolmogorovConfig, gaussian_random_vorticity, solve_kolmogorov
from .swe import SweConfig, solve_swe_flood, tilted_dem
from .datasets import generate_dataset, load_dataset, read_manifest, write_manifest

__all__ = [
    "KseConfig",
    "KseIntegrator",
    "KolmogorovConfig",
    "SweConfig",
    "gaussian_random_vorticity",
    "generate_dataset",
    "initial_condition",
    "load_dataset",
    "read_manifest",
    "sample_config",
    "solve_kse",
    "solve_kolmogorov",
    "solve_swe_flood",
    "tilted_dem",
    "write_manifest",
]
