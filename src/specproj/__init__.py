"""specproj: spectral conservation projections for surrogate forecasting.

Spectral conventions and FLD1 field files, Fourier-space mass/momentum
projections, pseudo-spectral reference solvers, a small hand-differentiated
Fourier-layer surrogate, consistency-model residual correction, and
evaluation metrics.
"""

from .runconfig import one_of

__version__ = "0.1.0"

SELECTORS = ("none", "mass", "momentum", "both")  # projection stages, named without NumPy
SELECTOR = one_of(*SELECTORS)  # the parser of a selector setting or header line
