"""The trunk of a projected surrogate on its own, for tests that compare a
model's output with the network output its projection stages start from."""

from dataclasses import replace

from specproj.surrogate import FnoParams


def raw_trunk(params: FnoParams) -> FnoParams:
    """A ``selector = none`` copy of ``params`` without ``momentum_free`` and
    ``w_spe``: its forward is the trunk and head alone. The network arrays
    are shared, not copied."""
    hyper = replace(params.hyper, selector="none", wspe_modes=(), momentum_padding=())
    return FnoParams(hyper, {k: v for k, v in params.arrays.items()
                             if k not in ("momentum_free", "w_spe")})
