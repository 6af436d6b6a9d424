"""What a training or inference path keeps alive, traced with ``tracemalloc``:
one tape per training step, one gradient set per consistency step, a
tape-free inference forward, and a tape that serves one backward."""

import tracemalloc

import numpy as np
import pytest

from specproj.consistency import CtConfig, DenoiserHyper, ToyDenoiser, train_ct
from specproj.errors import ContractError
from specproj.projection import SELECTORS
from specproj.rng import substream
from specproj.surrogate import (
    FnoHyper,
    TrainConfig,
    fno_backward_batch,
    fno_forward_batch,
    init_params,
    pcno_backward_batch,
    pcno_forward_batch,
    train,
)


def _traced(fn):
    """(result, bytes still held after the call, peak bytes during it), both
    traced above what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - base, peak - base
    finally:
        tracemalloc.stop()


def _pcno_2d(n_layers=2, width=8, n=16, selector="both"):
    """A two-channel model (``both`` by default) and a batch of 8 inputs and
    targets."""
    hyper = FnoHyper(n_layers=n_layers, modes=(4, 4), width=width, in_channels=2,
                     out_channels=2, selector=selector, wspe_modes=(4, 4), momentum_padding=(0, 0))
    params = init_params(hyper, (n, n), substream(0, "memory/init"))
    rng = np.random.default_rng(1)
    return params, rng.standard_normal((8, 2, n, n)), rng.standard_normal((8, 2, n, n))


def test_train_holds_one_tape_whatever_the_step_count():
    params, x, y = _pcno_2d()
    pcno_forward_batch(params, x)  # fill the mode-grid cache first
    _, tape_size, _ = _traced(lambda: pcno_forward_batch(params, x))
    peak = {}
    for epochs in (1, 4):  # one batch of 8 per epoch
        cfg = TrainConfig(epochs=epochs, batch=8, lr=1e-3)
        _, _, peak[epochs] = _traced(lambda: train(params, x, y, cfg))
    assert peak[4] - peak[1] <= 0.1 * tape_size


def test_train_ct_holds_one_gradient_set_whatever_the_step_count():
    hyper = DenoiserHyper(field_shape=(2, 8, 8), cond_shape=(4, 8, 8), hidden=64, emb_dim=8)
    den = ToyDenoiser.init(hyper, substream(0, "memory/ct"))
    rng = np.random.default_rng(2)
    x, cond = rng.standard_normal((8, 2, 8, 8)), rng.standard_normal((8, 4, 8, 8))
    grad_set = sum(a.nbytes for a in den.arrays.values())
    peak = {}
    for steps in (1, 4):
        cfg = CtConfig(steps=steps, batch=4, s0=2, s1=10)
        _, _, peak[steps] = _traced(lambda: train_ct(den, x, cond, cfg))
    assert peak[4] - peak[1] <= 0.1 * grad_set


@pytest.mark.parametrize("selector", SELECTORS)
def test_tape_free_forward_has_the_taped_bytes_at_under_half_the_peak(selector):
    # fields of 8 * 16 * 32^2 values: above the block erf works in, whose
    # transients would otherwise dominate both peaks
    params, x, _ = _pcno_2d(n_layers=4, width=16, n=32, selector=selector)
    pcno_forward_batch(params, x)  # fill the caches first
    (taped, tape), _, taped_peak = _traced(lambda: pcno_forward_batch(params, x))
    (free, none), _, free_peak = _traced(lambda: pcno_forward_batch(params, x, tape=False))
    assert tape and none is None
    assert free.tobytes() == taped.tobytes()
    assert free_peak < 0.5 * taped_peak


def test_a_tape_serves_one_backward():
    params, x, y = _pcno_2d()
    out, tape = pcno_forward_batch(params, x)
    pcno_backward_batch(params, tape, out - y)
    assert tape == {}
    with pytest.raises(ContractError, match="empty tape"):
        pcno_backward_batch(params, tape, out - y)
    with pytest.raises(ContractError, match="empty tape"):
        pcno_backward_batch(params, pcno_forward_batch(params, x, tape=False)[1], out - y)
    out, tape = fno_forward_batch(params, x)
    fno_backward_batch(params, tape, out)
    with pytest.raises(ContractError, match="empty tape"):
        fno_backward_batch(params, tape, out)
