from .params import FnoHyper, FnoParams, init_params, load_model, save_model
from .fno import (
    fno_forward_batch,
    fno_backward_batch,
    loss_relative_mse,
    loss_relative_mse_grad,
    pcno_backward_batch,
    pcno_forward_batch,
)
from .train import TrainConfig, markov_pairs, rollout, surrogate_step, train

__all__ = [
    "FnoHyper",
    "FnoParams",
    "TrainConfig",
    "fno_forward_batch",
    "fno_backward_batch",
    "init_params",
    "load_model",
    "loss_relative_mse",
    "loss_relative_mse_grad",
    "markov_pairs",
    "pcno_backward_batch",
    "pcno_forward_batch",
    "rollout",
    "save_model",
    "surrogate_step",
    "train",
]
