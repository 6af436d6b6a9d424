from .params import FnoHyper, FnoParams, check_grid, init_params, load_model, save_model
from .fno import fno_forward_batch, fno_backward_batch, loss_relative_mse, loss_relative_mse_grad
from .train import TrainConfig, markov_pairs, rollout, surrogate_step, train

__all__ = [
    "FnoHyper",
    "FnoParams",
    "TrainConfig",
    "check_grid",
    "fno_forward_batch",
    "fno_backward_batch",
    "init_params",
    "load_model",
    "loss_relative_mse",
    "loss_relative_mse_grad",
    "markov_pairs",
    "rollout",
    "save_model",
    "surrogate_step",
    "train",
]
