from .schedule import (
    Curriculum,
    DEFAULT_TIME_POINTS,
    NoiseSchedule,
    curriculum_n,
    default_huber_c,
    index_weights,
    noise_injection_scale,
    sample_index,
    skip_out_coeffs,
    timesteps,
)
from .normalizer import RangeNormalizer
from .denoiser import (
    DenoiserBundle,
    DenoiserHyper,
    ToyDenoiser,
    load_denoiser,
    save_denoiser,
    time_embedding,
)
from .training import (
    CtConfig,
    consistency_pair_loss,
    ct_loss,
    train_ct,
)
from .sampling import (
    diffpcno_step,
    sample_multistep,
    uncertainty_ensemble,
)

__all__ = [
    "Curriculum",
    "CtConfig",
    "DEFAULT_TIME_POINTS",
    "DenoiserBundle",
    "DenoiserHyper",
    "NoiseSchedule",
    "RangeNormalizer",
    "ToyDenoiser",
    "consistency_pair_loss",
    "ct_loss",
    "curriculum_n",
    "default_huber_c",
    "diffpcno_step",
    "index_weights",
    "load_denoiser",
    "noise_injection_scale",
    "sample_index",
    "sample_multistep",
    "save_denoiser",
    "skip_out_coeffs",
    "time_embedding",
    "timesteps",
    "train_ct",
    "uncertainty_ensemble",
]
