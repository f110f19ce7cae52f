"""Desk-scale discrete diffusion with hybrid mask/uniform mixing schedules."""

from .denoiser import (
    Denoiser,
    LogitTable,
    OracleDenoiser,
    ToyDistribution,
    TrainingReport,
    posterior_kl_to_oracle,
    table_train,
)
from .elbo import (
    CLAMP,
    DYNAMIC,
    EXACT,
    NelboEstimate,
    WeightingMode,
    corpus_nelbo,
    is_divergence_pointwise,
    kl_divergence,
    loss_and_grad,
    mdm_loss,
    noise_sequence,
    sequence_nelbo,
    stratified_times,
)
from .metrics import (
    generative_nll,
    self_accuracy,
    tv_distance,
    unigram_entropy,
)
from .sampler import (
    SamplerConfig,
    SelfCorrectConfig,
    SelfCorrectResult,
    adapt_distribution,
    ancestral_sample_batch,
    self_correct,
    self_correct_batch,
)
from .schedule import (
    ConditionalTransition,
    MixingSchedule,
    ScheduleParams,
    Vocab,
    make_schedule,
)

__version__ = "0.1.0"
