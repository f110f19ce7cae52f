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
    LossBreakdown,
    NelboEstimate,
    WeightingMode,
    is_divergence_pointwise,
    kl_divergence,
    loss_and_grad,
    mdm_loss,
    noise_sequence,
    per_token_loss,
    per_token_loss_grad,
    sequence_nelbo,
    stratified_times,
)
from .metrics import (
    MetricsReport,
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
    ancestral_sample,
    ancestral_sample_batch,
    denoise_step,
    self_correct,
)
from .schedule import (
    ConditionalTransition,
    HybridSchedule,
    MaskOnlySchedule,
    MixingSchedule,
    ScheduleParams,
    Vocab,
    check_prob_vector,
    make_schedule,
)

__version__ = "0.1.0"
