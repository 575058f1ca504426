"""Cross-modal embedding alignment with CS and generalized CS divergences.

The package is organized around one pipeline: paired embedding batches
(``pmf``) are aligned by projection-matching losses that one log-domain
engine computes from the logits, value and gradient together
(``losses``); the closed-form divergences (``divergence``) check the
values and finite differences (``gradients``) the gradients. It is
exercised end to end on seeded synthetic data (``synth``, ``train``)
and evaluated by cross-modal retrieval (``retrieval``). ``props`` holds
the randomized property suite and ``cli`` the command-line interface.
"""

from .divergence import (
    DivergenceValue,
    HolderCheck,
    KlConfig,
    MmdConfig,
    coral_loss,
    cs_divergence,
    gcs_divergence,
    gcs_divergence_unnormalized,
    holder_check,
    kl_alignment,
    median_bandwidth,
    mmd_squared,
    validate_pmf_row,
)
from .errors import CsAlignError
from .gradients import (
    central_difference,
    finite_diff_gradient,
    loss_gradient,
    max_relative_error,
)
from .losses import (
    LOSS_KINDS,
    LossReport,
    MatchStrategy,
    ModalityRing,
    association_pmf_count,
    bimodal_cmpm_cs,
    gcs_ring_loss,
    pairwise_sum_loss,
    ring_edges,
    ring_passes,
)
from .pmf import AlignConfig, EmbeddingBatch
from .props import run_property_suite
from .retrieval import top_k_hits
from .synth import SynthConfig, generate_synthetic, nearest_centroid_accuracy
from .train import (
    Adam,
    AblationArm,
    Encoder,
    TrainConfig,
    TrainingTrace,
    ablation_run,
    build_encoders,
    train_run,
)

__version__ = "0.1.0"

__all__ = [
    "AblationArm",
    "Adam",
    "AlignConfig",
    "CsAlignError",
    "DivergenceValue",
    "EmbeddingBatch",
    "Encoder",
    "HolderCheck",
    "KlConfig",
    "LOSS_KINDS",
    "LossReport",
    "MatchStrategy",
    "MmdConfig",
    "ModalityRing",
    "SynthConfig",
    "TrainConfig",
    "TrainingTrace",
    "ablation_run",
    "association_pmf_count",
    "bimodal_cmpm_cs",
    "build_encoders",
    "central_difference",
    "coral_loss",
    "cs_divergence",
    "finite_diff_gradient",
    "gcs_divergence",
    "gcs_divergence_unnormalized",
    "gcs_ring_loss",
    "generate_synthetic",
    "holder_check",
    "kl_alignment",
    "loss_gradient",
    "max_relative_error",
    "median_bandwidth",
    "mmd_squared",
    "nearest_centroid_accuracy",
    "pairwise_sum_loss",
    "ring_edges",
    "ring_passes",
    "run_property_suite",
    "top_k_hits",
    "train_run",
    "validate_pmf_row",
    "__version__",
]
