"""Cross-modal embedding alignment with CS and generalized CS divergences.

The package is organized around one pipeline: paired embedding batches
(``pmf``) are aligned by projection-matching losses that one log-domain
engine computes from the logits, value and gradient together
(``losses``); the closed-form divergences (``divergence``) check the
values and finite differences (``gradients``) the gradients. It is
exercised end to end on seeded synthetic data (``synth``, ``train``)
with retrieval metrics (``retrieval``). ``props`` holds the randomized
property suite and ``cli`` the command-line interface.
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
    LOSS_KINDS,
    GradientBundle,
    central_difference,
    finite_diff_gradient,
    loss_gradient,
    max_relative_error,
)
from .losses import (
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
from .pmf import (
    AlignConfig,
    EmbeddingBatch,
    MatchMatrix,
    PmfKind,
    PmfMatrix,
    SimilarityMatrix,
    association_pmf,
    build_match_matrix,
    cosine_similarity_matrix,
    true_match_pmf,
)
from .props import run_property_suite
from .retrieval import (
    RetrievalMetrics,
    cosine_scores,
    evaluate_retrieval,
    mean_average_precision,
    precision_at_k,
    precision_at_k_scores,
    rank_gallery,
    top_k_hits,
)
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
    "GradientBundle",
    "HolderCheck",
    "KlConfig",
    "LOSS_KINDS",
    "LossReport",
    "MatchMatrix",
    "MatchStrategy",
    "MmdConfig",
    "ModalityRing",
    "PmfKind",
    "PmfMatrix",
    "RetrievalMetrics",
    "SimilarityMatrix",
    "SynthConfig",
    "TrainConfig",
    "TrainingTrace",
    "ablation_run",
    "association_pmf",
    "association_pmf_count",
    "bimodal_cmpm_cs",
    "build_encoders",
    "build_match_matrix",
    "central_difference",
    "coral_loss",
    "cosine_scores",
    "cosine_similarity_matrix",
    "cs_divergence",
    "evaluate_retrieval",
    "finite_diff_gradient",
    "gcs_divergence",
    "gcs_divergence_unnormalized",
    "gcs_ring_loss",
    "generate_synthetic",
    "holder_check",
    "kl_alignment",
    "loss_gradient",
    "max_relative_error",
    "mean_average_precision",
    "median_bandwidth",
    "mmd_squared",
    "nearest_centroid_accuracy",
    "pairwise_sum_loss",
    "precision_at_k",
    "precision_at_k_scores",
    "rank_gallery",
    "ring_edges",
    "ring_passes",
    "run_property_suite",
    "top_k_hits",
    "train_run",
    "true_match_pmf",
    "validate_pmf_row",
    "__version__",
]
