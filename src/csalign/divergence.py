"""Closed-form divergence and discrepancy measures on discrete PMFs.

The central quantity is the Cauchy-Schwarz divergence between two PMFs
``p`` and ``q`` over a common support of size ``n``::

    D_cs(p, q) = -log( sum_j p_j q_j / (sqrt(sum_j p_j^2) sqrt(sum_j q_j^2)) )

It is zero iff the PMFs are proportional, and its denominator is lower
bounded by ``1/n`` (Cauchy-Schwarz against the all-ones vector), so no
smoothing constant is ever needed.

``gcs_divergence`` extends this to M distributions through the
generalized Hoelder inequality: the numerator becomes the sum of
M-way products and each norm factor is the M-norm ``(sum_k p_k^M)^(1/M)``,
which is itself bounded below by ``1/K^(M-1)``. The measure is symmetric
in its inputs and invariant under positive rescaling of each input.

``kl_alignment``, ``mmd_squared``, and ``coral_loss`` implement the
classic alignment baselines that the CS family is compared against.

The module imports numpy only. scipy is used in two places, both on the
MMD baseline: ``median_bandwidth`` (``pdist``) and ``mmd_squared``
(``cdist``) import ``scipy.spatial.distance`` inside the function, so
only a process that computes MMD loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBandwidth,
    LengthMismatch,
    NegativeEntry,
    NonFiniteSample,
    NotAPmf,
    ShapeMismatch,
    TooFewDistributions,
    TooFewSamples,
)
from .pmf import EmbeddingBatch, PmfMatrix

# Row-sum tolerance for PMFs arriving at the divergence boundary.
# Deviations beyond this are rejected, never silently renormalized.
PMF_SUM_TOL = 1e-6

MEDIAN_HEURISTIC = "median"


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence with its log-ratio decomposition.

    ``value`` is ``-log(numerator / denominator)``; it is ``+inf`` when
    the numerator is exactly zero (disjoint supports).
    """

    value: float
    numerator: float
    denominator: float

    @property
    def finite(self) -> bool:
        return bool(np.isfinite(self.value))


@dataclass(frozen=True)
class HolderCheck:
    """Both sides of the generalized Hoelder inequality plus the verdict."""

    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class KlConfig:
    """Smoothing constant added to the reference PMF inside the log."""

    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be non-negative, got {self.epsilon}")


@dataclass(frozen=True)
class MmdConfig:
    """Gaussian-kernel bandwidth: an explicit positive sigma or the
    median heuristic marker (median pairwise distance of the pooled
    sample)."""

    bandwidth: float | str = MEDIAN_HEURISTIC

    def __post_init__(self) -> None:
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MEDIAN_HEURISTIC:
                raise ConfigError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")


def _as_rows(x: PmfMatrix | np.ndarray) -> np.ndarray:
    rows = x.rows if isinstance(x, PmfMatrix) else np.asarray(x, dtype=np.float64)
    return np.atleast_2d(rows)


def _as_data(x: EmbeddingBatch | np.ndarray) -> np.ndarray:
    if isinstance(x, EmbeddingBatch):
        return x.data  # 2-D and finite by construction
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch(f"expected an (n, d) sample matrix, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise NonFiniteSample("sample matrix contains non-finite values")
    return data


def validate_pmf_row(row: np.ndarray, name: str) -> np.ndarray:
    """Return ``row`` as a float64 PMF, or raise :class:`NotAPmf` naming ``name``.

    A PMF row is 1-D, finite and non-negative, and sums to 1 within
    ``PMF_SUM_TOL``; it is never renormalized.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise NotAPmf(f"{name} must be a 1-D vector, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise NotAPmf(f"{name} contains non-finite entries")
    if np.any(row < 0):
        raise NotAPmf(f"{name} has a negative entry")
    total = float(row.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise NotAPmf(f"{name} sums to {total!r}, outside 1 +/- {PMF_SUM_TOL}")
    return row


def cs_divergence(p: np.ndarray, q: np.ndarray) -> DivergenceValue:
    """Cauchy-Schwarz divergence between two PMF rows.

    Returns ``+inf`` iff the supports are disjoint (zero numerator);
    the denominator is strictly positive for any valid PMF pair.

    Raises
    ------
    NotAPmf
        If either row has a negative entry or a row sum beyond 1e-6.
    LengthMismatch
        If the rows differ in length.
    """
    p = validate_pmf_row(p, "p")
    q = validate_pmf_row(q, "q")
    if p.shape != q.shape:
        raise LengthMismatch(f"PMF lengths differ: {p.size} vs {q.size}")
    numerator = float(np.dot(p, q))
    denominator = float(np.sqrt(np.dot(p, p)) * np.sqrt(np.dot(q, q)))
    if numerator == 0.0:
        return DivergenceValue(np.inf, numerator, denominator)
    return DivergenceValue(float(-np.log(numerator / denominator)), numerator, denominator)


def _gcs_from_stack(stack: np.ndarray) -> DivergenceValue:
    """GCS on a pre-validated (M, K) stack of non-negative vectors."""
    m = stack.shape[0]
    numerator = float(np.prod(stack, axis=0).sum())
    power_sums = np.power(stack, m).sum(axis=1)
    log_denominator = float(np.log(power_sums).sum() / m)
    denominator = float(np.exp(log_denominator))
    if numerator == 0.0:
        return DivergenceValue(np.inf, numerator, denominator)
    value = float(log_denominator - np.log(numerator))
    return DivergenceValue(value, numerator, denominator)


def gcs_divergence(pmfs: list[np.ndarray] | np.ndarray) -> DivergenceValue:
    """Generalized Cauchy-Schwarz divergence among M PMFs.

    With M distributions over K support points the value is::

        -log( sum_k prod_m p[m,k] / prod_m (sum_k p[m,k]^M)^(1/M) )

    For M = 2 this reduces to :func:`cs_divergence`. The value is
    invariant under permutations of the inputs.

    Raises
    ------
    TooFewDistributions
        If fewer than two PMFs are passed.
    LengthMismatch
        If the PMFs have differing support sizes.
    NotAPmf
        If any input fails PMF validation.
    """
    rows = [np.asarray(p, dtype=np.float64) for p in pmfs]
    if len(rows) < 2:
        raise TooFewDistributions(f"need at least 2 PMFs, got {len(rows)}")
    k = rows[0].size
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.size != k:
            raise LengthMismatch(f"PMF {i} has length {row.size}, expected {k}")
        validate_pmf_row(row, f"pmf[{i}]")
    return _gcs_from_stack(np.stack(rows))


def gcs_divergence_unnormalized(vectors: list[np.ndarray] | np.ndarray) -> DivergenceValue:
    """GCS on unnormalized non-negative vectors.

    The defining ratio is invariant under positive rescaling of each
    vector, so inputs need not sum to one; each must be non-negative
    with at least one positive entry.
    """
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    if len(rows) < 2:
        raise TooFewDistributions(f"need at least 2 vectors, got {len(rows)}")
    k = rows[0].size
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.size != k:
            raise LengthMismatch(f"vector {i} has length {row.size}, expected {k}")
        if not np.all(np.isfinite(row)):
            raise NotAPmf(f"vector {i} contains non-finite entries")
        if np.any(row < 0):
            raise NegativeEntry(f"vector {i} has a negative entry")
        if row.sum() == 0.0:
            raise NotAPmf(f"vector {i} is all zeros")
    return _gcs_from_stack(np.stack(rows))


def holder_check(sequences: list[np.ndarray] | np.ndarray) -> HolderCheck:
    """Evaluate both sides of the generalized Hoelder inequality.

    For M non-negative sequences of common length,
    ``lhs = sum_k prod_m a[m,k]`` and
    ``rhs = prod_m (sum_k a[m,k]^M)^(1/M)``; the inequality
    ``lhs <= rhs`` holds with equality iff the sequences are pairwise
    proportional.
    """
    rows = [np.asarray(a, dtype=np.float64) for a in sequences]
    if len(rows) < 2:
        raise TooFewDistributions(f"need at least 2 sequences, got {len(rows)}")
    k = rows[0].size
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.size != k:
            raise LengthMismatch(f"sequence {i} has length {row.size}, expected {k}")
        if np.any(row < 0):
            raise NegativeEntry(f"sequence {i} has a negative entry")
    stack = np.stack(rows)
    m = stack.shape[0]
    lhs = float(np.prod(stack, axis=0).sum())
    rhs = float(np.prod(np.power(stack, m).sum(axis=1) ** (1.0 / m)))
    return HolderCheck(lhs, rhs, bool(lhs <= rhs + 1e-12))


def kl_alignment(
    s_pred: PmfMatrix | np.ndarray,
    s_true: PmfMatrix | np.ndarray,
    cfg: KlConfig | None = None,
) -> float:
    """KL-style projection-matching objective.

    ``sum_ij s_pred[i,j] * log(s_pred[i,j] / (s_true[i,j] + eps))`` with
    the convention that terms with ``s_pred[i,j] = 0`` contribute zero.
    With ``eps = 0`` and a zero in ``s_true`` under the support of
    ``s_pred`` the result is ``+inf`` -- the instability that motivates
    the CS alternative.
    """
    cfg = cfg or KlConfig()
    pred = _as_rows(s_pred)
    true = _as_rows(s_true)
    if pred.shape != true.shape:
        raise ShapeMismatch(f"shape mismatch: {pred.shape} vs {true.shape}")
    mask = pred > 0
    terms = np.zeros_like(pred)
    with np.errstate(divide="ignore"):
        terms[mask] = pred[mask] * np.log(pred[mask] / (true[mask] + cfg.epsilon))
    return float(terms.sum())


def median_bandwidth(
    x: EmbeddingBatch | np.ndarray, y: EmbeddingBatch | np.ndarray
) -> float:
    """Median pairwise Euclidean distance over the pooled sample.

    Raises
    ------
    DegenerateBandwidth
        If the median distance is zero (too many duplicate points).
    """
    from scipy.spatial.distance import pdist

    pooled = np.vstack([_as_data(x), _as_data(y)])
    sigma = float(np.median(pdist(pooled)))
    if sigma <= 0.0:
        raise DegenerateBandwidth("median pairwise distance is zero")
    return sigma


def resolve_bandwidth(
    x: EmbeddingBatch | np.ndarray,
    y: EmbeddingBatch | np.ndarray,
    cfg: MmdConfig | None = None,
) -> float:
    """Turn an :class:`MmdConfig` into a concrete sigma for this data."""
    cfg = cfg or MmdConfig()
    if isinstance(cfg.bandwidth, str):
        return median_bandwidth(x, y)
    return float(cfg.bandwidth)


def mmd_squared(
    x: EmbeddingBatch | np.ndarray,
    y: EmbeddingBatch | np.ndarray,
    cfg: MmdConfig | None = None,
) -> float:
    """Squared maximum mean discrepancy with a Gaussian kernel.

    Biased (V-statistic) estimate: identical samples give exactly zero.
    The kernel is ``exp(-||u - v||^2 / (2 sigma^2))`` with sigma from
    ``cfg`` (median heuristic by default).
    """
    from scipy.spatial.distance import cdist

    xd = _as_data(x)
    yd = _as_data(y)
    if xd.shape[1] != yd.shape[1]:
        raise ShapeMismatch(f"feature dims differ: {xd.shape[1]} vs {yd.shape[1]}")
    sigma = resolve_bandwidth(xd, yd, cfg)
    gamma = 1.0 / (2.0 * sigma * sigma)
    k_xx = np.exp(-gamma * cdist(xd, xd, "sqeuclidean"))
    k_yy = np.exp(-gamma * cdist(yd, yd, "sqeuclidean"))
    k_xy = np.exp(-gamma * cdist(xd, yd, "sqeuclidean"))
    n_x, n_y = xd.shape[0], yd.shape[0]
    return float(
        k_xx.sum() / (n_x * n_x)
        + k_yy.sum() / (n_y * n_y)
        - 2.0 * k_xy.sum() / (n_x * n_y)
    )


def _sample_covariance(data: np.ndarray) -> np.ndarray:
    centered = data - data.mean(axis=0, keepdims=True)
    return centered.T @ centered / (data.shape[0] - 1)


def coral_loss(
    x: EmbeddingBatch | np.ndarray, y: EmbeddingBatch | np.ndarray
) -> float:
    """Correlation-alignment loss: ``||C_x - C_y||_F^2 / (4 d^2)``.

    Covariances use the unbiased 1/(n-1) estimator on centered data.

    Raises
    ------
    TooFewSamples
        If either sample has fewer than two rows.
    ShapeMismatch
        If the feature dimensions differ.
    """
    xd = _as_data(x)
    yd = _as_data(y)
    if xd.shape[1] != yd.shape[1]:
        raise ShapeMismatch(f"feature dims differ: {xd.shape[1]} vs {yd.shape[1]}")
    if xd.shape[0] < 2 or yd.shape[0] < 2:
        raise TooFewSamples("covariance needs at least two samples per side")
    d = xd.shape[1]
    diff = _sample_covariance(xd) - _sample_covariance(yd)
    return float((diff * diff).sum() / (4.0 * d * d))
