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
in its inputs and invariant under positive rescaling of each input. It
is taken from the row-shifted logs of its inputs, so it stays finite
where the M-way products or M-th powers leave float range.

``kl_alignment``, ``mmd_squared``, and ``coral_loss`` implement the
classic alignment baselines that the CS family is compared against.

The module needs numpy only. MMD's pairwise distances come from one
kernel, ``sq_distances``; one MMD evaluation computes its three blocks
(x against x, y against y, x against y) once and takes both the Gaussian
kernels and the median-heuristic bandwidth from them.
"""

from __future__ import annotations

import math
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
from .pmf import EmbeddingBatch, check_float, chunk_rows

# Row-sum tolerance for PMFs arriving at the divergence boundary.
# Deviations beyond this are rejected, never silently renormalized.
PMF_SUM_TOL = 1e-6

MEDIAN_HEURISTIC = "median"

# A Gram-form squared distance at or below this share of the two largest
# squared row norms may have lost its digits to cancellation, so it is
# recomputed from the row difference. The Gram form's absolute error is
# about (d + 4) eps times those norms, so every entry kept has a relative
# error below (d + 4) eps / _CANCELLATION_BOUND: 4e-13 at d = 32.
_CANCELLATION_BOUND = 1e-2


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence with its log-ratio decomposition.

    ``value`` is ``-log(numerator / denominator)``; it is ``+inf`` when
    the supports are disjoint (a zero numerator). A GCS takes its value
    from logs and rounds the numerator and denominator from theirs, so
    where the products underflow or overflow it reads a numerator and
    denominator of 0 or inf with a finite value.
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
        if not (np.isfinite(check_float("epsilon", self.epsilon)) and self.epsilon >= 0):
            raise ConfigError(f"epsilon must be finite and non-negative, got {self.epsilon}")


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
        elif not (np.isfinite(check_float("bandwidth", self.bandwidth)) and self.bandwidth > 0):
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")


def _as_data(x: EmbeddingBatch | np.ndarray) -> np.ndarray:
    if isinstance(x, EmbeddingBatch):
        return x.data  # 2-D and finite by construction
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 2 or 0 in data.shape:
        raise ShapeMismatch(f"expected a non-empty (n, d) sample matrix, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise NonFiniteSample("sample matrix contains non-finite values")
    return data


def _paired_samples(
    x: EmbeddingBatch | np.ndarray, y: EmbeddingBatch | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as checked (n, d) matrices of one feature dimension."""
    xd, yd = _as_data(x), _as_data(y)
    if xd.shape[1] != yd.shape[1]:
        raise ShapeMismatch(f"feature dims differ: {xd.shape[1]} vs {yd.shape[1]}")
    return xd, yd


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
    with np.errstate(over="ignore"):  # entries near 1e308 sum to inf, and are reported so
        total = float(row.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise NotAPmf(f"{name} sums to {total!r}, outside 1 +/- {PMF_SUM_TOL}")
    return row


def cs_divergence(p: np.ndarray, q: np.ndarray) -> DivergenceValue:
    """Cauchy-Schwarz divergence between two PMF rows.

    Returns ``+inf`` iff the supports are disjoint (zero numerator);
    the denominator is strictly positive for any valid PMF pair. Its
    three inner products are exactly rounded sums (``_dot``), so the
    value does not depend on the BLAS kernel. A
    ``sum_j p_j q_j`` below the smallest normal float has lost digits (as
    1e-170 * 1e-170 has), so the value is then the GCS of ``[p, q]``.

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
    numerator = _dot(p, q)
    if numerator < np.finfo(np.float64).tiny:
        return _gcs(np.stack([p, q]))
    denominator = float(np.sqrt(_dot(p, p)) * np.sqrt(_dot(q, q)))
    return DivergenceValue(float(-np.log(numerator / denominator)), numerator, denominator)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """``sum_j a_j b_j``, the exactly rounded ``math.fsum`` of the elementwise
    products: unlike a BLAS dot, the same bits under every BLAS kernel."""
    return math.fsum((a * b).tolist())


def _stack_rows(inputs, noun: str) -> np.ndarray:
    """Stack ``inputs`` as float64 rows after the checks the GCS family
    shares: at least two of them (``TooFewDistributions``), each 1-D and
    of one length (``LengthMismatch``); ``noun`` names them in messages."""
    rows = [np.asarray(v, dtype=np.float64) for v in inputs]
    if len(rows) < 2:
        raise TooFewDistributions(f"need at least 2 {noun}s, got {len(rows)}")
    k = rows[0].size
    for i, row in enumerate(rows):
        if row.ndim != 1 or row.size != k:
            raise LengthMismatch(f"{noun} {i} has length {row.size}, expected {k}")
    return np.stack(rows)


def _check_non_negative(stack: np.ndarray, noun: str) -> None:
    """Raise ``NotAPmf`` for a row of ``stack`` with a non-finite entry and
    ``NegativeEntry`` for one with a negative entry, naming the row."""
    for i, row in enumerate(stack):
        if not np.all(np.isfinite(row)):
            raise NotAPmf(f"{noun} {i} contains non-finite entries")
        if np.any(row < 0):
            raise NegativeEntry(f"{noun} {i} has a negative entry")


def _gcs(stack: np.ndarray) -> DivergenceValue:
    """GCS on a pre-validated (M, K) stack of non-negative rows, none all zero,
    from the logs ``r = log p - max_k log p`` of each row, whose maxima cancel:
    ``mean_m log sum_k exp(M r) - log sum_k exp(sum_m r)``, ``+inf`` where the
    supports are disjoint (``max_k sum_m r = -inf``). The numerator and
    denominator are rounded from their logs, to 0 or inf if need be."""
    m = stack.shape[0]
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf off a row's support
        logs = np.log(stack)
        peaks = logs.max(axis=1)
        logs -= peaks[:, None]
        log_norms = np.log(np.exp(m * logs).sum(axis=1)).sum() / m  # each row's peak term is 1
        joint = logs.sum(axis=0)
        top = joint.max()
        log_joint = top + np.log(np.exp(joint - top).sum()) if top > -np.inf else top
        numerator = float(np.exp(peaks.sum() + log_joint))
        denominator = float(np.exp(peaks.sum() + log_norms))
    return DivergenceValue(float(log_norms - log_joint), numerator, denominator)


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
    stack = _stack_rows(pmfs, "PMF")
    for i, row in enumerate(stack):
        validate_pmf_row(row, f"pmf[{i}]")
    return _gcs(stack)


def gcs_divergence_unnormalized(vectors: list[np.ndarray] | np.ndarray) -> DivergenceValue:
    """GCS on unnormalized non-negative vectors.

    The defining ratio is invariant under positive rescaling of each
    vector, so inputs need not sum to one; each must be non-negative
    with at least one positive entry.
    """
    stack = _stack_rows(vectors, "vector")
    _check_non_negative(stack, "vector")
    for i, row in enumerate(stack):
        if not row.any():
            raise NotAPmf(f"vector {i} is all zeros")
    return _gcs(stack)


def holder_check(sequences: list[np.ndarray] | np.ndarray) -> HolderCheck:
    """Evaluate both sides of the generalized Hoelder inequality.

    For M finite non-negative sequences of common length,
    ``lhs = sum_k prod_m a[m,k]`` and
    ``rhs = prod_m (sum_k a[m,k]^M)^(1/M)``; the inequality
    ``lhs <= rhs`` holds with equality iff the sequences are pairwise
    proportional. ``holds`` allows rounding by a slack relative to the
    rhs, ``lhs <= rhs * (1 + 1e-12)``, so it reads the same at any scale
    of the sequences. A non-finite entry raises ``NotAPmf`` and a negative
    one ``NegativeEntry``. A side past float range reads ``inf``, without
    a warning; as ``rhs >= lhs``, an ``inf`` lhs comes with an ``inf``
    rhs and ``holds`` stays true. A zero factor gives an exact 0 term,
    never ``inf * 0``.
    """
    stack = _stack_rows(sequences, "sequence")
    _check_non_negative(stack, "sequence")
    m = stack.shape[0]
    with np.errstate(over="ignore"):
        lhs = float(np.prod(stack[:, stack.all(axis=0)], axis=0).sum())
        norms = np.power(stack, m).sum(axis=1) ** (1.0 / m)
        rhs = float(np.prod(norms)) if norms.all() else 0.0
    return HolderCheck(lhs, rhs, bool(lhs <= rhs * (1 + 1e-12)))


def kl_alignment(
    s_pred: np.ndarray,
    s_true: np.ndarray,
    cfg: KlConfig | None = None,
) -> float:
    """KL-style projection-matching objective.

    ``sum_ij s_pred[i,j] * log(s_pred[i,j] / (s_true[i,j] + eps))`` with
    the convention that terms with ``s_pred[i,j] = 0`` contribute zero.
    With ``eps = 0`` and a zero in ``s_true`` under the support of
    ``s_pred`` the result is ``+inf`` -- the instability that motivates
    the CS alternative. A non-finite entry raises ``NotAPmf`` and a
    negative one ``NegativeEntry``; zeros are valid.
    """
    cfg = cfg or KlConfig()
    pred = np.atleast_2d(np.asarray(s_pred, dtype=np.float64))
    true = np.atleast_2d(np.asarray(s_true, dtype=np.float64))
    if pred.shape != true.shape:
        raise ShapeMismatch(f"shape mismatch: {pred.shape} vs {true.shape}")
    _check_non_negative(pred, "s_pred row")
    _check_non_negative(true, "s_true row")
    mask = pred > 0
    terms = np.zeros_like(pred)
    with np.errstate(divide="ignore"):
        terms[mask] = pred[mask] * np.log(pred[mask] / (true[mask] + cfg.epsilon))
    return float(terms.sum())


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and of ``b``.

    The Gram form ``|a_i|^2 + |b_j|^2 - 2 a_i . b_j``, from one BLAS
    product assembled in place. Every entry not above
    ``_CANCELLATION_BOUND`` times the two largest squared row norms is
    recomputed from its row difference (so is a nan from norms that
    overflow), so equal rows give exactly 0 and no entry is negative.
    The differences are formed ``chunk_rows(d)`` at a time, so that a
    sample of near-equal rows needs no (n, m, d) buffer.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq_a = np.einsum("ij,ij->i", a, a)
        sq_b = sq_a if b is a else np.einsum("ij,ij->i", b, b)
        out = a @ b.T
        out *= -2.0
        out += sq_a[:, None]
        out += sq_b
        suspect = np.flatnonzero(~(out > _CANCELLATION_BOUND * (sq_a.max() + sq_b.max())))
        step = chunk_rows(a.shape[1])
        for start in range(0, suspect.size, step):
            flat = suspect[start:start + step]
            diff = a[flat // b.shape[0]] - b[flat % b.shape[0]]
            out.flat[flat] = np.einsum("ij,ij->i", diff, diff)
    return out


def _median_distance(d_xx: np.ndarray, d_yy: np.ndarray, d_xy: np.ndarray) -> float:
    """Median distance over the pooled sample, from its squared-distance
    blocks: each pair of distinct rows counts once (the lower triangles of
    the two self blocks and all of the cross block), and an even count
    takes the mean of the two middle distances, as ``np.median`` does.

    Raises
    ------
    DegenerateBandwidth
        If the median distance is zero (too many duplicate points).
    """
    pooled = np.concatenate([
        d_xx[np.tri(len(d_xx), k=-1, dtype=bool)],
        d_yy[np.tri(len(d_yy), k=-1, dtype=bool)],
        d_xy.ravel(),
    ])
    half = pooled.size // 2
    pooled.partition(half)
    sigma = float(np.sqrt(pooled[half]))
    if pooled.size % 2 == 0:
        sigma = (float(np.sqrt(pooled[:half].max())) + sigma) / 2
    if sigma <= 0.0:
        raise DegenerateBandwidth("median pairwise distance is zero")
    return sigma


def median_bandwidth(
    x: EmbeddingBatch | np.ndarray, y: EmbeddingBatch | np.ndarray
) -> float:
    """Median pairwise Euclidean distance over the pooled sample.

    Raises
    ------
    DegenerateBandwidth
        If the median distance is zero (too many duplicate points).
    ShapeMismatch
        If either sample is empty or the feature dimensions differ.
    """
    xd, yd = _paired_samples(x, y)
    return _median_distance(sq_distances(xd, xd), sq_distances(yd, yd), sq_distances(xd, yd))


# the sigma that ``mmd_kernels`` takes for (x, y) under the default config
resolve_bandwidth = median_bandwidth


def mmd_kernels(
    x: EmbeddingBatch | np.ndarray,
    y: EmbeddingBatch | np.ndarray,
    cfg: MmdConfig | None = None,
) -> tuple[float, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`mmd_squared` with the sigma and the kernel blocks it came
    from: ``(value, sigma, (k_xx, k_yy, k_xy))``.

    The three squared-distance blocks are computed once; the median
    heuristic reads them, and they then become the kernels in place.

    Raises
    ------
    NonFiniteSample
        If ``1 / (2 sigma^2)`` leaves float range: a median distance that
        overflows (finite samples with entries near 1e200, say) or a
        sigma so small that its square underflows. A distance that alone
        overflows gives a zero kernel entry, its limit.
    """
    xd, yd = _paired_samples(x, y)
    cfg = cfg or MmdConfig()
    blocks = (sq_distances(xd, xd), sq_distances(yd, yd), sq_distances(xd, yd))
    sigma = _median_distance(*blocks) if isinstance(cfg.bandwidth, str) else float(cfg.bandwidth)
    with np.errstate(over="ignore", divide="ignore"):
        gamma = float(1.0 / (2.0 * np.float64(sigma) * sigma))
    if not 0.0 < gamma < np.inf:
        raise NonFiniteSample(
            f"MMD kernel scale 1/(2 sigma^2) leaves float range at sigma = {sigma!r} (got {gamma!r})")
    for block in blocks:
        block *= -gamma
        np.exp(block, out=block)
    k_xx, k_yy, k_xy = blocks
    n_x, n_y = xd.shape[0], yd.shape[0]
    value = float(
        k_xx.sum() / (n_x * n_x)
        + k_yy.sum() / (n_y * n_y)
        - 2.0 * k_xy.sum() / (n_x * n_y)
    )
    return value, sigma, blocks


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
    return mmd_kernels(x, y, cfg)[0]


def coral_terms(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The CORAL value of two float samples and the terms its gradient reads: the
    centred samples and the covariance difference ``C_x - C_y``. Covariances use
    the unbiased 1/(n-1) estimator; a value past float range is returned, not raised."""
    d = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean(axis=0, keepdims=True)
        yc = y - y.mean(axis=0, keepdims=True)
        diff = xc.T @ xc / (x.shape[0] - 1) - yc.T @ yc / (y.shape[0] - 1)
        value = float((diff * diff).sum() / (4.0 * d * d))
    return value, xc, yc, diff


def coral_loss(
    x: EmbeddingBatch | np.ndarray, y: EmbeddingBatch | np.ndarray
) -> float:
    """Correlation-alignment loss: ``||C_x - C_y||_F^2 / (4 d^2)``.

    Covariances use the unbiased 1/(n-1) estimator on centered data. The
    value comes from ``coral_terms``, which the analytic gradient calls too.

    Raises
    ------
    TooFewSamples
        If either sample has one row.
    ShapeMismatch
        If either sample is empty or the feature dimensions differ.
    NonFiniteSample
        If the covariances or the loss overflow float range.
    """
    xd, yd = _paired_samples(x, y)
    if xd.shape[0] < 2 or yd.shape[0] < 2:
        raise TooFewSamples("covariance needs at least two samples per side")
    value = coral_terms(xd, yd)[0]
    if not np.isfinite(value):
        raise NonFiniteSample(
            f"CORAL loss overflows float range ({value!r}): the sample covariances are too large")
    return value
