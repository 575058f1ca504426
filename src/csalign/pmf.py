"""Batch types and PMF construction via projection matching.

Given two position-aligned embedding batches, each anchor row is turned
into a probability mass function over the batch in two ways:

* an *association* PMF: row-wise softmax over cosine similarities, so
  ``p[i, j]`` is the probability of associating anchor ``i`` in one
  modality with item ``j`` in the other;
* a *true-match* PMF: the binary label-match indicator normalized per
  row, so ``q[i, j] = y[i, j] / sum_k y[i, k]``.

These are the validated, boundary-level forms of the two PMFs, used by
callers and tests. The alignment losses (``losses.matching_loss``)
never build them: they evaluate the same divergences from the logits
``cos / temperature`` and the labels directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    EmptyMatchRow,
    NonFiniteSimilarity,
    NotAPmf,
    ShapeMismatch,
    ZeroNormRow,
)

# Row sums of a PmfMatrix must hit 1 within this tolerance.
PMF_ROW_SUM_TOL = 1e-9

# Rows with Euclidean norm below this are rejected (see ``row_norms``).
MIN_ROW_NORM = 1e-30


def row_norms(data: np.ndarray, what: str) -> np.ndarray:
    """Euclidean norms of the rows (last axis) of ``data``, keepdims.

    A nan or inf entry, or a row too large to square, raises
    ``NonFiniteSimilarity``; a norm below ``MIN_ROW_NORM`` (zero, or so
    small that the squares underflow) raises ``ZeroNormRow``.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(data, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise NonFiniteSimilarity(f"{what} contains non-finite values or a row whose norm overflows")
    if np.any(norms < MIN_ROW_NORM):
        raise ZeroNormRow(f"{what} has a row whose norm is below MIN_ROW_NORM = {MIN_ROW_NORM:g}")
    return norms


@dataclass(frozen=True)
class AlignConfig:
    """Softmax settings for association-PMF construction.

    Parameters
    ----------
    temperature : float
        Softmax temperature. The default of 1.0 reproduces the plain
        ``softmax(cos)`` projection; smaller values sharpen the rows.
    """

    temperature: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ConfigError(f"temperature must be positive, got {self.temperature}")


@dataclass(frozen=True)
class EmbeddingBatch:
    """One modality's mini-batch: an n x d matrix plus class labels.

    Invariants enforced at construction: n >= 2, d >= 1, one label per
    row, and every row's Euclidean norm finite and at least
    ``MIN_ROW_NORM`` (see ``row_norms``).
    """

    data: np.ndarray
    labels: np.ndarray
    modality_name: str = "mod"

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if data.ndim != 2:
            raise ShapeMismatch(f"embedding data must be 2-D, got shape {data.shape}")
        n, d = data.shape
        if n < 2 or d < 1:
            raise ShapeMismatch(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if labels.shape != (n,):
            raise ShapeMismatch(f"labels must have shape ({n},), got {labels.shape}")
        if np.any(labels < 0):
            raise NotAPmf("class labels must be non-negative integers")
        row_norms(data, f"batch '{self.modality_name}'")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Square matrix of cosine similarities between two batches."""

    values: np.ndarray
    row_modality: str
    col_modality: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ShapeMismatch(f"similarity matrix must be square, got {values.shape}")
        finite = values[np.isfinite(values)]
        if finite.size and (finite.min() < -1.0 - 1e-12 or finite.max() > 1.0 + 1e-12):
            raise NotAPmf("cosine similarities must lie in [-1, 1]")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MatchMatrix:
    """Binary n x n indicator of label matches; every row has a match."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ShapeMismatch(f"match matrix must be square, got {values.shape}")
        if not np.all((values == 0) | (values == 1)):
            raise NotAPmf("match matrix entries must be 0 or 1")
        row_sums = values.sum(axis=1)
        if np.any(row_sums == 0):
            bad = int(np.argmax(row_sums == 0))
            raise EmptyMatchRow(f"anchor row {bad} has no match in the batch")
        object.__setattr__(self, "values", values)


class PmfKind(Enum):
    ASSOCIATION = "association"
    TRUE_MATCH = "true_match"


@dataclass(frozen=True)
class PmfMatrix:
    """n x n row-stochastic matrix; each row is a PMF over the batch."""

    rows: np.ndarray
    kind: PmfKind = field(default=PmfKind.ASSOCIATION)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise ShapeMismatch(f"PMF matrix must be square, got {rows.shape}")
        if np.any(rows < 0):
            raise NotAPmf("PMF entries must be non-negative")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PMF_ROW_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise NotAPmf(f"row {bad} sums to {sums[bad]!r}, not 1")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return self.rows.shape[0]


def cosine_similarity_matrix(a: EmbeddingBatch, b: EmbeddingBatch) -> SimilarityMatrix:
    """Pairwise cosine similarity between two equally sized batches.

    ``values[i, j] = <a_i, b_j> / (||a_i|| ||b_j||)``, clamped to
    ``[-1, 1]`` to absorb floating-point rounding.

    Raises
    ------
    ShapeMismatch
        If the batches differ in n or d.
    """
    if a.n != b.n or a.d != b.d:
        raise ShapeMismatch(
            f"batches must agree in shape: ({a.n},{a.d}) vs ({b.n},{b.d})"
        )
    # EmbeddingBatch guarantees every norm is finite and >= MIN_ROW_NORM
    norm_a = np.linalg.norm(a.data, axis=1)
    norm_b = np.linalg.norm(b.data, axis=1)
    values = (a.data / norm_a[:, None]) @ (b.data / norm_b[:, None]).T
    np.clip(values, -1.0, 1.0, out=values)
    return SimilarityMatrix(values, a.modality_name, b.modality_name)


def association_pmf(sim: SimilarityMatrix, cfg: AlignConfig | None = None) -> PmfMatrix:
    """Row-wise softmax of ``sim / temperature``.

    The row maximum is subtracted before exponentiation, so arbitrarily
    large similarity/temperature ratios cannot overflow. Output rows are
    strictly positive for finite input.

    Raises
    ------
    NonFiniteSimilarity
        If the similarity matrix contains NaN or infinity.
    """
    cfg = cfg or AlignConfig()
    values = sim.values
    if not np.all(np.isfinite(values)):
        raise NonFiniteSimilarity("similarity matrix contains non-finite entries")
    scaled = values / cfg.temperature
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    expd = np.exp(scaled)
    rows = expd / expd.sum(axis=1, keepdims=True)
    return PmfMatrix(rows, PmfKind.ASSOCIATION)


def build_match_matrix(row_labels: np.ndarray, col_labels: np.ndarray) -> MatchMatrix:
    """Binary matrix with ``values[i, j] = 1`` iff labels agree.

    Raises
    ------
    ShapeMismatch
        If the label vectors differ in length.
    EmptyMatchRow
        If some row label appears nowhere among the column labels.
    """
    row_labels = np.asarray(row_labels, dtype=np.int64)
    col_labels = np.asarray(col_labels, dtype=np.int64)
    if row_labels.ndim != 1 or row_labels.shape != col_labels.shape:
        raise ShapeMismatch(
            f"label vectors must be 1-D and equal length, got "
            f"{row_labels.shape} vs {col_labels.shape}"
        )
    values = (row_labels[:, None] == col_labels[None, :]).astype(np.int64)
    return MatchMatrix(values)


def true_match_pmf(match: MatchMatrix) -> PmfMatrix:
    """Normalize each match row into a PMF: ``q[i,j] = y[i,j]/sum_k y[i,k]``."""
    values = match.values.astype(np.float64)
    rows = values / values.sum(axis=1, keepdims=True)
    return PmfMatrix(rows, PmfKind.TRUE_MATCH)
