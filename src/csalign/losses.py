"""Batch-level alignment losses.

Two families live here:

* ``bimodal_cmpm_cs``: projection matching for a modality pair. Each
  anchor's association PMF is pulled toward its true-match PMF with the
  CS divergence, averaged over the batch and summed over both
  directions.
* ``gcs_ring_loss``: the M-modality generalization. Modalities are
  arranged on a ring; the clockwise pass projects each modality onto
  its successor, the counterclockwise pass onto its predecessor, and
  each anchor's projection PMFs are aligned *jointly* with the
  true-match PMF through one GCS call per direction of travel (so each
  call sees M+1 distributions and the norm exponent is M+1). The mixed
  strategy sums both passes; the unidirectional strategies keep one.

``pairwise_sum_loss`` is the exhaustive baseline the ring construction
replaces: one directional projection-matching loss per ordered modality
pair, M(M-1) in total versus 2M for the mixed ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .divergence import KlConfig
from .errors import ConfigError, ShapeMismatch, TooFewDistributions
from .pmf import (
    AlignConfig,
    EmbeddingBatch,
    PmfMatrix,
    association_pmf,
    build_match_matrix,
    cosine_similarity_matrix,
    true_match_pmf,
)


class MatchStrategy(Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    MIXED = "mixed"


@dataclass(frozen=True)
class ModalityRing:
    """Ordered cycle of M paired modality batches.

    All batches must agree in n and d and carry identical labels
    position-wise (row i of every modality is the same instance).
    """

    batches: tuple[EmbeddingBatch, ...]
    strategy: MatchStrategy = MatchStrategy.MIXED

    def __post_init__(self) -> None:
        batches = tuple(self.batches)
        if len(batches) < 2:
            raise TooFewDistributions(f"a ring needs M >= 2 modalities, got {len(batches)}")
        first = batches[0]
        for b in batches[1:]:
            if b.n != first.n or b.d != first.d:
                raise ShapeMismatch(
                    f"all ring batches must share (n, d); "
                    f"got ({b.n},{b.d}) vs ({first.n},{first.d})"
                )
            if not np.array_equal(b.labels, first.labels):
                raise ShapeMismatch("ring batches must carry identical labels position-wise")
        names = [b.modality_name for b in batches]
        if len(set(names)) != len(names):
            raise ConfigError(f"modality names must be unique, got {names}")
        object.__setattr__(self, "batches", batches)

    @property
    def m(self) -> int:
        return len(self.batches)

    @property
    def n(self) -> int:
        return self.batches[0].n

    @property
    def labels(self) -> np.ndarray:
        return self.batches[0].labels


@dataclass(frozen=True)
class LossReport:
    """Scalar loss with its per-sample and per-direction breakdown."""

    total: float
    per_direction: dict[str, float]
    per_sample: np.ndarray = field(repr=False)
    finite: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_sample", np.asarray(self.per_sample, dtype=np.float64))


def direction_label(src: EmbeddingBatch, dst: EmbeddingBatch) -> str:
    return f"{src.modality_name}2{dst.modality_name}"


def ring_edges(m: int, direction: str) -> list[tuple[int, int]]:
    """Index pairs (src, dst) for one pass around an M-ring.

    ``"forward"`` walks 0 -> 1 -> ... -> M-1 -> 0. ``"backward"``
    reverses every edge, walking 1 -> 0 -> M-1 -> ... -> 1, so the two
    passes together cover both orientations of each ring edge.
    """
    if direction == "forward":
        return [(i, (i + 1) % m) for i in range(m)]
    if direction == "backward":
        path = [(1 - step) % m for step in range(m + 1)]
        return list(zip(path[:-1], path[1:]))
    raise ConfigError(f"direction must be 'forward' or 'backward', got {direction!r}")


def ring_passes(strategy: MatchStrategy) -> list[str]:
    """Ring passes a matching strategy sums, as ``ring_edges`` directions."""
    return {
        MatchStrategy.CLOCKWISE: ["forward"],
        MatchStrategy.COUNTERCLOCKWISE: ["backward"],
        MatchStrategy.MIXED: ["forward", "backward"],
    }[strategy]


def ring_projections(
    ring: ModalityRing, cfg: AlignConfig | None = None, direction: str = "forward"
) -> list[PmfMatrix]:
    """Association PMFs along one pass of the ring, in edge order."""
    cfg = cfg or AlignConfig()
    out = []
    for src, dst in ring_edges(ring.m, direction):
        sim = cosine_similarity_matrix(ring.batches[src], ring.batches[dst])
        out.append(association_pmf(sim, cfg))
    return out


def _cs_per_sample(p_rows: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Row-wise CS divergence values for matched (n, K) PMF matrices."""
    numerator = (p_rows * q_rows).sum(axis=1)
    denominator = np.sqrt((p_rows * p_rows).sum(axis=1)) * np.sqrt(
        (q_rows * q_rows).sum(axis=1)
    )
    values = np.full(numerator.shape, np.inf)
    pos = numerator > 0
    values[pos] = -np.log(numerator[pos] / denominator[pos])
    return values


def _gcs_per_sample(stack: np.ndarray) -> np.ndarray:
    """Row-wise GCS values for a (M, n, K) stack of PMF matrices."""
    m = stack.shape[0]
    numerator = np.prod(stack, axis=0).sum(axis=-1)
    log_denominator = np.log(np.power(stack, m).sum(axis=-1)).sum(axis=0) / m
    values = np.full(numerator.shape, np.inf)
    pos = numerator > 0
    values[pos] = log_denominator[pos] - np.log(numerator[pos])
    return values


def _kl_per_sample(p_rows: np.ndarray, q_rows: np.ndarray, epsilon: float) -> np.ndarray:
    mask = p_rows > 0
    terms = np.zeros_like(p_rows)
    with np.errstate(divide="ignore"):
        terms[mask] = p_rows[mask] * np.log(p_rows[mask] / (q_rows[mask] + epsilon))
    return terms.sum(axis=1)


def _report(per_sample: np.ndarray, per_direction: dict[str, float]) -> LossReport:
    total = float(per_sample.mean())
    finite = bool(
        np.isfinite(total)
        and np.all(np.isfinite(per_sample))
        and all(np.isfinite(v) for v in per_direction.values())
    )
    return LossReport(total, per_direction, per_sample, finite)


def bimodal_cmpm_cs(
    a: EmbeddingBatch, b: EmbeddingBatch, cfg: AlignConfig | None = None
) -> LossReport:
    """Bidirectional projection-matching loss for a modality pair.

    Per direction, the loss is the batch mean of the CS divergence
    between each anchor's association PMF and its true-match PMF; the
    total sums both directions. Non-finite values are flagged in the
    report, never raised.
    """
    ring = ModalityRing((a, b))  # reuses the paired-batch validation
    cfg = cfg or AlignConfig()
    q = true_match_pmf(build_match_matrix(a.labels, b.labels)).rows
    p_ab = association_pmf(cosine_similarity_matrix(a, b), cfg).rows
    p_ba = association_pmf(cosine_similarity_matrix(b, a), cfg).rows
    d_ab = _cs_per_sample(p_ab, q)
    d_ba = _cs_per_sample(p_ba, q)
    per_direction = {
        direction_label(a, b): float(d_ab.mean()),
        direction_label(b, a): float(d_ba.mean()),
    }
    return _report(d_ab + d_ba, per_direction)


def gcs_ring_loss(ring: ModalityRing, cfg: AlignConfig | None = None) -> LossReport:
    """Circular multi-modal alignment loss.

    For each included pass (clockwise and/or counterclockwise per the
    ring's strategy) and each anchor i, one GCS divergence is taken
    over the M projection PMFs of that pass plus the true-match PMF --
    M+1 distributions, norm exponent M+1. The total is the batch mean
    of the per-anchor sums; ``per_direction`` holds the forward and
    backward components.
    """
    cfg = cfg or AlignConfig()
    q = true_match_pmf(build_match_matrix(ring.labels, ring.labels)).rows
    per_sample = np.zeros(ring.n)
    per_direction: dict[str, float] = {}
    for direction in ring_passes(ring.strategy):
        pmfs = ring_projections(ring, cfg, direction)
        stack = np.stack([p.rows for p in pmfs] + [q])
        values = _gcs_per_sample(stack)
        per_direction[direction] = float(values.mean())
        per_sample = per_sample + values
    return _report(per_sample, per_direction)


def pairwise_sum_loss(
    ring: ModalityRing,
    cfg: AlignConfig | None = None,
    measure: str = "cs",
    kl_cfg: KlConfig | None = None,
) -> LossReport:
    """Exhaustive pairwise baseline: one directional projection-matching
    loss per ordered modality pair, summed over all M(M-1) pairs.

    ``measure`` selects the per-row divergence: ``"cs"`` or ``"kl"``
    (the latter smoothed by ``kl_cfg.epsilon``).
    """
    if measure not in ("cs", "kl"):
        raise ConfigError(f"measure must be 'cs' or 'kl', got {measure!r}")
    cfg = cfg or AlignConfig()
    kl_cfg = kl_cfg or KlConfig()
    q = true_match_pmf(build_match_matrix(ring.labels, ring.labels)).rows
    per_sample = np.zeros(ring.n)
    per_direction: dict[str, float] = {}
    for src in range(ring.m):
        for dst in range(ring.m):
            if src == dst:
                continue
            sim = cosine_similarity_matrix(ring.batches[src], ring.batches[dst])
            p = association_pmf(sim, cfg).rows
            if measure == "cs":
                values = _cs_per_sample(p, q)
            else:
                values = _kl_per_sample(p, q, kl_cfg.epsilon)
            label = direction_label(ring.batches[src], ring.batches[dst])
            per_direction[label] = float(values.mean())
            per_sample = per_sample + values
    return _report(per_sample, per_direction)
