"""Batch-level alignment losses, computed from the logits by one engine.

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

All of them, and ``gradients.loss_gradient``, are thin calls into
``matching_loss``, which evaluates every pass from its logit matrices
``z_m = cos_m / tau`` in the log domain and returns the per-sample and
per-direction breakdown together with the embedding gradients. CS and
GCS are scale invariant, so the softmax normalisers cancel and the
association PMFs are never formed. For one pass with M logit matrices
(one per edge) and ``c_i`` same-label items in row i, the GCS of the M
projections plus the true-match PMF (exponent M+1) is

    l_i = (sum_m lse((M+1) z_m,i) + log c_i) / (M+1)
          - lse_{k: y_k = y_i} (sum_m z_m,ik)

with gradient ``dl_i / dz_m,i = softmax((M+1) z_m,i) - w_i``, where
``w_i`` is the softmax of ``sum_m z_m,i`` restricted to row i's label
support and is shared by every edge of the pass. CS is the M = 1 case
(exponent 2): ``bimodal_cs`` and ``pairwise_cs`` are passes with one
edge. Each exponential is max-subtracted, so the value and gradient
stay finite wherever the divergence is, at any M and temperature. The
scalar functions in ``divergence`` remain the independent value oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .divergence import KlConfig
from .errors import ConfigError, ShapeMismatch, TooFewDistributions
from .pmf import AlignConfig, EmbeddingBatch

MATCHING_KINDS = ("bimodal_cs", "gcs_ring", "pairwise_cs", "kl")

# Association PMFs (logit matrices, one per edge) evaluated by
# ``matching_loss`` since import; complexity benchmarks and the
# direction-count invariant read deltas of this counter.
_ASSOCIATION_PMF_COUNT = 0


def association_pmf_count() -> int:
    """Return the number of association PMFs evaluated since import.

    ``matching_loss`` adds one per logit matrix (ring edge) it evaluates,
    on the forward losses and on ``loss_gradient`` alike.
    """
    return _ASSOCIATION_PMF_COUNT


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


# ---------------------------------------------------------------------------
# the engine: per-pass kernels on the logits

class LabelSupport(NamedTuple):
    """The entries where a batch's true-match PMF is non-zero, row-major.

    ``rows`` / ``cols`` index the same-label pairs (i, k); ``starts[i]``
    is the position of row i's first pair; ``log_counts[i]`` is ``log c_i``,
    the log of row i's same-label count. Every row has a pair, itself.
    """

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    log_counts: np.ndarray


def label_support(labels: np.ndarray) -> LabelSupport:
    """The same-label pairs of a batch with the given row labels."""
    rows, cols = np.nonzero(labels[:, None] == labels[None, :])
    counts = np.bincount(rows, minlength=labels.size)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return LabelSupport(rows, cols, starts, np.log(counts))


def gcs_logit_rows(logits: np.ndarray, support: LabelSupport) -> tuple[np.ndarray, np.ndarray]:
    """Per-row GCS of one pass and its gradient with respect to the logits.

    ``logits`` is the M x n x n stack of the pass's logit matrices
    ``z_m = cos_m / tau``; ``support`` describes the true-match PMF.
    Returns the n per-row divergences ``l_i`` and the M x n x n stack of
    ``dl_i / dz_m`` (row i holds the derivative of ``l_i`` alone), written
    over ``logits``. Every exponential is max-subtracted, so a value is
    finite wherever the divergence is. The label-restricted softmax ``w``
    is evaluated on the same-label pairs only: an exp of a masked ``-inf``
    entry costs several times that of a finite one.
    """
    rows, cols = support.rows, support.cols
    k = logits.shape[0] + 1
    joint = logits[:, rows, cols].sum(axis=0)
    top = np.maximum.reduceat(joint, support.starts)
    w = np.exp(joint - top[rows])
    total = np.add.reduceat(w, support.starts)
    w /= total[rows]
    z_top = logits.max(axis=2)
    logits -= z_top[:, :, None]
    logits *= k
    np.exp(logits, out=logits)
    z_total = logits.sum(axis=2)
    logits /= z_total[:, :, None]
    logits[:, rows, cols] -= w
    power_lse = support.log_counts + (k * z_top + np.log(z_total)).sum(axis=0)
    return power_lse / k - top - np.log(total), logits


def _kl_logit_rows(logits: np.ndarray, log_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``KL(softmax(z) || q)`` of a one-edge pass and its gradient
    with respect to z, given ``log_q``, the log of the smoothed true-match
    PMF. The gradient is written over ``logits``."""
    logits -= logits.max(axis=2, keepdims=True)
    p = np.exp(logits)
    total = p.sum(axis=2, keepdims=True)
    p /= total
    logits -= np.log(total)
    logits -= log_q
    values = np.einsum("eij,eij->ei", p, logits)
    logits -= values[:, :, None]
    logits *= p
    return values.sum(axis=0), logits


def matching_loss(
    kind: str,
    ring: ModalityRing,
    cfg: AlignConfig | None = None,
    kl_cfg: KlConfig | None = None,
) -> tuple[LossReport, list[np.ndarray]]:
    """Projection-matching loss of one kind, with its embedding gradients.

    ``kind`` is one of ``MATCHING_KINDS``. ``gcs_ring`` sums the passes
    of the ring's strategy, keyed ``"forward"`` / ``"backward"``;
    ``bimodal_cs``, ``pairwise_cs`` and ``kl`` sum one-edge passes over
    every ordered modality pair, keyed by direction label (``kl`` smoothed
    by ``kl_cfg.epsilon``). ``total`` is the sum of the per-pass batch
    means in pass order, ``per_direction`` holds those means and
    ``per_sample`` the per-row sums over passes. The gradients are one
    n x d matrix per ring modality, index-aligned with ``ring.batches``.
    """
    global _ASSOCIATION_PMF_COUNT
    if kind not in MATCHING_KINDS:
        raise ConfigError(f"unknown matching loss {kind!r}; expected one of {MATCHING_KINDS}")
    batches = ring.batches
    if kind == "gcs_ring":
        names = ring_passes(ring.strategy)
        passes = [ring_edges(ring.m, direction) for direction in names]
    else:
        passes = [[(s, d)] for s in range(ring.m) for d in range(ring.m) if s != d]
        names = [direction_label(batches[s], batches[d]) for [(s, d)] in passes]
    if kind == "kl":
        same_label = ring.labels[:, None] == ring.labels[None, :]
        q = same_label / same_label.sum(axis=1, keepdims=True)
        log_q = np.log(q + (kl_cfg or KlConfig()).epsilon)
        pass_rows = lambda logits: _kl_logit_rows(logits, log_q)
    else:
        support = label_support(ring.labels)
        pass_rows = lambda logits: gcs_logit_rows(logits, support)
    tau = (cfg or AlignConfig()).temperature

    data = np.stack([b.data for b in batches])
    norms = np.linalg.norm(data, axis=2, keepdims=True)
    units = data / norms
    scaled_t = units.transpose(0, 2, 1) / tau
    g_units = np.zeros_like(units)
    # one logit buffer per call: pass_rows writes its gradients over it
    buffer = np.empty((max(len(edges) for edges in passes), ring.n, ring.n))
    total = 0.0
    per_sample = np.zeros(ring.n)
    per_direction: dict[str, float] = {}
    for name, edges in zip(names, passes):
        src, dst = np.array(edges).T
        logits = np.matmul(units[src], scaled_t[dst], out=buffer[: len(edges)])
        values, grads = pass_rows(logits)
        _ASSOCIATION_PMF_COUNT += len(edges)
        per_direction[name] = float(values.mean())
        total += per_direction[name]
        per_sample += values
        # within a pass no modality is the source, or the target, of two edges
        g_units[src] += grads @ units[dst]
        g_units[dst] += grads.transpose(0, 2, 1) @ units[src]
    # the batch mean and dz/dcos = 1/tau scale every logit gradient alike;
    # d(a/||a||)/da removes the radial component and divides by the norm
    radial = (g_units * units).sum(axis=2, keepdims=True) * units
    grads = list((g_units - radial) * (1.0 / (ring.n * tau)) / norms)
    # a non-finite pass mean makes the total non-finite as well
    finite = bool(np.isfinite(total) and np.all(np.isfinite(per_sample)))
    return LossReport(total, per_direction, per_sample, finite), grads


# ---------------------------------------------------------------------------
# forward losses

def bimodal_cmpm_cs(
    a: EmbeddingBatch, b: EmbeddingBatch, cfg: AlignConfig | None = None
) -> LossReport:
    """Bidirectional projection-matching loss for a modality pair.

    Per direction, the loss is the batch mean of the CS divergence
    between each anchor's association PMF and its true-match PMF; the
    total sums both directions. Non-finite values are flagged in the
    report, never raised.
    """
    return matching_loss("bimodal_cs", ModalityRing((a, b)), cfg)[0]


def gcs_ring_loss(ring: ModalityRing, cfg: AlignConfig | None = None) -> LossReport:
    """Circular multi-modal alignment loss.

    For each included pass (clockwise and/or counterclockwise per the
    ring's strategy) and each anchor i, one GCS divergence is taken
    over the M projection PMFs of that pass plus the true-match PMF --
    M+1 distributions, norm exponent M+1. The total is the batch mean
    of the per-anchor sums; ``per_direction`` holds the forward and
    backward components.
    """
    return matching_loss("gcs_ring", ring, cfg)[0]


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
    return matching_loss("pairwise_cs" if measure == "cs" else "kl", ring, cfg, kl_cfg)[0]
