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

All of them check the kind and tau against M with ``check_kind`` and
are thin calls into ``stack_matching_loss``. ``gradients.loss_gradient``
checks them too and reaches the engine through
``gradients.stack_loss_gradient``. The engine checks the stack's row norms with
``pmf.row_norms`` (an overflowing or zero-norm row raises), evaluates
every pass from its logit matrices ``z_m = cos_m / tau`` in the log
domain and returns the per-sample and per-direction breakdown together
with the embedding gradients. The forward losses here, and the
finite-difference closure in ``gradients``, discard the gradients, so
they ask for values only (``grad=False``): the same report bit for bit,
with no gradient step taken. ``loss_gradient`` and the trainer take the
gradient path. CS and GCS are scale invariant, so the softmax
normalisers cancel and the association PMFs are never formed. For one
pass with M logit matrices (one per edge) and ``c_i`` same-label items
in row i, the GCS of the M projections plus the true-match PMF (exponent
M+1) is

    l_i = (sum_m lse((M+1) z_m,i) + log c_i) / (M+1)
          - lse_{k: y_k = y_i} (sum_m z_m,ik)

with gradient ``dl_i / dz_m,i = softmax((M+1) z_m,i) - w_i``, where
``w_i`` is the softmax of ``sum_m z_m,i`` restricted to row i's label
support and is shared by every edge of the pass. CS is the M = 1 case
(exponent 2): ``bimodal_cs`` and ``pairwise_cs`` are passes with one
edge.

Every pass has a reverse over the same matrices transposed (the ring's
backward edges are its forward edges reversed; pair (d, s) is (s, d)
reversed). So ``matching_loss`` evaluates each group of edges, the
ring's M or an unordered pair's one, once: one product per edge, each
on views of the unit rows. One kernel, ``gcs_logit_rows`` (CS, GCS) or
``kl_logit_rows``, reads the group's matrices on the batch's
``label_support`` by rows for one pass and by columns for the other.
GCS takes one exponential per matrix at every tau (past
``STATIC_SHIFT_LIMIT`` floored, with own shifts for the anchors that
need them), KL one per reading against one symmetric log target per
group. ``divergence`` is the independent value oracle.

On the gradient path the engine's working set is the (M, n, d) stack,
its unit rows, their scaled transpose, one gradient array and one
logit buffer (M x n x n for the ring, n x n per pair), plus the
kernel's n x n and label-support temporaries. Every group runs edge by
edge, forward and backward, so no modality's rows are gathered. The
buffer is dropped before the epilogue, which scales the gradient array
in place through one (M, n, d) scratch array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .divergence import KlConfig
from .errors import ConfigError, ShapeMismatch, TooFewDistributions
from .pmf import AlignConfig, EmbeddingBatch, row_norms

LOSS_KINDS = ("bimodal_cs", "gcs_ring", "pairwise_cs", "kl", "mmd", "coral")
MATCHING_KINDS = LOSS_KINDS[:4]

# Normalised association PMFs (one per edge of each pass) evaluated by
# ``matching_loss`` since import; complexity benchmarks and the
# direction-count invariant read deltas of this counter.
_ASSOCIATION_PMF_COUNT = 0


def association_pmf_count() -> int:
    """Return the number of association PMFs evaluated since import.

    ``matching_loss`` adds one per edge of every pass it evaluates, on the
    forward losses and on ``loss_gradient`` alike: 2M for the mixed ring
    and M(M-1) for the pairwise sum. A logit matrix read by rows and by
    columns is two normalised PMFs, so this counts the PMFs, not the
    matrices (M and M(M-1)/2).
    """
    return _ASSOCIATION_PMF_COUNT


def check_kind(loss_kind: str, m: int, tau: float) -> None:
    """Reject an unknown loss kind, fewer than two modalities, a kind not defined for M, or
    a tau below 4 M (M + 1) / DBL_MAX, where the ring's shifted log-sum-exps (down to
    -2 M (M + 1) / tau) could overflow: from it on, every loss reads a finite value or +inf,
    never nan or -inf."""
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    if m < 2:
        raise ConfigError(f"loss kind {loss_kind!r} needs M >= 2 modalities, got M = {m}")
    if loss_kind in ("bimodal_cs", "mmd", "coral") and m != 2:
        raise ConfigError(f"loss kind {loss_kind!r} is defined for exactly two modalities")
    if tau < 4 * m * (m + 1) / np.finfo(float).max:
        raise ConfigError(f"temperature must be >= 4 M (M + 1) / DBL_MAX at M = {m}, got {tau!r}")


class MatchStrategy(Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    MIXED = "mixed"


def check_paired(batches: Sequence[EmbeddingBatch]) -> None:
    """Check that M >= 2 batches share n and labels position by position
    (row i of every modality is the same instance) and have unique names."""
    if len(batches) < 2:
        raise TooFewDistributions(f"a ring needs M >= 2 modalities, got {len(batches)}")
    first = batches[0]
    for b in batches[1:]:
        if b.n != first.n:
            raise ShapeMismatch(f"all modalities must share n; got {b.n} vs {first.n}")
        if not np.array_equal(b.labels, first.labels):
            raise ShapeMismatch("modalities must carry identical labels position-wise")
    names = [b.modality_name for b in batches]
    if len(set(names)) != len(names):  # two directions would share one label
        raise ConfigError(f"modality names must be unique, got {names}")


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
        check_paired(batches)
        if len({b.d for b in batches}) != 1:
            raise ShapeMismatch(f"all ring batches must share d, got {[b.d for b in batches]}")
        object.__setattr__(self, "batches", batches)

    @property
    def m(self) -> int:
        return len(self.batches)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, list[str], MatchStrategy]:
        """The engine's inputs: the (M, n, d) stack, labels, names and strategy."""
        names = [b.modality_name for b in self.batches]
        return np.stack([b.data for b in self.batches]), self.labels, names, self.strategy

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


def direction_label(src: str, dst: str) -> str:
    """The name of the pass, or retrieval direction, from modality ``src`` to ``dst``."""
    return f"{src}2{dst}"


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
# the engine: per-group kernels on the logits

# Largest 2k/tau for the static shift alone: no cosine is below -1, so up to it every
# anchor's largest term exp(k (z - 1/tau)) is at least exp(-STATIC_SHIFT_LIMIT). Past it,
# the floor EXP_FLOOR adds at most n e^-100 to such a sum, and keeps e^EXP_FLOOR / n normal.
STATIC_SHIFT_LIMIT = 580.0
EXP_FLOOR = -680.0


class LabelSupport(NamedTuple):
    """The entries where a batch's true-match PMF is non-zero, row-major.

    ``rows`` / ``cols`` index the same-label pairs (i, k); ``starts[i]``
    is the position of row i's first pair; ``log_counts[i]`` is ``log c_i``,
    the log of row i's same-label count. Every row has a pair, itself.
    ``transpose[p]`` is the position of pair (k, i) when pair p is (i, k).
    """

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    log_counts: np.ndarray
    transpose: np.ndarray


def label_support(labels: np.ndarray) -> LabelSupport:
    """The same-label pairs of a batch with the given row labels.

    Built from a stable label sort, so row i's pairs list its class
    members in ascending index order without an n x n comparison.
    """
    n = labels.size
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    class_start = np.flatnonzero(first)
    sorted_class = np.cumsum(first) - 1
    cls = np.empty(n, dtype=np.intp)
    cls[order] = sorted_class
    counts = np.bincount(sorted_class)[cls]
    starts = np.cumsum(counts) - counts
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - class_start[sorted_class]
    rows = np.repeat(np.arange(n), counts)
    cols = order[np.repeat(class_start[cls] - starts, counts) + np.arange(rows.size)]
    return LabelSupport(rows, cols, starts, np.log(counts), starts[cols] + rank[rows])


def _softmax(z: np.ndarray, axis: int, k: float, floor=None) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(k z)`` and ``lse(k z)`` along ``axis``, shifted by the maxima, with no
    exponent below ``floor`` if one is given; the lse comes from the sums, not the softmax."""
    shift = z.max(axis=axis, keepdims=True)
    e = z - shift
    e *= k
    if floor is not None:
        np.maximum(e, floor, out=e)
    np.exp(e, out=e)
    sums = e.sum(axis=axis, keepdims=True)
    e /= sums
    return e, k * shift + np.log(sums)


def gcs_logit_rows(
    logits: np.ndarray,
    support: LabelSupport,
    tau: float,
    rows: bool = True,
    cols: bool = True,
    grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Per-anchor GCS of a group's passes and the gradient of their sum.

    ``logits`` is the M x n x n stack of a group's logit matrices
    ``z_m = cos_m / tau``; ``support`` describes the true-match PMF. Read
    by rows, the stack is one pass (anchor i is row i of every ``z_m``);
    read by columns, it is the pass over the same edges reversed (anchor
    i is column i, that is row i of ``z_m^T``). ``rows`` / ``cols`` select
    the readings. Returns the n per-anchor divergences of each selected
    reading, rows first, and the M x n x n stack of the derivative of
    their sum with respect to ``z_m``, written over ``logits``; with
    ``grad`` False, ``None`` in its place, and no step that only the
    gradient needs is taken (the values are the same bits either way).

    One exponential per matrix, ``E = exp(k (z - 1/tau))`` with k = M + 1,
    serves both readings at every temperature: row sums normalise one and
    column sums the other, and the gradient is ``E / rowsum + E / colsum
    - (w + w_rev^T)`` on the same-label pairs, where ``w`` is the softmax
    of ``sum_m z_m`` over each anchor's same-label pairs (``w_rev`` that
    of the reverse reading), evaluated on those pairs only. No cosine
    exceeds 1, so every term of E lies in ``[exp(-2k/tau), 1]``. Past
    ``2k / tau = STATIC_SHIFT_LIMIT`` (decided from k and tau alone), the
    exponents of E and ``w`` are floored at ``EXP_FLOOR``, ``w`` is also
    shifted by each anchor's maximum, and an anchor whose largest term is
    below ``exp(-STATIC_SHIFT_LIMIT)`` takes the ``_softmax`` of a copy of
    its terms for its ``log(rowsum)`` and ``E / rowsum``. So every value
    is a max-subtracted softmax's, finite wherever the divergence is.
    """
    m, n = logits.shape[:2]
    k = m + 1
    pairs = support.rows * n + support.cols
    joint = np.take(logits.reshape(m, n * n), pairs, axis=1).sum(axis=0)
    static = 2 * k / tau <= STATIC_SHIFT_LIMIT
    # anchor i of a reading is row i of z (axis 1: the pass) or of z.T (axis 0:
    # the reverse pass); ``order`` lists the pairs grouped by their anchor
    readings = [(axis, order) for axis, order, wanted in (
        (1, slice(None), rows), (0, support.transpose, cols)) if wanted]
    w_lse, w_pairs = [], 0.0
    for axis, order in readings:
        # the values' frame: the static shifts, m/tau here and 1/tau per matrix below, cancel
        w = joint[order] - m / tau
        top = 0.0 if static else np.maximum.reduceat(w, support.starts)
        w = np.exp(w if static else np.maximum(w - top[support.rows], EXP_FLOOR))
        total = np.add.reduceat(w, support.starts)
        if grad:
            w /= total[support.rows]
            w_pairs = w_pairs + w[order]
        w_lse.append(top + np.log(total))
    power_lse = [support.log_counts.copy() for _ in readings]
    for z in logits:
        np.subtract(z, 1.0 / tau, out=z)
        z *= k
        # past the limit, an anchor with all terms below exp(-STATIC_SHIFT_LIMIT) is shifted alone
        anchors = [z if axis else z.T for axis, _ in readings]
        low = [np.flatnonzero(a.max(axis=1) < -STATIC_SHIFT_LIMIT) for a in anchors if not static]
        own = [_softmax(a[i], 1, 1.0, EXP_FLOOR) for a, i in zip(anchors, low)]
        np.exp(z if static else np.maximum(z, EXP_FLOOR, out=z), out=z)
        sums = [z.sum(axis=axis, keepdims=True) for axis, _ in readings]
        log_sums = [np.log(reading_sums).reshape(n) for reading_sums in sums]
        for reading_sums, log_sum, i, (_, own_lse) in zip(sums, log_sums, low, own):
            log_sum[i] = own_lse.reshape(-1)
            reading_sums.reshape(n)[i] = np.inf  # 1 / sum = 0: the own softmax takes over
        for lse, log_sum in zip(power_lse, log_sums):
            lse += log_sum
        if grad:
            # E / rowsum + E / colsum, plus the own-shifted anchors' softmaxes
            z *= sum(1.0 / reading_sums for reading_sums in sums)
            for a, i, (p, _) in zip(anchors, low, own):
                a[i] += p
            z.reshape(n * n)[pairs] -= w_pairs
    values = [lse / k - joint_lse for lse, joint_lse in zip(power_lse, w_lse)]
    return values, logits if grad else None


def kl_log_target(support: LabelSupport) -> np.ndarray:
    """``log(q + KlConfig().epsilon)`` of the true-match PMF q, from its support."""
    eps, n = KlConfig().epsilon, support.starts.size
    log_q = np.full((n, n), np.log(eps))
    q = 1.0 / np.bincount(support.rows, minlength=n)
    log_q.reshape(n * n)[support.rows * n + support.cols] = np.log(q + eps)[support.rows]
    return log_q


def kl_logit_rows(
    logits: np.ndarray,
    log_q: np.ndarray,
    tau: float,
    rows: bool = True,
    cols: bool = True,
    grad: bool = True,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """``gcs_logit_rows`` for the smoothed KL (``tau`` unused): each reading's n values
    ``sum_m KL(p || q_i)``, p the softmax of row (or column) i of ``z_m``, and the summed
    gradient ``p (log p - log q - KL)`` as a new array (``None`` with ``grad`` False).
    ``log_q`` is ``kl_log_target`` of the batch's support, symmetric, so one array serves
    every reading and group. One exponential per reading."""
    values, grads = [], None
    for axis in [axis for axis, wanted in ((2, rows), (1, cols)) if wanted]:
        p, lse = _softmax(logits, axis, 1)
        diff = logits - lse
        diff -= log_q
        kl = (p * diff).sum(axis=axis, keepdims=True)
        values.append(kl.sum(axis=0).reshape(-1))
        if grad:
            diff -= kl
            diff *= p
            grads = diff if grads is None else np.add(diff, grads, out=diff)
    return values, grads


def matching_loss(
    kind: str, ring: ModalityRing, cfg: AlignConfig | None = None, *, grad: bool = True
) -> tuple[LossReport, list[np.ndarray] | None]:
    """Projection-matching loss of one kind, with its embedding gradients.

    ``kind`` is one of ``MATCHING_KINDS``, checked against the ring's M
    by ``check_kind``. ``gcs_ring`` sums the passes of the ring's
    strategy, keyed ``"forward"`` / ``"backward"``; ``bimodal_cs``,
    ``pairwise_cs`` and ``kl`` sum one-edge passes over every ordered
    modality pair, keyed by direction label in source-major order (``kl``
    smoothed by ``KlConfig().epsilon``). ``total`` is the sum of the
    per-pass batch means in that order, ``per_direction`` holds those
    means and ``per_sample`` the per-row sums over passes. The gradients
    are one n x d matrix per ring modality, index-aligned with
    ``ring.batches``; with ``grad`` False they are not computed and
    ``None`` comes in their place, next to the same report bit for bit.

    The ring validates the input; ``stack_matching_loss`` does the work.
    """
    tau = (cfg or AlignConfig()).temperature
    check_kind(kind, ring.m, tau)
    return stack_matching_loss(kind, *ring.arrays(), tau, grad=grad)


def stack_matching_loss(
    kind: str,
    stack: np.ndarray,
    labels: np.ndarray,
    names: Sequence[str],
    strategy: MatchStrategy,
    tau: float,
    *,
    grad: bool = True,
) -> tuple[LossReport, list[np.ndarray] | None]:
    """``matching_loss`` on unchecked arrays: the (M, n, d) ``stack``, the n
    labels all modalities share and M unique ``names`` (for the direction
    labels). The stack's row norms are checked here, by ``row_norms``.

    Every backward ring edge is a forward edge reversed, and every
    ordered pair (d, s) the pair (s, d) reversed, so the passes come in
    groups evaluated once. A group is a list of edges (src, dst): the
    ring's M, ``ring_edges(m, "forward")``, whose matrices ``z_m = U_m
    U_{m+1}^T / tau`` are read by rows for the forward pass and by
    columns for the backward one, or an unordered pair's one, read by
    rows for s -> d and by columns for d -> s. Each group costs one
    matmul per edge, one kernel call and, with ``grad``, one pair of
    matmuls per edge back to the embeddings, all on views, so no
    modality's rows are gathered; without ``grad``, the kernel returns
    values only and no gradient is formed.

    Working set with ``grad``: the stack, ``units``, ``scaled_t``,
    ``g_units`` (each M x n x d) and the logit buffer, which the kernel
    spends in place for its gradient. The buffer is dropped once the
    last group's backward is done; the radial projection, ``1/(n tau)``
    and ``/norms`` then act in place on ``g_units`` through one M x n x d
    scratch array, and the returned gradients are views of ``g_units``,
    fresh per call.
    """
    global _ASSOCIATION_PMF_COUNT
    if kind not in MATCHING_KINDS:
        raise ConfigError(f"unknown matching loss {kind!r}; expected one of {MATCHING_KINDS}")
    m, n = stack.shape[:2]
    if kind == "gcs_ring":
        order = ring_passes(strategy)
        groups = [(ring_edges(m, "forward"), "forward", "backward")]
    else:
        label = lambda s, d: direction_label(names[s], names[d])
        order = [label(s, d) for s in range(m) for d in range(m) if s != d]
        groups = [([(s, d)], label(s, d), label(d, s)) for s in range(m) for d in range(s + 1, m)]
    support = label_support(labels)
    if kind == "kl":
        kernel, target = kl_logit_rows, kl_log_target(support)
    else:
        kernel, target = gcs_logit_rows, support

    norms = row_norms(stack, "the embeddings")
    units = stack / norms
    scaled_t = units.transpose(0, 2, 1) / tau
    g_units = np.zeros_like(units) if grad else None
    # one logit buffer per call, a matrix per edge of a group; the kernel may spend it
    buffer = np.empty((len(groups[0][0]), n, n))
    values: dict[str, np.ndarray] = {}
    for edges, row_name, col_name in groups:
        passes = [name for name in (row_name, col_name) if name in order]
        for i, (s, d) in enumerate(edges):
            np.matmul(units[s], scaled_t[d], out=buffer[i])
        group_values, grads = kernel(
            buffer, target, tau, row_name in order, col_name in order, grad)
        values.update(zip(passes, group_values))
        _ASSOCIATION_PMF_COUNT += len(edges) * len(passes)
        if grad:
            for i, (s, d) in enumerate(edges):
                g_units[s] += grads[i] @ units[d]
                g_units[d] += grads[i].T @ units[s]
    # the logit stack is spent: drop it before the epilogue
    del buffer, grads
    total = 0.0
    per_sample = np.zeros(n)
    per_direction: dict[str, float] = {}
    for name in order:
        per_direction[name] = float(values[name].mean())
        total += per_direction[name]
        per_sample += values[name]
    # a non-finite pass mean makes the total non-finite as well
    finite = bool(np.isfinite(total) and np.all(np.isfinite(per_sample)))
    report = LossReport(total, per_direction, per_sample, finite)
    if not grad:
        return report, None
    # the batch mean and dz/dcos = 1/tau scale every logit gradient alike;
    # d(a/||a||)/da removes the radial component and divides by the norm
    radial = g_units * units
    np.multiply(radial.sum(axis=2, keepdims=True), units, out=radial)
    g_units -= radial
    g_units *= 1.0 / (n * tau)
    g_units /= norms
    return report, list(g_units)


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
    return matching_loss("bimodal_cs", ModalityRing((a, b)), cfg, grad=False)[0]


def gcs_ring_loss(ring: ModalityRing, cfg: AlignConfig | None = None) -> LossReport:
    """Circular multi-modal alignment loss.

    For each included pass (clockwise and/or counterclockwise per the
    ring's strategy) and each anchor i, one GCS divergence is taken
    over the M projection PMFs of that pass plus the true-match PMF --
    M+1 distributions, norm exponent M+1. The total is the batch mean
    of the per-anchor sums; ``per_direction`` holds the forward and
    backward components.
    """
    return matching_loss("gcs_ring", ring, cfg, grad=False)[0]


def pairwise_sum_loss(ring: ModalityRing, cfg: AlignConfig | None = None) -> LossReport:
    """Exhaustive pairwise baseline: one directional projection-matching
    CS loss per ordered modality pair, summed over all M(M-1) pairs.
    ``matching_loss("kl", ring)`` is the same sum with the smoothed KL
    divergence per row.
    """
    return matching_loss("pairwise_cs", ring, cfg, grad=False)[0]
