"""Analytic gradients of every loss, verified against finite differences.

Gradients are taken with respect to the raw embedding matrices (one
n x d matrix per modality), through the chain

    embeddings -> unit rows -> logits z = cos / tau -> divergence

for the projection-matching losses, and directly through the kernel or
covariance algebra for MMD and CORAL. ``central_difference`` is the
independent oracle: a plain two-sided difference quotient per
coordinate, which any analytic gradient here must match to ~1e-5
relative error at the default step.

CS and GCS are scale invariant, so the softmax normalisers cancel and
the association PMFs are never formed. For one pass with M logit
matrices ``z_m`` (one per edge) and ``c_i`` same-label items in row i,
the GCS of the M projections plus the true-match PMF (exponent M+1) is

    l_i = (sum_m lse((M+1) z_m,i) + log c_i) / (M+1)
          - lse_{k: y_k = y_i} (sum_m z_m,ik)

with gradient ``dl_i / dz_m,i = softmax((M+1) z_m,i) - w_i``, where
``w_i`` is the softmax of ``sum_m z_m,i`` restricted to row i's label
support and is shared by every edge of the pass. CS is the M = 1 case
(exponent 2): ``bimodal_cs`` and ``pairwise_cs`` are passes with one
edge. Each exponential is max-subtracted, so the value and gradient
stay finite wherever the divergence is, at any M and temperature.

The MMD median-heuristic bandwidth is resolved once at the evaluation
point and then treated as a constant, both in the analytic path and in
the finite-difference closure; the heuristic itself is not
differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .divergence import KlConfig, MmdConfig, mmd_squared, resolve_bandwidth
from .errors import ConfigError, NonFinitePerturbation
from .losses import ModalityRing, ring_edges, ring_passes
from .pmf import AlignConfig, EmbeddingBatch

LOSS_KINDS = ("bimodal_cs", "gcs_ring", "pairwise_cs", "kl", "mmd", "coral")

_PAIR_ONLY = ("mmd", "coral")


@dataclass(frozen=True)
class GradientBundle:
    """Per-modality gradients, index-aligned with a ring's batches."""

    grads: tuple[np.ndarray, ...]

    def __iter__(self):
        return iter(self.grads)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.grads[i]


# ---------------------------------------------------------------------------
# projection-matching losses, computed from the logits

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


def _matching_grad(ring: ModalityRing, tau: float, passes, pass_rows):
    """Sum over passes of the batch-mean per-row loss, and its embedding grads.

    ``passes`` lists the (src, dst) edges of each pass; ``pass_rows``
    maps the pass's stacked logit matrices to per-row values and logit
    grads. Gradients are accumulated with respect to the unit rows, and
    the radial part is removed once per modality at the end.
    """
    data = np.stack([b.data for b in ring.batches])
    norms = np.linalg.norm(data, axis=2, keepdims=True)
    units = data / norms
    scaled_t = units.transpose(0, 2, 1) / tau
    g_units = np.zeros_like(units)
    # one logit buffer per call: pass_rows writes its gradients over it
    buffer = np.empty((max(len(edges) for edges in passes), ring.n, ring.n))
    value = 0.0
    for edges in passes:
        src, dst = np.array(edges).T
        logits = np.matmul(units[src], scaled_t[dst], out=buffer[: len(edges)])
        values, grads = pass_rows(logits)
        value += float(values.mean())
        # within a pass no modality is the source, or the target, of two edges
        g_units[src] += grads @ units[dst]
        g_units[dst] += grads.transpose(0, 2, 1) @ units[src]
    # the batch mean and dz/dcos = 1/tau scale every logit gradient alike;
    # d(a/||a||)/da removes the radial component and divides by the norm
    radial = (g_units * units).sum(axis=2, keepdims=True) * units
    return value, list((g_units - radial) * (1.0 / (ring.n * tau)) / norms)


def _passes(loss_kind: str, ring: ModalityRing) -> list[list[tuple[int, int]]]:
    if loss_kind == "gcs_ring":
        return [ring_edges(ring.m, direction) for direction in ring_passes(ring.strategy)]
    m = ring.m
    return [[(src, dst)] for src in range(m) for dst in range(m) if src != dst]


def _mmd_grad(ring: ModalityRing, sigma: float):
    x = ring.batches[0].data
    y = ring.batches[1].data
    n_x, n_y = x.shape[0], y.shape[0]
    gamma = 1.0 / (2.0 * sigma * sigma)
    k_xx = np.exp(-gamma * cdist(x, x, "sqeuclidean"))
    k_yy = np.exp(-gamma * cdist(y, y, "sqeuclidean"))
    k_xy = np.exp(-gamma * cdist(x, y, "sqeuclidean"))
    value = float(
        k_xx.sum() / n_x**2 + k_yy.sum() / n_y**2 - 2.0 * k_xy.sum() / (n_x * n_y)
    )
    coef = 2.0 / (sigma * sigma)
    t_xx = k_xx.sum(axis=1, keepdims=True) * x - k_xx @ x
    t_xy = k_xy.sum(axis=1, keepdims=True) * x - k_xy @ y
    g_x = -coef * (t_xx / n_x**2 - t_xy / (n_x * n_y))
    t_yy = k_yy.sum(axis=1, keepdims=True) * y - k_yy @ y
    t_yx = k_xy.sum(axis=0)[:, None] * y - k_xy.T @ x
    g_y = -coef * (t_yy / n_y**2 - t_yx / (n_x * n_y))
    return value, [g_x, g_y]


def _coral_grad(ring: ModalityRing):
    x = ring.batches[0].data
    y = ring.batches[1].data
    d = x.shape[1]
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    c_x = xc.T @ xc / (x.shape[0] - 1)
    c_y = yc.T @ yc / (y.shape[0] - 1)
    diff = c_x - c_y
    value = float((diff * diff).sum() / (4.0 * d * d))
    # columns of xc @ diff have zero mean, so recentring is a no-op
    g_x = xc @ diff / ((x.shape[0] - 1) * d * d)
    g_y = -yc @ diff / ((y.shape[0] - 1) * d * d)
    return value, [g_x, g_y]


# ---------------------------------------------------------------------------
# public API

def loss_gradient(
    loss_kind: str,
    ring: ModalityRing,
    align_cfg: AlignConfig | None = None,
    *,
    kl_cfg: KlConfig | None = None,
    mmd_cfg: MmdConfig | None = None,
) -> tuple[float, GradientBundle]:
    """Loss value and exact embedding gradients for one loss kind.

    ``loss_kind`` is one of ``LOSS_KINDS``. The returned scalar matches
    the corresponding forward operation to within rounding; the bundle
    holds one n x d gradient matrix per ring modality.
    """
    _check_kind(loss_kind, ring)
    tau = (align_cfg or AlignConfig()).temperature
    if loss_kind == "mmd":
        sigma = resolve_bandwidth(ring.batches[0].data, ring.batches[1].data, mmd_cfg)
        value, grads = _mmd_grad(ring, sigma)
    elif loss_kind == "coral":
        value, grads = _coral_grad(ring)
    else:
        if loss_kind == "kl":
            same_label = ring.labels[:, None] == ring.labels[None, :]
            q = same_label / same_label.sum(axis=1, keepdims=True)
            log_q = np.log(q + (kl_cfg or KlConfig()).epsilon)
            pass_rows = lambda logits: _kl_logit_rows(logits, log_q)
        else:
            support = label_support(ring.labels)
            pass_rows = lambda logits: gcs_logit_rows(logits, support)
        value, grads = _matching_grad(ring, tau, _passes(loss_kind, ring), pass_rows)
    return value, GradientBundle(tuple(grads))


def central_difference(
    fn: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    step: float = 1e-5,
) -> list[np.ndarray]:
    """Central finite differences of ``fn`` in every array coordinate.

    ``fn`` receives the (mutated in place) list of arrays and must
    return a scalar. Raises :class:`NonFinitePerturbation` if the
    functional is non-finite at the base point or any probe.
    """
    if not (step > 0):
        raise ConfigError(f"step must be positive, got {step}")
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    base = fn(arrays)
    if not np.isfinite(base):
        raise NonFinitePerturbation(f"loss is non-finite at the base point: {base}")
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = fn(arrays)
            flat[i] = orig - step
            f_minus = fn(arrays)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFinitePerturbation("perturbed loss is non-finite")
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
        grads.append(grad)
    return grads


def _loss_closure(
    loss_kind: str,
    ring: ModalityRing,
    align_cfg: AlignConfig | None,
    kl_cfg: KlConfig | None,
    mmd_cfg: MmdConfig | None,
) -> Callable[[Sequence[np.ndarray]], float]:
    """Rebuild the loss as a pure function of the embedding arrays.

    Data-dependent constants (the MMD bandwidth) are frozen here so the
    closure is smooth in its arguments.
    """
    from .losses import bimodal_cmpm_cs, gcs_ring_loss, pairwise_sum_loss

    labels = ring.labels
    names = [b.modality_name for b in ring.batches]
    strategy = ring.strategy
    align_cfg = align_cfg or AlignConfig()

    def rebuild(arrays: Sequence[np.ndarray]) -> ModalityRing:
        batches = tuple(
            EmbeddingBatch(np.asarray(a), labels, name) for a, name in zip(arrays, names)
        )
        return ModalityRing(batches, strategy)

    if loss_kind == "bimodal_cs":
        return lambda arrays: bimodal_cmpm_cs(
            *rebuild(arrays).batches, cfg=align_cfg
        ).total
    if loss_kind == "gcs_ring":
        return lambda arrays: gcs_ring_loss(rebuild(arrays), align_cfg).total
    if loss_kind == "pairwise_cs":
        return lambda arrays: pairwise_sum_loss(rebuild(arrays), align_cfg, "cs").total
    if loss_kind == "kl":
        return lambda arrays: pairwise_sum_loss(
            rebuild(arrays), align_cfg, "kl", kl_cfg or KlConfig()
        ).total
    if loss_kind == "mmd":
        sigma = resolve_bandwidth(ring.batches[0].data, ring.batches[1].data, mmd_cfg)
        frozen = MmdConfig(sigma)
        return lambda arrays: mmd_squared(arrays[0], arrays[1], frozen)
    # coral
    from .divergence import coral_loss

    return lambda arrays: coral_loss(arrays[0], arrays[1])


def finite_diff_gradient(
    loss_kind: str,
    ring: ModalityRing,
    align_cfg: AlignConfig | None = None,
    *,
    kl_cfg: KlConfig | None = None,
    mmd_cfg: MmdConfig | None = None,
    step: float = 1e-5,
) -> GradientBundle:
    """Finite-difference oracle for :func:`loss_gradient`."""
    _check_kind(loss_kind, ring)
    fn = _loss_closure(loss_kind, ring, align_cfg, kl_cfg, mmd_cfg)
    grads = central_difference(fn, [b.data for b in ring.batches], step)
    return GradientBundle(tuple(grads))


def _check_kind(loss_kind: str, ring: ModalityRing) -> None:
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    if loss_kind in _PAIR_ONLY and ring.m != 2:
        raise ConfigError(f"loss kind {loss_kind!r} is defined for exactly two modalities")
    if loss_kind == "bimodal_cs" and ring.m != 2:
        raise ConfigError("bimodal_cs needs a two-modality ring")


def max_relative_error(
    analytic: GradientBundle, numeric: GradientBundle, floor: float = 1e-8
) -> float:
    """Max over coordinates of |a - b| / max(floor, |a| + |b|)."""
    worst = 0.0
    for a, b in zip(analytic.grads, numeric.grads):
        denom = np.maximum(floor, np.abs(a) + np.abs(b))
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst
