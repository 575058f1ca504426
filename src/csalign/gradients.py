"""Analytic gradients of every loss, verified against finite differences.

Gradients are taken with respect to the raw embedding matrices (one
n x d matrix per modality), through the chain

    embeddings -> unit rows -> logits z = cos / tau -> divergence

for the projection-matching losses, and directly through the kernel or
covariance algebra for MMD and CORAL. ``central_difference`` is the
independent oracle: a plain two-sided difference quotient per
coordinate, which any analytic gradient here must match to ~1e-5
relative error at the default step.

Every kind has one code path, ``stack_loss_gradient`` on arrays, which
``loss_gradient`` and the trainer call. The projection-matching kinds
(CS, GCS ring, pairwise CS, KL) have no loop of their own here: they
return the total and the gradients of ``losses.stack_matching_loss``,
the log-domain engine that the forward losses run too, and the
finite-difference closure differentiates that engine's total.

The MMD median-heuristic bandwidth is resolved once at the evaluation
point and then treated as a constant, both in the analytic path and in
the finite-difference closure; the heuristic itself is not
differentiated. MMD is the one kind that uses scipy: ``_mmd_grad``
imports ``cdist`` inside the function (as do the bandwidth and value in
``divergence``), so training with any other kind never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divergence import KlConfig, MmdConfig, coral_loss, mmd_squared, resolve_bandwidth
from .errors import ConfigError, NonFinitePerturbation
from .losses import MATCHING_KINDS, MatchStrategy, ModalityRing, stack_matching_loss
from .pmf import AlignConfig, row_norms

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


def _mmd_grad(x: np.ndarray, y: np.ndarray, sigma: float):
    from scipy.spatial.distance import cdist

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


def _coral_grad(x: np.ndarray, y: np.ndarray):
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

def stack_loss_gradient(
    loss_kind: str,
    stack: np.ndarray,
    labels: np.ndarray,
    names: Sequence[str],
    strategy: MatchStrategy,
    tau: float,
    *,
    kl_cfg: KlConfig | None = None,
    mmd_cfg: MmdConfig | None = None,
) -> tuple[float, list[np.ndarray]]:
    """``loss_gradient`` on the arguments of ``losses.stack_matching_loss``;
    one n x d gradient per modality. The stack's row norms are checked
    here, once (``row_norms``), and handed to the engine."""
    norms = row_norms(stack, "the embeddings")
    if loss_kind == "mmd":
        sigma = resolve_bandwidth(stack[0], stack[1], mmd_cfg)
        return _mmd_grad(stack[0], stack[1], sigma)
    if loss_kind == "coral":
        return _coral_grad(stack[0], stack[1])
    report, grads = stack_matching_loss(
        loss_kind, stack, labels, names, strategy, tau, kl_cfg, norms
    )
    return report.total, grads


def loss_gradient(
    loss_kind: str,
    ring: ModalityRing,
    align_cfg: AlignConfig | None = None,
    *,
    kl_cfg: KlConfig | None = None,
    mmd_cfg: MmdConfig | None = None,
) -> tuple[float, GradientBundle]:
    """Loss value and exact embedding gradients for one loss kind.

    ``loss_kind`` is one of ``LOSS_KINDS``. For the projection-matching
    kinds the scalar is the ``total`` of the corresponding forward loss,
    bit for bit; the bundle holds one n x d gradient matrix per ring
    modality.
    """
    check_kind(loss_kind, ring.m)
    tau = (align_cfg or AlignConfig()).temperature
    value, grads = stack_loss_gradient(
        loss_kind, *ring.arrays(), tau, kl_cfg=kl_cfg, mmd_cfg=mmd_cfg
    )
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
    if loss_kind in MATCHING_KINDS:
        _, *ring_args = ring.arrays()
        tau = (align_cfg or AlignConfig()).temperature
        return lambda arrays: stack_matching_loss(
            loss_kind, np.stack(arrays), *ring_args, tau, kl_cfg
        )[0].total
    if loss_kind == "mmd":
        sigma = resolve_bandwidth(ring.batches[0].data, ring.batches[1].data, mmd_cfg)
        frozen = MmdConfig(sigma)
        return lambda arrays: mmd_squared(arrays[0], arrays[1], frozen)
    # coral
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
    check_kind(loss_kind, ring.m)
    fn = _loss_closure(loss_kind, ring, align_cfg, kl_cfg, mmd_cfg)
    grads = central_difference(fn, [b.data for b in ring.batches], step)
    return GradientBundle(tuple(grads))


def check_kind(loss_kind: str, m: int) -> None:
    """Reject an unknown loss kind, or one that is not defined for M modalities."""
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    if loss_kind in _PAIR_ONLY and m != 2:
        raise ConfigError(f"loss kind {loss_kind!r} is defined for exactly two modalities")
    if loss_kind == "bimodal_cs" and m != 2:
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
