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
differentiated. The analytic path takes the value, the bandwidth and
the kernel blocks from one ``divergence.mmd_kernels`` call, so it
computes each pairwise distance once; like the rest of the package it
needs numpy only.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .divergence import MmdConfig, coral_loss, mmd_kernels, mmd_squared, resolve_bandwidth
from .errors import ConfigError, NonFinitePerturbation
from .losses import MATCHING_KINDS, MatchStrategy, ModalityRing, check_kind, stack_matching_loss
from .pmf import AlignConfig, row_norms


def _mmd_grad(x: np.ndarray, y: np.ndarray):
    value, sigma, (k_xx, k_yy, k_xy) = mmd_kernels(x, y)
    n_x, n_y = x.shape[0], y.shape[0]
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
) -> tuple[float, list[np.ndarray]]:
    """``loss_gradient`` on the arguments of ``losses.stack_matching_loss``;
    one n x d gradient per modality. The stack's row norms are checked
    once per call (``row_norms``): by the engine, or here for MMD and
    CORAL."""
    if loss_kind not in ("mmd", "coral"):
        report, grads = stack_matching_loss(loss_kind, stack, labels, names, strategy, tau)
        return report.total, grads
    row_norms(stack, "the embeddings")
    if loss_kind == "mmd":
        return _mmd_grad(stack[0], stack[1])
    return _coral_grad(stack[0], stack[1])


def loss_gradient(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None = None
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Loss value and exact embedding gradients for one loss kind.

    ``loss_kind`` is one of ``LOSS_KINDS``. For the projection-matching
    kinds the scalar is the ``total`` of the corresponding forward loss,
    bit for bit; the tuple holds one n x d gradient matrix per ring
    modality. MMD uses the median-heuristic bandwidth.
    """
    check_kind(loss_kind, ring.m)
    tau = (align_cfg or AlignConfig()).temperature
    value, grads = stack_loss_gradient(loss_kind, *ring.arrays(), tau)
    return value, tuple(grads)


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
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None
) -> Callable[[Sequence[np.ndarray]], float]:
    """Rebuild the loss as a pure function of the embedding arrays.

    Data-dependent constants (the MMD bandwidth) are frozen here so the
    closure is smooth in its arguments.
    """
    if loss_kind in MATCHING_KINDS:
        _, *ring_args = ring.arrays()
        tau = (align_cfg or AlignConfig()).temperature
        return lambda a: stack_matching_loss(loss_kind, np.stack(a), *ring_args, tau)[0].total
    if loss_kind == "mmd":
        frozen = MmdConfig(resolve_bandwidth(ring.batches[0].data, ring.batches[1].data))
        return lambda arrays: mmd_squared(arrays[0], arrays[1], frozen)
    # coral
    return lambda arrays: coral_loss(arrays[0], arrays[1])


def finite_diff_gradient(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None = None, *, step: float = 1e-5
) -> tuple[np.ndarray, ...]:
    """Finite-difference oracle for :func:`loss_gradient`."""
    check_kind(loss_kind, ring.m)
    fn = _loss_closure(loss_kind, ring, align_cfg)
    return tuple(central_difference(fn, [b.data for b in ring.batches], step))


def max_relative_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray]) -> float:
    """Max over coordinates of |a - b| / max(1e-8, |a| + |b|)."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst
