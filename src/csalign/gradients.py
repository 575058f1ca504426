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
``loss_gradient`` and the trainer call. ``losses.LOSS_TABLE`` is the one
place where a kind is described. The kinds with edges there (CS, GCS
ring, pairwise CS, KL) have no loop of their own here: they return the
total and the gradients of ``losses.stack_matching_loss``, the
log-domain engine that the forward losses run too, and the
finite-difference closure differentiates that engine's total. The
forward losses and the closure ask the engine for values only
(``grad=False``): the same total bit for bit, with no gradient formed.
MMD and CORAL, which have no edges, are reached through ``_LABEL_FREE``.

The MMD median-heuristic bandwidth is resolved once at the evaluation
point and then treated as a constant, both in the analytic path and in
the finite-difference closure; the heuristic itself is not
differentiated. The analytic path takes the value, the bandwidth and
the kernel blocks from one ``divergence.mmd_kernels`` call, so it
computes each pairwise distance once; CORAL's takes ``coral_loss``'s
value and its covariance algebra from one ``divergence.coral_terms``
call. Like the rest of the package it needs numpy only.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .divergence import (MmdConfig, coral_loss, coral_terms, mmd_kernels, mmd_squared,
                         resolve_bandwidth)
from .errors import ConfigError, NonFinitePerturbation
from .losses import (LabelSupport, MatchStrategy, ModalityRing, check_kind, label_support,
                     stack_matching_loss)
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
    value, xc, yc, diff = coral_terms(x, y)
    d = x.shape[1]
    # columns of xc @ diff have zero mean, so recentring is a no-op
    g_x = xc @ diff / ((x.shape[0] - 1) * d * d)
    g_y = -yc @ diff / ((y.shape[0] - 1) * d * d)
    return value, [g_x, g_y]


def _mmd_closure(x: np.ndarray, y: np.ndarray):
    frozen = MmdConfig(resolve_bandwidth(x, y))
    return lambda arrays: mmd_squared(arrays[0], arrays[1], frozen)


# The kinds with no edges in ``losses.LOSS_TABLE``: each one's analytic value and gradients,
# and its ``_loss_closure`` built at (x, y) (CORAL has no data-dependent constant to freeze).
_LABEL_FREE = {"mmd": (_mmd_grad, _mmd_closure),
               "coral": (_coral_grad, lambda x, y: lambda arrays: coral_loss(*arrays))}


# ---------------------------------------------------------------------------
# public API

def stack_loss_gradient(
    loss_kind: str,
    stack: np.ndarray,
    support: LabelSupport | None,
    names: Sequence[str],
    strategy: MatchStrategy,
    tau: float,
) -> tuple[float, list[np.ndarray]]:
    """``loss_gradient`` on the arguments of ``losses.stack_matching_loss``;
    one n x d gradient per modality. MMD and CORAL read no ``support``
    (it may be None). The stack's row norms are checked once per call
    (``row_norms``): by the engine, or here for MMD and CORAL."""
    if loss_kind not in _LABEL_FREE:
        report, grads = stack_matching_loss(loss_kind, stack, support, names, strategy, tau)
        return report.total, grads
    row_norms(stack, "the embeddings")
    gradient, _ = _LABEL_FREE[loss_kind]
    return gradient(stack[0], stack[1])


def loss_gradient(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None = None
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Loss value and exact embedding gradients for one loss kind.

    ``loss_kind`` is one of ``LOSS_KINDS``. For the projection-matching
    kinds the scalar is the ``total`` of the corresponding forward loss,
    bit for bit; the tuple holds one n x d gradient matrix per ring
    modality. MMD uses the median-heuristic bandwidth.
    """
    tau = (align_cfg or AlignConfig()).temperature
    check_kind(loss_kind, ring.m, tau)
    stack, labels, names, strategy = ring.arrays()
    support = None if loss_kind in _LABEL_FREE else label_support(labels)
    value, grads = stack_loss_gradient(loss_kind, stack, support, names, strategy, tau)
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

    Data-dependent constants (the MMD bandwidth) are frozen when it is
    built, so the closure is smooth in its arguments.
    """
    if loss_kind not in _LABEL_FREE:
        _, labels, names, strategy = ring.arrays()
        support, tau = label_support(labels), (align_cfg or AlignConfig()).temperature
        return lambda a: stack_matching_loss(
            loss_kind, np.stack(a), support, names, strategy, tau, grad=False
        )[0].total
    _, closure = _LABEL_FREE[loss_kind]
    return closure(ring.batches[0].data, ring.batches[1].data)


def finite_diff_gradient(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None = None, *, step: float = 1e-5
) -> tuple[np.ndarray, ...]:
    """Finite-difference oracle for :func:`loss_gradient`."""
    check_kind(loss_kind, ring.m, (align_cfg or AlignConfig()).temperature)
    fn = _loss_closure(loss_kind, ring, align_cfg)
    return tuple(central_difference(fn, [b.data for b in ring.batches], step))


def max_relative_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray]) -> float:
    """Max over coordinates of |a - b| / max(1e-8, |a| + |b|)."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst
