"""The ring gradient entry and the finite-difference oracle.

``loss_gradient`` gives a loss's value and its gradients with respect
to the raw embedding matrices (one n x d matrix per modality) of a
``ModalityRing``: one ``ring.engine_args`` call, then
``losses.stack_loss_gradient``, the array-level path that the trainer
calls too. ``losses.LOSS_TABLE`` is the one place where a kind is
described; the engine differentiates through the chain

    embeddings -> unit rows -> logits z = cos / tau -> divergence

for the projection-matching kinds, and MMD's and CORAL's kernels through
their kernel or covariance algebra.

``central_difference`` is the independent oracle: a plain two-sided
difference quotient per coordinate, which any analytic gradient here
must match to ~1e-5 relative error at the default step. The closure it
differentiates is the engine's total, asked for values only
(``grad=False``: the same total bit for bit, with no gradient formed),
or the kernel's value for a kind without edges. The MMD median-heuristic
bandwidth is resolved once at the evaluation point and then treated as
a constant, both in the analytic path and in the closure (``_FROZEN``);
the heuristic itself is not differentiated. Like the rest of the
package it needs numpy only.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .divergence import MmdConfig, mmd_squared, resolve_bandwidth
from .errors import ConfigError, NonFinitePerturbation
from .losses import LOSS_TABLE, ModalityRing, stack_loss_gradient, stack_matching_loss
from .pmf import AlignConfig


def loss_gradient(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None = None
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Loss value and exact embedding gradients for one loss kind.

    ``loss_kind`` is one of ``LOSS_KINDS``. For the projection-matching
    kinds the scalar is the ``total`` of the corresponding forward loss,
    bit for bit; the tuple holds one n x d gradient matrix per ring
    modality. MMD uses the median-heuristic bandwidth.
    """
    value, grads = stack_loss_gradient(loss_kind, *ring.engine_args(loss_kind, align_cfg))
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


def _mmd_closure(x: np.ndarray, y: np.ndarray) -> Callable[[Sequence[np.ndarray]], float]:
    frozen = MmdConfig(resolve_bandwidth(x, y))
    return lambda arrays: mmd_squared(arrays[0], arrays[1], frozen)


# The closures built at the evaluation point (x, y) that freeze a data-dependent constant
# there: MMD's bandwidth.
_FROZEN = {"mmd": _mmd_closure}


def _loss_closure(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None
) -> Callable[[Sequence[np.ndarray]], float]:
    """Rebuild the loss as a pure function of the embedding arrays: the
    engine's total, a kernel's value, or a ``_FROZEN`` closure.

    Data-dependent constants (the MMD bandwidth) are frozen when it is
    built, so the closure is smooth in its arguments.
    """
    stack, support, names, strategy, tau = ring.engine_args(loss_kind, align_cfg)
    if loss_kind in _FROZEN:
        return _FROZEN[loss_kind](*stack)
    if support is None:
        return lambda a: LOSS_TABLE[loss_kind].kernel(*a)[0]
    return lambda a: stack_matching_loss(
        loss_kind, np.stack(a), support, names, strategy, tau, grad=False
    )[0].total


def finite_diff_gradient(
    loss_kind: str, ring: ModalityRing, align_cfg: AlignConfig | None = None, *, step: float = 1e-5
) -> tuple[np.ndarray, ...]:
    """Finite-difference oracle for :func:`loss_gradient`."""
    fn = _loss_closure(loss_kind, ring, align_cfg)
    return tuple(central_difference(fn, [b.data for b in ring.batches], step))


def max_relative_error(analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray]) -> float:
    """Max over coordinates of |a - b| / max(1e-8, |a| + |b|)."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst
