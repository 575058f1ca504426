"""Seeded randomized property checks for the divergence family.

Each property is a row of ``_PROPERTIES``: a one-trial function that
draws its tuple and returns ``(margin, held)``, and the rule that picks
the worst margin; a nan margin never holds and is the worst.
``run_property_suite`` runs every row from its own deterministic
generator and reports a failure count plus the worst observed margin,
so the suite doubles as a regression gate (all failure counts must be
zero) and a diagnostic (how close the worst case came to its tolerance).

``gcs_fn`` is injectable purely as a fault hook: the tests pass a
broken divergence to prove the suite actually fails when the math is
wrong.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .divergence import (
    DivergenceValue,
    cs_divergence,
    gcs_divergence,
    gcs_divergence_unnormalized,
    holder_check,
)

GcsFn = Callable[[list[np.ndarray]], DivergenceValue]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_pmfs(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    rows = rng.uniform(0.05, 1.0, size=(m, k))
    return rows / rows.sum(axis=1, keepdims=True)


def _draw_mk(rng: np.random.Generator, m_min: int = 2) -> tuple[int, int]:
    """M in [m_min, 5], then K in [2, 64]."""
    m = int(rng.integers(m_min, 6))
    k = int(rng.integers(2, 65))
    return m, k


def _non_negativity(rng, gcs_fn):
    """GCS of random PMF tuples is never below -1e-12."""
    m, k = _draw_mk(rng)
    value = gcs_fn(list(_random_pmfs(rng, m, k))).value
    return value, value >= -1e-12


def _identity_zero(rng, gcs_fn):
    """M identical PMFs give |GCS| <= 1e-12 (Hoelder equality case)."""
    m, k = _draw_mk(rng)
    base = _random_pmfs(rng, 1, k)[0]
    value = abs(gcs_fn([base.copy() for _ in range(m)]).value)
    return value, value <= 1e-12


def _perturbation_detected(rng, gcs_fn):
    """+0.01 on one coordinate of one input (renormalized) gives > 1e-6.

    Bases are kept moderately skewed (entries in [0.5, 1] before
    normalization): on a highly concentrated PMF a one-coordinate bump
    is either nearly proportional (dominant coordinate) or nearly
    invisible to the M-th power weighting (tiny coordinate), so the
    true divergence can legitimately fall below the 1e-6 floor there.
    """
    m, k = _draw_mk(rng)
    base = rng.uniform(0.5, 1.0, size=k)
    base /= base.sum()
    pmfs = [base.copy() for _ in range(m)]
    which = int(rng.integers(m))
    coord = int(rng.integers(k))
    pmfs[which][coord] += 0.01
    pmfs[which] /= pmfs[which].sum()
    value = gcs_fn(pmfs).value
    return value, value > 1e-6


def _symmetry(rng, gcs_fn):
    """GCS is invariant under every permutation of its inputs (1e-12)."""
    m, k = _draw_mk(rng, m_min=3)
    pmfs = list(_random_pmfs(rng, m, k))
    reference = gcs_fn(pmfs).value
    spread = np.max([
        abs(gcs_fn([pmfs[i] for i in perm]).value - reference)
        for perm in itertools.permutations(range(m))
    ])
    return spread, spread <= 1e-12


def _scale_invariance(rng, gcs_fn):
    """Positive per-vector scaling leaves the value unchanged (1e-9 rel).

    Both sides call the real divergence, not ``gcs_fn``: the property
    checks the unnormalized entry point against the normalized one.
    """
    m, k = _draw_mk(rng)
    pmfs = _random_pmfs(rng, m, k)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
    base = gcs_divergence(list(pmfs)).value
    scaled = gcs_divergence_unnormalized(list(pmfs * scales[:, None])).value
    rel = abs(scaled - base) / max(1e-15, abs(base))
    return rel, rel <= 1e-9


def _m2_reduction(rng, gcs_fn):
    """GCS of two PMFs equals the CS divergence to 1e-12."""
    _, k = _draw_mk(rng)
    p, q = _random_pmfs(rng, 2, k)
    gap = abs(gcs_fn([p, q]).value - cs_divergence(p, q).value)
    return gap, gap <= 1e-12


def _power_sum_bounds(rng, gcs_fn):
    """sum p^2 >= 1/K and sum p^M >= 1/K^(M-1), equality at uniform."""
    m, k = _draw_mk(rng)
    p = _random_pmfs(rng, 1, k)[0]
    margin2 = float((p * p).sum() - 1.0 / k)
    margin_m = float(np.power(p, m).sum() - k ** (1.0 - m))
    uniform = np.full(k, 1.0 / k)
    eq_gap = abs(float(np.power(uniform, m).sum() - k ** (1.0 - m)))
    failed = margin2 < -1e-12 or margin_m < -1e-12 or eq_gap > 1e-12
    return min(margin2, margin_m), not failed


def _holder_inequality(rng, gcs_fn):
    """lhs <= rhs for random non-negative tuples, zeros included."""
    m, k = _draw_mk(rng)
    rows = rng.uniform(0.0, 1.0, size=(m, k))
    rows[rng.uniform(size=(m, k)) < 0.15] = 0.0
    check = holder_check(list(rows))
    return check.lhs - check.rhs, check.holds


class _Property(NamedTuple):
    name: str
    trial: Callable  # (rng, gcs_fn) -> (margin, held)
    worst: Callable  # np.minimum or np.maximum: the worst margin, nan if any is nan
    start: float  # the worst margin before the first trial
    halved: bool = False  # run max(1, trials // 2) trials instead of trials


# property i draws from default_rng(seed + i)
_PROPERTIES = (
    _Property("non_negativity", _non_negativity, np.minimum, np.inf),
    _Property("identity_zero", _identity_zero, np.maximum, 0.0),
    _Property("perturbation_detected", _perturbation_detected, np.minimum, np.inf),
    _Property("symmetry", _symmetry, np.maximum, 0.0, halved=True),  # M! permutations per trial
    _Property("scale_invariance", _scale_invariance, np.maximum, 0.0),
    _Property("m2_reduction", _m2_reduction, np.maximum, 0.0),
    _Property("power_sum_bounds", _power_sum_bounds, np.minimum, np.inf),
    _Property("holder_inequality", _holder_inequality, np.maximum, -np.inf),
)


def run_property_suite(
    trials: int = 200, seed: int = 0, gcs_fn: GcsFn = gcs_divergence
) -> list[PropertyResult]:
    """Run every property with ``trials`` tuples each (symmetry, whose
    trials evaluate every permutation, with half as many)."""
    results = []
    for i, prop in enumerate(_PROPERTIES):
        rng = np.random.default_rng(seed + i)
        count = max(1, trials // 2) if prop.halved else trials
        failures, worst = 0, prop.start
        for _ in range(count):
            margin, held = prop.trial(rng, gcs_fn)
            worst = prop.worst(worst, margin)
            failures += not held
        results.append(PropertyResult(prop.name, count, failures, float(worst)))
    return results
