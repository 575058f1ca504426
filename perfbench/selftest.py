"""Self-test of the benchmark's checks: each must pass on correct outputs and
fail on a planted fault.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Exits 0 when every check caught its
fault, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import csalign.train  # noqa: E402
from csalign import LOSS_KINDS, EmbeddingBatch, ModalityRing, loss_gradient  # noqa: E402
from csalign.train import EpochRecord, TrainingTrace, evaluate_directions  # noqa: E402


def _small_ring(rng, kind):
    m = 3 if kind in ("gcs_ring", "pairwise_cs") else 2
    labels = rng.permutation(np.repeat(np.arange(3), 2))
    arrays = [rng.normal(size=(6, 3)) for _ in range(m)]
    ring = ModalityRing(tuple(EmbeddingBatch(a, labels, f"s{i}") for i, a in enumerate(arrays)))
    return ring, arrays, labels


def gradient_cases(rng):
    for kind in LOSS_KINDS:
        ring, arrays, labels = _small_ring(rng, kind)
        value, bundle = loss_gradient(kind, ring)
        numeric = checks.reference_gradient(kind, arrays, labels)
        reference = checks.reference_loss(kind, arrays, labels)
        yield f"{kind} gradient", checks.check_gradient(kind, bundle, numeric), \
            checks.check_gradient(kind, [-g for g in bundle], numeric)
        yield f"{kind} value", checks.check_value(kind, value, reference), \
            checks.check_value(kind, value * (1 + 1e-6), reference)
    yield "association PMF count", checks.check_count("ring", 6, 6), checks.check_count("ring", 7, 6)


def _retrieval_batches(rng, n=120, dups=12):
    base = np.repeat(rng.normal(scale=2.0, size=(6, 8)), n // 6, axis=0) + rng.normal(size=(n, 8))
    labels = np.repeat(np.arange(6), n // 6)
    src = rng.choice(n, dups, replace=False)
    dst = rng.choice(np.setdiff1d(np.arange(n), src), dups, replace=False)
    batches = []
    for name in "ABC":
        x = base + rng.normal(scale=0.5, size=base.shape)
        x[dst] = x[src]
        batches.append(EmbeddingBatch(x, labels, name))
    return batches, src


def _with_ranking(fault, batches):
    """evaluate_directions with the ranking it uses passed through ``fault``."""
    original = csalign.train.rank_gallery
    csalign.train.rank_gallery = lambda q, g: fault(original(q, g), q, g)
    try:
        return evaluate_directions(batches, with_map=True)
    finally:
        csalign.train.rank_gallery = original


def _swap_top_two(ranked, q, g):
    ranked = ranked.copy()
    ranked[:, [0, 1]] = ranked[:, [1, 0]]
    return ranked


def _ties_by_descending_index(ranked, q, g):
    sim = checks._unit_rows(q.data) @ checks._unit_rows(g.data).T
    n = sim.shape[1]
    return np.lexsort((np.broadcast_to(-np.arange(n), sim.shape), -sim), axis=1)


def retrieval_cases(rng):
    batches, src = _retrieval_batches(rng)
    reference, problems = checks.reference_retrieval(batches, src[:4])
    keys = ("p1", "p10", "map")
    # the clean case also requires the reference ranking to equal the plain sort
    clean = problems + checks.check_retrieval(
        "clean", evaluate_directions(batches, with_map=True), reference, keys)
    yield "swapped ranking", clean, checks.check_retrieval(
        "swapped", _with_ranking(_swap_top_two, batches), reference, keys)
    yield "ties by descending index", clean, checks.check_retrieval(
        "ties", _with_ranking(_ties_by_descending_index, batches), reference, keys)


def _trace(losses, p1):
    final = {f"d{i}": {"p1": v, "p10": v, "map": v} for i, v in enumerate(p1)}
    records = [EpochRecord(i, v, bool(np.isfinite(v)), {}) for i, v in enumerate(losses)]
    return TrainingTrace(records, False, sorted(final), {d: True for d in final}, final)


def training_cases(rng):
    good = checks.check_training("good", _trace([3.0, 1.0, 0.4], [0.99] * 6), 6)
    yield "non-finite loss", good, checks.check_training("nan", _trace([3.0, float("nan"), 0.4], [0.99] * 6), 6)
    yield "loss not falling", good, checks.check_training("flat", _trace([3.0, 1.0, 3.5], [0.99] * 6), 6)
    yield "low final P@1", good, checks.check_training("p1", _trace([3.0, 1.0, 0.4], [0.99] * 5 + [0.5]), 6)
    yield "missing direction", good, checks.check_training("dirs", _trace([3.0, 1.0, 0.4], [0.99] * 5), 6)


def main() -> int:
    rng = np.random.default_rng(20251017)
    ok = True
    for cases in (gradient_cases, retrieval_cases, training_cases):
        for label, clean, faulty in cases(rng):
            passed = not clean and bool(faulty)
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} {label}: clean {'passes' if not clean else clean}, "
                  f"fault {'caught' if faulty else 'missed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
