import numpy as np
import pytest

from csalign import (
    Adam,
    EmbeddingBatch,
    Encoder,
    MatchStrategy,
    SynthConfig,
    TrainConfig,
    ablation_run,
    build_encoders,
    generate_synthetic,
    train_run,
)
from csalign.errors import ConfigError, NoRelevantItems
from csalign.retrieval import SCORE_BLOCK_ROWS, cosine_scores
from csalign.train import clip_global_norm, evaluate_directions, supervised_directions
from retrieval_oracle import direction_metrics


def tiny_setup(**train_overrides):
    synth = SynthConfig(
        num_classes=3,
        per_class=12,
        input_dims=(10, 10, 10),
        embed_dim=6,
        class_sep=8.0,
        noise_sigma=0.5,
        seed=3,
    )
    defaults = dict(max_epochs=5, batch_size=8, seed=3)
    defaults.update(train_overrides)
    cfg = TrainConfig(**defaults)
    data = generate_synthetic(synth)
    encoders = build_encoders(synth.input_dims, synth.embed_dim, cfg)
    return data, encoders, cfg


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        theta = np.array([1.0])
        opt = Adam([theta], learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        grad = np.array([0.5])
        opt.step([grad])
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-12)

    def test_two_steps_track_moments(self):
        theta = np.array([2.0])
        opt = Adam([theta], learning_rate=0.05)
        g1, g2 = np.array([1.0]), np.array([-0.5])
        opt.step([g1])
        opt.step([g2])
        m = 0.9 * (0.1 * 1.0) + 0.1 * (-0.5)
        v = 0.999 * (0.001 * 1.0) + 0.001 * 0.25
        m1_hat = (0.1 * 1.0) / (1 - 0.9)
        v1_hat = (0.001 * 1.0) / (1 - 0.999)
        after1 = 2.0 - 0.05 * m1_hat / (np.sqrt(v1_hat) + 1e-8)
        expected = after1 - 0.05 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-12)

    def test_decoupled_weight_decay_shrinks_params(self):
        theta = np.array([1.0])
        opt = Adam([theta], learning_rate=0.1, weight_decay=0.5)
        opt.step([np.array([0.0])])
        # zero gradient: only the decay term fires
        assert theta[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)


class TestClipGlobalNorm:
    def test_no_clip_below_threshold(self):
        grads = [np.array([0.3, 0.4])]
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        assert np.array_equal(clipped[0], grads[0])

    def test_clips_to_threshold(self):
        grads = [np.array([3.0, 4.0])]
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(clipped[0]) == pytest.approx(1.0)


class TestEncoder:
    def test_linear_forward_shape(self):
        rng = np.random.default_rng(0)
        enc = Encoder(5, 3, rng=rng)
        emb, _ = enc.forward(rng.normal(size=(7, 5)))
        assert emb.shape == (7, 3)

    def test_backward_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for hidden in (None, 4):
            enc = Encoder(5, 3, hidden, rng=np.random.default_rng(2))
            x = rng.normal(size=(6, 5))
            target = rng.normal(size=(6, 3))

            def loss():
                emb, _ = enc.forward(x)
                return float(((emb - target) ** 2).sum())

            emb, cache = enc.forward(x)
            grads = enc.backward(cache, 2.0 * (emb - target))
            for param, grad in zip(enc.parameters(), grads):
                flat = param.reshape(-1)
                g_flat = grad.reshape(-1)
                for i in range(0, flat.size, max(1, flat.size // 5)):
                    orig = flat[i]
                    flat[i] = orig + 1e-6
                    up = loss()
                    flat[i] = orig - 1e-6
                    down = loss()
                    flat[i] = orig
                    assert g_flat[i] == pytest.approx((up - down) / 2e-6, rel=1e-4, abs=1e-7)


class TestTrainRun:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        data, encoders, cfg = tiny_setup(learning_rate=0.0, weight_decay=0.0, max_epochs=3)
        before = [p.copy() for enc in encoders for p in enc.parameters()]
        train_run(data, encoders, cfg)
        after = [p for enc in encoders for p in enc.parameters()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_fixed_seed_gives_identical_traces(self):
        data, encoders1, cfg = tiny_setup()
        trace1 = train_run(data, encoders1, cfg)
        data2, encoders2, _ = tiny_setup()
        trace2 = train_run(data2, encoders2, cfg)
        assert trace1.losses == trace2.losses
        for r1, r2 in zip(trace1.records, trace2.records):
            assert r1.metrics == r2.metrics

    def test_loss_decreases_on_separable_data(self):
        data, encoders, cfg = tiny_setup(max_epochs=8, learning_rate=1e-3)
        trace = train_run(data, encoders, cfg)
        assert not trace.aborted
        assert all(np.isfinite(l) for l in trace.losses)
        assert trace.losses[-1] < trace.losses[0]

    def test_records_all_directions(self):
        data, encoders, cfg = tiny_setup(max_epochs=1)
        trace = train_run(data, encoders, cfg)
        assert sorted(trace.records[0].metrics) == sorted(trace.directions)
        assert len(trace.directions) == 6

    def test_invalid_loss_kind_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss_kind="contrastive")

    def test_non_finite_loss_aborts_with_partial_trace(self, monkeypatch):
        import csalign.train as train_mod

        data, encoders, cfg = tiny_setup(max_epochs=5)
        real = train_mod.loss_gradient
        calls = {"n": 0}

        def poisoned(kind, ring, align_cfg=None, **kwargs):
            calls["n"] += 1
            value, bundle = real(kind, ring, align_cfg, **kwargs)
            if calls["n"] >= 3:
                return float("nan"), bundle
            return value, bundle

        monkeypatch.setattr(train_mod, "loss_gradient", poisoned)
        trace = train_run(data, encoders, cfg)
        assert trace.aborted
        assert len(trace.records) < cfg.max_epochs
        assert not trace.records[-1].finite


def tied_batches(n, num_classes, seed):
    """Three modalities of integer-valued embeddings with exact cosine ties.

    Rows are sign vectors in {-1, 1}^4 or signed axes, scaled by 1 or 2:
    every norm is a power of two, so every cosine is a multiple of 1/4 and
    exact in any summation order. Many rows share a direction, and a
    quarter of each modality's rows are copies of other rows.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    batches = []
    for name in "ABC":
        signs = rng.choice([-1.0, 1.0], size=(n, 4))
        axes = np.eye(4)[rng.integers(0, 4, size=n)] * signs[:, :1]
        x = np.where(rng.random((n, 1)) < 0.3, axes, signs) * rng.choice([1.0, 2.0], size=(n, 1))
        src, dst = rng.integers(0, n, size=(2, n // 4))
        x[dst] = x[src]
        batches.append(EmbeddingBatch(x, labels, name))
    return batches


class TestEvaluateDirections:
    @pytest.mark.parametrize(
        "n, num_classes",
        [
            (6, 3),  # fewer than 10 gallery items: k capped at 6
            (SCORE_BLOCK_ROWS + 1, 4),  # last block holds one row
            (2 * SCORE_BLOCK_ROWS + 88, 5),  # three blocks, the last partial
            (40, 1),  # a single class: every item is relevant
        ],
    )
    def test_equals_full_ranking_exactly(self, n, num_classes):
        batches = tied_batches(n, num_classes, seed=n)
        reference = direction_metrics(batches)
        assert evaluate_directions(batches, with_map=True) == reference
        assert evaluate_directions(batches) == {
            d: {"p1": v["p1"], "p10": v["p10"]} for d, v in reference.items()
        }

    def test_ties_straddle_the_kth_score(self):
        # the case the exactness test must cover: more items tie at a
        # query's 10th-best score than there are top-10 slots left
        a, b, _ = tied_batches(2 * SCORE_BLOCK_ROWS + 88, 5, seed=2 * SCORE_BLOCK_ROWS + 88)
        scores = cosine_scores(a.data, b.data)
        kth = np.sort(scores, axis=1)[:, -10, None]
        assert np.count_nonzero(np.count_nonzero(scores >= kth, axis=1) > 10) > 100

    def test_ties_across_the_relevance_boundary(self):
        # 1280 rows with 64 gallery rows copied onto rows of another label:
        # every query sees tied pairs of which one item is relevant and one not
        rng = np.random.default_rng(17)
        n = 5 * SCORE_BLOCK_ROWS
        labels = rng.integers(0, 8, size=n)
        src = rng.choice(n, 64, replace=False)
        dst = np.array([rng.choice(np.flatnonzero(labels != labels[s])) for s in src])
        batches = []
        for name in "ABC":
            x = rng.normal(size=(n, 16))
            x[dst] = x[src]
            batches.append(EmbeddingBatch(x, labels, name))
        assert evaluate_directions(batches, with_map=True) == direction_metrics(batches)

    def test_query_without_relevant_item_named_by_row_and_direction(self):
        rng = np.random.default_rng(18)
        n = SCORE_BLOCK_ROWS + 44
        query_labels = rng.integers(0, 5, size=n)
        query_labels[260] = 5  # in the second block; the gallery has no label 5
        batches = [
            EmbeddingBatch(rng.normal(size=(n, 4)), query_labels, "A"),
            EmbeddingBatch(rng.normal(size=(n, 4)), rng.integers(0, 5, size=n), "B"),
        ]
        evaluate_directions(batches)  # P@K alone needs no relevant item
        with pytest.raises(NoRelevantItems, match="^A2B: query 260 has no relevant"):
            evaluate_directions(batches, with_map=True)


class TestSupervision:
    def test_gcs_strategies(self):
        names = ["A", "B", "C"]
        cw = supervised_directions(names, "gcs_ring", MatchStrategy.CLOCKWISE)
        ccw = supervised_directions(names, "gcs_ring", MatchStrategy.COUNTERCLOCKWISE)
        mixed = supervised_directions(names, "gcs_ring", MatchStrategy.MIXED)
        assert cw == {"A2B", "B2C", "C2A"}
        assert ccw == {"B2A", "A2C", "C2B"}
        assert mixed == cw | ccw

    def test_pairwise_covers_everything(self):
        names = ["A", "B", "C"]
        assert len(supervised_directions(names, "pairwise_cs", MatchStrategy.MIXED)) == 6


class TestAblationRun:
    def test_three_arms_with_flags(self):
        data, _, cfg = tiny_setup(max_epochs=3)
        arms = ablation_run(data, cfg, embed_dim=6)
        assert [a.strategy for a in arms] == ["clockwise", "counterclockwise", "mixed"]
        mixed = arms[-1]
        assert all(mixed.trace.supervised.values())
        for arm in arms[:2]:
            unsupervised = [d for d, s in arm.trace.supervised.items() if not s]
            assert len(unsupervised) == 3
