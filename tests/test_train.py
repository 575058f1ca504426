from collections import Counter

import numpy as np
import pytest

from csalign import (
    LOSS_KINDS,
    Adam,
    AlignConfig,
    EmbeddingBatch,
    Encoder,
    MatchStrategy,
    ModalityRing,
    SynthConfig,
    TrainConfig,
    ablation_run,
    build_encoders,
    generate_synthetic,
    loss_gradient,
    train_run,
)
from csalign.errors import (
    ConfigError,
    NoRelevantItems,
    NonFiniteSimilarity,
    ShapeMismatch,
    TooFewDistributions,
    ZeroNormRow,
)
from csalign.losses import MATCHING_KINDS, matching_loss, stack_matching_loss
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
        real = train_mod.stack_loss_gradient
        calls = {"n": 0}

        def poisoned(kind, stack, labels, names, *args, **kwargs):
            calls["n"] += 1
            value, grads = real(kind, stack, labels, names, *args, **kwargs)
            if calls["n"] >= 3:
                return float("nan"), grads
            return value, grads

        monkeypatch.setattr(train_mod, "stack_loss_gradient", poisoned)
        trace = train_run(data, encoders, cfg)
        assert trace.aborted
        assert len(trace.records) < cfg.max_epochs
        assert not trace.records[-1].finite


def held_out_rows(data, cfg):
    """The rows ``train_run`` holds out for evaluation (its seeded split)."""
    n = data[0].n
    n_test = min(max(2, int(round(cfg.holdout_fraction * n))), n - 2)
    return np.random.default_rng(cfg.seed).permutation(n)[:n_test]


def pair_setup(**train_overrides):
    """``tiny_setup`` cut to its first two modalities."""
    data, encoders, cfg = tiny_setup(**train_overrides)
    return data[:2], encoders[:2], cfg


FLOAT_FIELDS = (
    "learning_rate", "adam_beta1", "adam_beta2", "adam_epsilon", "weight_decay",
    "grad_clip_norm", "temperature", "holdout_fraction", "lr_decay_factor", "init_scale",
)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("every", [0, -1])
    def test_lr_decay_every_below_one_rejected(self, every):
        with pytest.raises(ConfigError, match="lr_decay_every"):
            TrainConfig(lr_decay_every=every)

    @pytest.mark.parametrize("norm", [0.0, -1.0])
    def test_non_positive_grad_clip_norm_disables_clipping(self, norm):
        grads = [np.full(3, 10.0)]
        assert TrainConfig(grad_clip_norm=norm).grad_clip_norm == norm
        assert clip_global_norm(grads, norm)[0][0] is grads[0]


class TestArrayStep:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_step_equals_ring_wrappers_bit_for_bit(self, kind, monkeypatch):
        import csalign.train as train_mod

        setup = pair_setup if kind in ("bimodal_cs", "mmd", "coral") else tiny_setup
        data, encoders, cfg = setup(loss_kind=kind, max_epochs=2, temperature=0.5)
        real = train_mod.stack_loss_gradient
        steps = []

        def checked(kind, stack, labels, names, strategy, tau):
            value, grads = real(kind, stack, labels, names, strategy, tau)
            ring = ModalityRing(
                tuple(EmbeddingBatch(x, labels, name) for x, name in zip(stack, names)), strategy
            )
            ring_value, bundle = loss_gradient(kind, ring, AlignConfig(tau))
            assert value == ring_value
            assert all(np.array_equal(g, r) for g, r in zip(grads, bundle, strict=True))
            if kind in MATCHING_KINDS:
                report, _ = stack_matching_loss(kind, stack, labels, names, strategy, tau)
                ring_report, _ = matching_loss(kind, ring, AlignConfig(tau))
                assert report.total == ring_report.total
                assert report.per_direction == ring_report.per_direction
                assert np.array_equal(report.per_sample, ring_report.per_sample)
            steps.append(value)
            return value, grads

        monkeypatch.setattr(train_mod, "stack_loss_gradient", checked)
        trace = train_run(data, encoders, cfg)
        assert len(steps) == 8 and not trace.aborted

    def test_no_wrappers_built_per_step_or_eval(self, monkeypatch):
        counts = Counter()
        for cls in (EmbeddingBatch, ModalityRing):
            def counted(self, original=cls.__post_init__, name=cls.__name__):
                counts[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counted)

        def constructions(**overrides):
            data, encoders, cfg = tiny_setup(**overrides)
            counts.clear()
            train_run(data, encoders, cfg)
            return dict(counts)

        assert constructions(max_epochs=1) == constructions(max_epochs=4)
        assert constructions(max_epochs=1) == constructions(max_epochs=1, batch_size=3)

    @pytest.mark.parametrize(
        "case, error",
        [
            ("labels", ShapeMismatch),
            ("n", ShapeMismatch),
            ("names", ConfigError),
            ("mmd_m3", ConfigError),
            ("bimodal_m3", ConfigError),
            ("encoders", ShapeMismatch),
            ("embed_dim", ShapeMismatch),
            ("one_modality", TooFewDistributions),
        ],
    )
    def test_bad_inputs_raise_before_the_first_step(self, case, error, monkeypatch):
        data, encoders, cfg = tiny_setup()
        a, b, c = data
        if case == "labels":
            data = [a, EmbeddingBatch(b.data, b.labels[::-1], b.modality_name), c]
        elif case == "n":
            data = [a, b, EmbeddingBatch(c.data[:-1], c.labels[:-1], c.modality_name)]
        elif case == "names":
            data = [a, b, EmbeddingBatch(c.data, c.labels, a.modality_name)]
        elif case == "mmd_m3":
            cfg = TrainConfig(loss_kind="mmd", max_epochs=1, batch_size=8)
        elif case == "bimodal_m3":
            cfg = TrainConfig(loss_kind="bimodal_cs", max_epochs=1, batch_size=8)
        elif case == "encoders":
            encoders = encoders[:2]
        elif case == "embed_dim":
            encoders[2] = Encoder(c.d, 5, rng=np.random.default_rng(0))
        else:
            data, encoders = data[:1], encoders[:1]

        def no_step(self, x):
            pytest.fail("an encoder ran before the inputs were checked")

        monkeypatch.setattr(Encoder, "forward", no_step)
        with pytest.raises(error):
            train_run(data, encoders, cfg)

    @pytest.mark.parametrize(
        "init_scale, error", [(1e300, NonFiniteSimilarity), (0.0, ZeroNormRow)]
    )
    def test_degenerate_embeddings_raise_at_the_first_step(self, init_scale, error, monkeypatch):
        import csalign.gradients as gradients_mod

        data, encoders, cfg = tiny_setup(init_scale=init_scale)
        monkeypatch.setattr(
            gradients_mod, "stack_matching_loss", lambda *args: pytest.fail("the engine ran")
        )
        with pytest.raises(error):
            train_run(data, encoders, cfg)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_row_norms_computed_once_per_step_and_evaluation(self, kind, monkeypatch):
        import csalign.train as train_mod

        setup = pair_setup if kind in ("bimodal_cs", "mmd", "coral") else tiny_setup
        data, encoders, cfg = setup(loss_kind=kind, max_epochs=2)
        calls = Counter()
        real_norm, real_step = np.linalg.norm, train_mod.stack_loss_gradient

        def norm(*args, **kwargs):
            calls["norm"] += 1
            return real_norm(*args, **kwargs)

        def step(*args):
            calls["step"] += 1
            return real_step(*args)

        monkeypatch.setattr(np.linalg, "norm", norm)
        monkeypatch.setattr(train_mod, "stack_loss_gradient", step)
        train_run(data, encoders, cfg)
        # one per step, one per epoch's evaluation and one for the final one
        assert calls["step"] == 8
        assert calls["norm"] == calls["step"] + cfg.max_epochs + 1

    def test_evaluation_equals_the_reference_ranking(self):
        data, encoders, cfg = tiny_setup(max_epochs=3)
        trace = train_run(data, encoders, cfg)
        test_idx = held_out_rows(data, cfg)
        held_out = [
            EmbeddingBatch(enc.forward(b.data[test_idx])[0], b.labels[test_idx], b.modality_name)
            for enc, b in zip(encoders, data)
        ]
        reference = direction_metrics(held_out)
        assert trace.final_metrics == reference
        assert trace.records[-1].metrics == {
            d: {"p1": v["p1"], "p10": v["p10"]} for d, v in reference.items()
        }

    def test_held_out_rows_are_checked(self, monkeypatch):
        # parameters stay put (lr 0, no decay) and the encoders have no bias,
        # so held-out inputs scaled to norm 1e-29 embed below MIN_ROW_NORM
        # (weights ~0.02) while every training step sees ordinary rows
        import csalign.train as train_mod

        data, encoders, cfg = tiny_setup(learning_rate=0.0, weight_decay=0.0, max_epochs=2)
        test_idx = held_out_rows(data, cfg)
        a = data[0]
        scaled = a.data.copy()
        scaled[test_idx] *= 1e-29 / np.linalg.norm(scaled[test_idx], axis=1, keepdims=True)
        data[0] = EmbeddingBatch(scaled, a.labels, a.modality_name)
        real = train_mod.stack_loss_gradient
        steps = []
        monkeypatch.setattr(
            train_mod, "stack_loss_gradient", lambda *args: steps.append(1) or real(*args)
        )
        with pytest.raises(ZeroNormRow):
            train_run(data, encoders, cfg)
        assert len(steps) == 4  # the first epoch's steps ran; its evaluation raised


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

    def test_modalities_with_different_labels(self):
        # same classes, different rows per modality: query and gallery
        # labels differ position by position in every direction
        rng = np.random.default_rng(19)
        batches = [
            EmbeddingBatch(b.data, rng.permutation(b.labels), b.modality_name)
            for b in tied_batches(SCORE_BLOCK_ROWS + 40, 4, seed=19)
        ]
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

    def test_modalities_of_different_dimension(self):
        a, b, c = tied_batches(20, 3, seed=5)
        wide = EmbeddingBatch(np.hstack([c.data, c.data]), c.labels, c.modality_name)
        for with_map in (False, True):
            with pytest.raises(ShapeMismatch, match="share d"):
                evaluate_directions([a, b, wide], with_map)

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
