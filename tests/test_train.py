from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from csalign import (
    LOSS_KINDS,
    Adam,
    AlignConfig,
    EmbeddingBatch,
    Encoder,
    KlConfig,
    MatchStrategy,
    MmdConfig,
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
    NonFiniteSimilarity,
    ShapeMismatch,
    TooFewDistributions,
    ZeroNormRow,
)
from csalign.losses import MATCHING_KINDS, matching_loss, stack_matching_loss
from csalign.retrieval import SCORE_BLOCK_ROWS, evaluate_directions
from csalign.train import WEIGHT_DECAY, clip_global_norm, supervised_directions
from retrieval_oracle import cosine_scores, direction_metrics


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
    # hand computations at betas 0.9 and 0.999, epsilon 1e-8 and decoupled weight decay 1e-5

    def test_single_step_matches_hand_computation(self):
        theta = np.array([1.0])
        opt = Adam([theta], learning_rate=0.1)
        grad = np.array([0.5])
        opt.step([grad])
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        adaptive = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        expected = adaptive - 0.1 * 1e-5 * adaptive
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
        after1 -= 0.05 * 1e-5 * after1
        after2 = after1 - 0.05 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
        expected = after2 - 0.05 * 1e-5 * after2
        assert theta[0] == pytest.approx(expected, abs=1e-12)

    def test_second_moment_past_float_range_changes_no_parameter(self):
        first, second = np.array([1.0, 2.0]), np.array([3.0])
        opt = Adam([first, second], learning_rate=0.1)
        assert opt.step([np.array([0.5, -0.5]), np.array([1e200])]) is False
        assert first.tolist() == [1.0, 2.0] and second.tolist() == [3.0]

    @pytest.mark.parametrize("grad", [1e155, -3e155])
    def test_bias_corrected_moment_past_float_range_still_steps(self, grad):
        # v = 1e-3 g^2 is finite, v / (1 - beta2) = g^2 is not: the step
        # is the exact one, lr * g / |g|, without an overflow, then decayed
        theta = np.array([1.0])
        opt = Adam([theta], learning_rate=0.1)
        with np.errstate(all="raise"):
            assert opt.step([np.array([grad])]) is True
        adaptive = 1.0 - 0.1 * np.sign(grad)
        assert theta[0] == pytest.approx(adaptive - 0.1 * 1e-5 * adaptive, rel=1e-15)

    def test_decoupled_weight_decay_shrinks_params(self):
        theta = np.array([1.0])
        opt = Adam([theta], learning_rate=0.1)
        opt.step([np.array([0.0])])
        # zero gradient: only the decay term fires, shrinking by lr * WEIGHT_DECAY
        assert 1.0 - theta[0] == pytest.approx(0.1 * WEIGHT_DECAY)

    @pytest.mark.parametrize("knob", ["beta1", "beta2", "epsilon", "weight_decay"])
    def test_fixed_settings_are_not_arguments(self, knob):
        with pytest.raises(TypeError):
            Adam([np.array([1.0])], 0.1, **{knob: 0.5})


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

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e300])
    def test_norm_whose_squares_overflow_still_clips(self, scale):
        grads = [np.array([3.0, 0.0]) * scale, np.array([[4.0]]) * scale]
        clipped, norm = clip_global_norm(grads, 1.0)
        assert norm == pytest.approx(5.0 * scale, rel=1e-15)
        assert clipped[0] == pytest.approx([0.6, 0.0], rel=1e-15)
        assert clipped[1] == pytest.approx(np.array([[0.8]]), rel=1e-15)

    def test_infinite_gradient_keeps_an_infinite_norm(self):
        with np.errstate(invalid="ignore"):  # inf times the zero scale
            assert clip_global_norm([np.array([np.inf, 1.0]), np.array([1e300])], 1.0)[1] == np.inf

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_squares_are_added_left_to_right(self, scale, monkeypatch):
        # the builtin sum adds floats with compensation from Python 3.12;
        # shadowed here by fsum, which rounds once, it must not decide the
        # norm, so the norm has the same bits on every Python version
        import math

        import csalign.train as train_mod

        monkeypatch.setattr(train_mod, "sum", math.fsum, raising=False)
        grads = [np.array([square**0.5 * scale]) for square in (1.0, 3e-16, 5e-16)]
        parts = [float(((g / scale) ** 2).sum()) for g in grads]
        left_to_right = (parts[0] + parts[1]) + parts[2]
        assert left_to_right != math.fsum(parts)
        assert clip_global_norm(grads, 0.0)[1] == scale * float(np.sqrt(left_to_right))

    @pytest.mark.parametrize("temperature", [1e-200, 1e-300])
    def test_tiny_temperature_still_learns(self, temperature):
        # gradients near 1/temperature: their squares overflow, and the
        # clipped step must still move the encoders
        data, encoders, cfg = tiny_setup(temperature=temperature, max_epochs=4)
        before = [enc.weight.copy() for enc in encoders]
        trace = train_run(data, encoders, cfg)
        assert not trace.aborted and all(np.isfinite(trace.losses))
        after = [enc.weight for enc in encoders]
        # Adam's first steps move each weight by about the learning rate
        assert max(float(np.abs(a - b).max()) for a, b in zip(after, before)) > 0.5 * cfg.learning_rate
        assert len({str(r.metrics) for r in trace.records}) > 1


    def test_adam_moment_overflow_aborts_the_run(self):
        # unclipped gradients near 1/temperature overflow Adam's second
        # moment at the first step, which is then not applied
        data, encoders, cfg = tiny_setup(temperature=1e-200, grad_clip_norm=0, max_epochs=4)
        before = [p.copy() for enc in encoders for p in enc.parameters()]
        trace = train_run(data, encoders, cfg)
        assert trace.aborted and len(trace.records) == 1
        assert trace.records[0].finite and trace.records[0].loss > 1e199
        after = [p for enc in encoders for p in enc.parameters()]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert all(np.isfinite(v) for m in trace.final_metrics.values() for v in m.values())


class TestEncoder:
    def test_linear_forward_shape(self):
        rng = np.random.default_rng(0)
        enc = Encoder(5, 3, rng=rng)
        emb = enc.forward(rng.normal(size=(7, 5)))
        assert emb.shape == (7, 3)

    def test_weights_drawn_at_the_initial_scale(self):
        enc = Encoder(5, 3, rng=np.random.default_rng(4))
        assert np.array_equal(enc.weight, np.random.default_rng(4).normal(size=(5, 3)) * 0.02)
        assert not enc.bias.any()
        with pytest.raises(TypeError):
            Encoder(5, 3, rng=np.random.default_rng(4), init_scale=1.0)

    def test_backward_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        enc = Encoder(5, 3, rng=np.random.default_rng(2))
        x = rng.normal(size=(6, 5))
        target = rng.normal(size=(6, 3))

        def loss():
            return float(((enc.forward(x) - target) ** 2).sum())

        grads = enc.backward(x, 2.0 * (enc.forward(x) - target))
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
        data, encoders, cfg = tiny_setup(learning_rate=0.0, max_epochs=3)
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


FLOAT_FIELDS = ("learning_rate", "grad_clip_norm", "temperature", "holdout_fraction")


@pytest.mark.parametrize("config, kwargs", [
    (TrainConfig, {"learning_rate": "0.1"}),
    (TrainConfig, {"temperature": None}),
    (TrainConfig, {"grad_clip_norm": 10 ** 400}),
    (SynthConfig, {"class_sep": "6"}),
    (AlignConfig, {"temperature": "1"}),
    (KlConfig, {"epsilon": "x"}),
    (MmdConfig, {"bandwidth": None}),
])
def test_non_number_float_field_is_a_config_error(config, kwargs):
    (name, _), = kwargs.items()
    with pytest.raises(ConfigError, match=f"^{name} must be a number"):
        config(**kwargs)


class TestTrainConfig:
    def test_strategy_must_be_a_match_strategy(self):
        with pytest.raises(ConfigError, match="^strategy must be a MatchStrategy, got 'mixed'"):
            TrainConfig(strategy="mixed")

    def test_real_numbers_accepted_in_float_fields(self):
        cfg = TrainConfig(
            learning_rate=1, temperature=np.float32(0.5), holdout_fraction=np.float64(0.25))
        assert (cfg.learning_rate, cfg.temperature, cfg.holdout_fraction) == (1, 0.5, 0.25)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})

    # 1e-310 and 1e-320 are positive, but their reciprocals overflow
    @pytest.mark.parametrize("temperature", [0.0, -1.0, 1e-310, 1e-320])
    def test_non_positive_temperature_rejected(self, temperature):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            TrainConfig(temperature=temperature)

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1])
    def test_holdout_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError, match=r"holdout_fraction must be in \[0, 1\)"):
            TrainConfig(holdout_fraction=fraction)

    @pytest.mark.parametrize("fraction", [0.0, 0.99])
    def test_holdout_fraction_inside_unit_interval_accepted(self, fraction):
        assert TrainConfig(holdout_fraction=fraction).holdout_fraction == fraction

    @pytest.mark.parametrize("value", [4.5, 4.0, np.float64(3.0), "4"])
    @pytest.mark.parametrize("name", ["max_epochs", "batch_size", "seed"])
    def test_non_integer_int_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            TrainConfig(**{name: value})

    def test_numpy_integer_int_fields_accepted(self):
        cfg = TrainConfig(max_epochs=np.int64(3), batch_size=np.int32(8), seed=np.uint8(1))
        assert (cfg.max_epochs, cfg.batch_size, cfg.seed) == (3, 8, 1)

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

    def test_encoder_of_another_input_width_raises_naming_the_modality(self, monkeypatch):
        synth = SynthConfig(num_classes=2, per_class=6, input_dims=(5, 5), embed_dim=4, seed=1)
        cfg = TrainConfig(max_epochs=1, batch_size=4, loss_kind="bimodal_cs", seed=1)
        encoders = build_encoders((5, 7), synth.embed_dim, cfg)
        monkeypatch.setattr(Encoder, "forward", lambda self, x: pytest.fail("an encoder ran"))
        with pytest.raises(ShapeMismatch, match="modality 'B' has 5 input features.* takes 7"):
            train_run(generate_synthetic(synth), encoders, cfg)

    def test_two_rows_raise_before_the_first_step(self, monkeypatch):
        data, encoders, cfg = tiny_setup()
        data = [EmbeddingBatch(b.data[:2], b.labels[:2], b.modality_name) for b in data]
        monkeypatch.setattr(Encoder, "forward", lambda self, x: pytest.fail("an encoder ran"))
        with pytest.raises(ShapeMismatch, match="n=2"):
            train_run(data, encoders, cfg)

    def test_three_rows_train_on_two_and_hold_out_one(self):
        data, encoders, cfg = tiny_setup(max_epochs=2)
        data = [EmbeddingBatch(b.data[:3], b.labels[:3], b.modality_name) for b in data]
        trace = train_run(data, encoders, cfg)
        assert not trace.aborted and len(trace.records) == 2
        assert all(np.isfinite(r.loss) for r in trace.records)
        assert all(m == {"p1": 1.0, "p10": 1.0, "map": 1.0} for m in trace.final_metrics.values())

    @pytest.mark.parametrize(
        "scale, error", [(1e300, NonFiniteSimilarity), (0.0, ZeroNormRow)]
    )
    def test_degenerate_embeddings_raise_at_the_first_step(self, scale, error, monkeypatch):
        import csalign.losses as losses_mod

        data, encoders, cfg = tiny_setup()
        # encoders draw their weights at INIT_SCALE, so these are set directly
        for i, enc in enumerate(encoders):
            enc.weight = np.random.default_rng([cfg.seed, i]).normal(size=enc.weight.shape) * scale
        # the engine reads each kind's kernel off its table row
        for kind, row in losses_mod.LOSS_TABLE.items():
            failing = row._replace(kernel=lambda *args: pytest.fail("a kernel ran"))
            monkeypatch.setitem(losses_mod.LOSS_TABLE, kind, failing)
        with pytest.raises(error):
            train_run(data, encoders, cfg)

    @pytest.mark.parametrize("rate", [1e100, 1e150, 1e300])
    def test_embeddings_that_overflow_after_a_step_abort_the_run(self, rate):
        data, encoders, cfg = tiny_setup(learning_rate=rate)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = train_run(data, encoders, cfg)
        assert trace.aborted and len(trace.records) == 1
        (record,) = trace.records
        assert np.isnan(record.loss) and not record.finite
        assert set(record.metrics) == set(trace.final_metrics) == set(trace.directions)
        assert all(np.isnan(v) for m in record.metrics.values() for v in m.values())
        assert all(set(m) == {"p1", "p10", "map"} and all(np.isnan(v) for v in m.values())
                   for m in trace.final_metrics.values())

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
            EmbeddingBatch(enc.forward(b.data[test_idx]), b.labels[test_idx], b.modality_name)
            for enc, b in zip(encoders, data)
        ]
        reference = direction_metrics(held_out)
        assert trace.final_metrics == reference
        assert trace.records[-1].metrics == {
            d: {"p1": v["p1"], "p10": v["p10"]} for d, v in reference.items()
        }

    def test_held_out_rows_are_checked(self, monkeypatch):
        # parameters stay put (lr 0 scales the decay too) and the encoders have no bias,
        # so held-out inputs scaled to norm 1e-29 embed below MIN_ROW_NORM
        # (weights ~0.02) while every training step sees ordinary rows
        import csalign.train as train_mod

        data, encoders, cfg = tiny_setup(learning_rate=0.0, max_epochs=2)
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


def copied_row_batches(n=5 * SCORE_BLOCK_ROWS, seed=17):
    """``n`` rows with 64 gallery rows copied onto rows of another label:
    every query sees tied pairs of which one item is relevant and one not."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 8, size=n)
    src = rng.choice(n, 64, replace=False)
    dst = np.array([rng.choice(np.flatnonzero(labels != labels[s])) for s in src])
    batches = []
    for name in "ABC":
        x = rng.normal(size=(n, 16))
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

    @pytest.mark.parametrize("with_map", [False, True])
    def test_both_passes_return_python_floats(self, with_map):
        metrics = evaluate_directions(tied_batches(30, 3, seed=5), with_map=with_map)
        assert {type(v) for direction in metrics.values() for v in direction.values()} == {float}

    def test_one_relevance_mask_when_all_labels_are_shared(self, monkeypatch):
        import csalign.retrieval as retrieval_mod

        real, calls = retrieval_mod.top_k_hits, []

        def recording(scores, relevant, k):
            calls.append((scores.copy(), relevant))
            return real(scores, relevant, k)

        monkeypatch.setattr(retrieval_mod, "top_k_hits", recording)
        a, b, c = tied_batches(SCORE_BLOCK_ROWS + 40, 4, seed=23)
        # equal labels in arrays of their own still share masks
        batches = [EmbeddingBatch(x.data, x.labels.copy(), x.modality_name) for x in (a, b, c)]
        evaluate_directions(batches)
        # (block start, query, gallery) -> the masks its calls read, each
        # call placed by its scores among the blocked cosines
        blocks = {
            (start, qi, gi): full[start : start + SCORE_BLOCK_ROWS]
            for qi, gi in permutations(range(len(batches)), 2)
            for full in [cosine_scores(batches[qi].data, batches[gi].data)]
            for start in range(0, len(full), SCORE_BLOCK_ROWS)
        }
        found = {}
        for scores, relevant in calls:
            (place,) = [key for key, block in blocks.items() if np.array_equal(scores, block)]
            found.setdefault(place, []).append(relevant)
        assert len(found) == 2 * 6  # two blocks, six directions, two calls each
        for start in (0, SCORE_BLOCK_ROWS):
            block_masks = [m for (s, _, _), masks in found.items() if s == start for m in masks]
            assert len(block_masks) == 12 and all(m is block_masks[0] for m in block_masks)
            rows = slice(start, start + SCORE_BLOCK_ROWS)
            assert np.array_equal(block_masks[0], a.labels == a.labels[rows, None])
        # one mask per block: the comparisons of one query x gallery mask
        assert sum(found[s, 0, 1][0].size for s in (0, SCORE_BLOCK_ROWS)) == a.n * a.n

    # one class makes every gallery item relevant to every query, so
    # average precision meets its largest groups of relevant ranks
    @pytest.mark.parametrize("with_map, classes", [(False, 50), (True, 50), (True, 1)])
    def test_each_pass_holds_one_score_block(self, with_map, classes):
        # one float64 block of scores, plus arrays a fraction of its size:
        # no query x gallery mask and no second block-sized array
        import tracemalloc

        n, d = 3000, 16
        rng = np.random.default_rng(29)
        labels = rng.integers(0, classes, size=n)
        batches = [EmbeddingBatch(rng.normal(size=(n, d)), labels, name) for name in "ABC"]
        evaluate_directions(tied_batches(30, 3, seed=5), with_map)  # lazy imports happen here
        tracemalloc.start()
        try:
            evaluate_directions(batches, with_map)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit_stack = len(batches) * n * d * 8
        assert peak < 2 * SCORE_BLOCK_ROWS * n * 8 + unit_stack

    def test_ties_straddle_the_kth_score(self):
        # the case the exactness test must cover: more items tie at a
        # query's 10th-best score than there are top-10 slots left
        a, b, _ = tied_batches(2 * SCORE_BLOCK_ROWS + 88, 5, seed=2 * SCORE_BLOCK_ROWS + 88)
        scores = cosine_scores(a.data, b.data)
        kth = np.sort(scores, axis=1)[:, -10, None]
        assert np.count_nonzero(np.count_nonzero(scores >= kth, axis=1) > 10) > 100

    def test_ties_across_the_relevance_boundary(self):
        batches = copied_row_batches()
        assert evaluate_directions(batches, with_map=True) == direction_metrics(batches)

    def test_modalities_of_different_dimension(self):
        a, b, c = tied_batches(20, 3, seed=5)
        wide = EmbeddingBatch(np.hstack([c.data, c.data]), c.labels, c.modality_name)
        for with_map in (False, True):
            with pytest.raises(ShapeMismatch, match="share d"):
                evaluate_directions([a, b, wide], with_map)

    @pytest.mark.parametrize("with_map", [False, True])
    def test_repeated_modality_names_rejected(self, with_map):
        a, b, c = tied_batches(20, 3, seed=5)
        twin = EmbeddingBatch(b.data, b.labels, a.modality_name)
        for batches in ([a, twin], [a, twin, c]):
            with pytest.raises(ConfigError, match="modality names must be unique"):
                evaluate_directions(batches, with_map)

    @pytest.mark.parametrize("with_map", [False, True])
    def test_only_paired_batches_are_evaluated(self, with_map):
        # row i of every modality is one instance: one n and one label vector
        a, b, c = tied_batches(20, 3, seed=5)
        short = EmbeddingBatch(c.data[:-1], c.labels[:-1], c.modality_name)
        with pytest.raises(ShapeMismatch, match="share n"):
            evaluate_directions([a, b, short], with_map)
        rolled = EmbeddingBatch(c.data, np.roll(c.labels, 1), c.modality_name)
        with pytest.raises(ShapeMismatch, match="identical labels"):
            evaluate_directions([a, b, rolled], with_map)
        with pytest.raises(TooFewDistributions):
            evaluate_directions([a], with_map)


def by_worker_count(monkeypatch, batches, workers):
    """Both passes of ``evaluate_directions`` with ``workers`` threads."""
    import csalign.retrieval as retrieval_mod

    monkeypatch.setattr(retrieval_mod, "_worker_count", lambda n: workers)
    return evaluate_directions(batches), evaluate_directions(batches, with_map=True)


@pytest.fixture
def executors(monkeypatch):
    """Every thread pool the evaluation builds, with its worker count."""
    import concurrent.futures

    built = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return built


def held_out_run(monkeypatch, cpus, holdout_fraction):
    """Two epochs on 8 classes x 200 rows with ``cpus`` available CPUs."""
    import csalign.retrieval as retrieval_mod

    monkeypatch.setattr(retrieval_mod, "_available_cpus", lambda: cpus)
    synth = SynthConfig(num_classes=8, per_class=200, input_dims=(12, 12, 12), embed_dim=8, seed=4)
    cfg = TrainConfig(max_epochs=2, batch_size=128, seed=4, holdout_fraction=holdout_fraction)
    data = generate_synthetic(synth)
    return train_run(data, build_encoders(synth.input_dims, synth.embed_dim, cfg), cfg)


class TestEvaluationWorkers:
    # a gallery of 1300 (not a multiple of 8): OpenBLAS's SkylakeX kernel
    # rounds its last columns differently in products over different
    # numbers of query rows, enough to reorder some of its copied rows
    @pytest.mark.parametrize(
        "case", ["tied", "copied rows", "odd gallery", "short last block"])
    def test_worker_count_changes_no_value(self, case, monkeypatch):
        batches = {
            "tied": lambda: tied_batches(2 * SCORE_BLOCK_ROWS + 88, 5, seed=7),
            "copied rows": copied_row_batches,
            "odd gallery": lambda: copied_row_batches(5 * SCORE_BLOCK_ROWS + 20, seed=0),
            "short last block": lambda: tied_batches(5 * SCORE_BLOCK_ROWS + 88, 6, seed=11),
        }[case]()
        serial = by_worker_count(monkeypatch, batches, 1)
        for workers in (2, 3, 4):
            assert by_worker_count(monkeypatch, batches, workers) == serial, workers

    def test_more_workers_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # two jobs writing one slice of the buffer, or one job's average
        # precisions landing in another's rows, would change the values
        import sys

        batches = copied_row_batches(5 * SCORE_BLOCK_ROWS + 20, seed=0)
        serial = by_worker_count(monkeypatch, batches, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = by_worker_count(monkeypatch, batches, 4)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_training_trace_is_the_same_on_one_cpu_or_two(self, monkeypatch, executors):
        import csalign.retrieval as retrieval_mod

        # 1280 held-out rows: two workers' blocks hold enough scores
        threaded = held_out_run(monkeypatch, 2, 0.8)
        assert set(executors) == {2}
        assert retrieval_mod._worker_count(1280) == 2
        executors.clear()
        assert held_out_run(monkeypatch, 1, 0.8) == threaded
        assert executors == []

    def test_criterion_seven_evaluation_starts_no_thread(self, monkeypatch, executors):
        import csalign.retrieval as retrieval_mod

        # 8 classes x 200 rows, 20 % held out: 320 rows, on any number of CPUs
        trace = held_out_run(monkeypatch, 64, 0.2)
        assert len(trace.records) == 2 and executors == []
        assert retrieval_mod._worker_count(320) == 1

    def test_workers_per_cpu_block_and_threshold(self, monkeypatch):
        import csalign.retrieval as retrieval_mod

        count = retrieval_mod._worker_count
        monkeypatch.setattr(retrieval_mod, "_available_cpus", lambda: 64)
        blocks = {w: retrieval_mod._block_rows(w) for w in (1, 2, 3, 4)}
        assert blocks == {1: SCORE_BLOCK_ROWS, 2: SCORE_BLOCK_ROWS // 2,
                          3: SCORE_BLOCK_ROWS // 4, 4: SCORE_BLOCK_ROWS // 4}
        least = retrieval_mod._THREAD_MIN_SCORES
        n = -(-least // blocks[2])  # two workers' blocks just hold the threshold
        assert count(n) == 2
        assert count(n - 1) == 1
        assert count(blocks[2]) == 1  # one block, too few scores for a second worker
        assert count(100 * SCORE_BLOCK_ROWS) == 4  # one product per worker
        monkeypatch.setattr(retrieval_mod, "_available_cpus", lambda: 1)
        assert count(100 * SCORE_BLOCK_ROWS) == 1

    # the worker counts of the evaluation's (rows, gallery) = (n, n) calls
    # before the count took n alone: one worker up to n = 781, two from
    # 782, and three or four from 1563 where the CPUs exist
    @pytest.mark.parametrize("cpus, expected", [
        (1, [1, 1, 1, 1, 1, 1, 1, 1, 1]),
        (2, [1, 1, 1, 1, 2, 2, 2, 2, 2]),
        (3, [1, 1, 1, 1, 2, 2, 2, 3, 3]),
        (4, [1, 1, 1, 1, 2, 2, 2, 4, 4]),
        (64, [1, 1, 1, 1, 2, 2, 2, 4, 4]),
    ])
    def test_worker_count_table(self, cpus, expected, monkeypatch):
        import csalign.retrieval as retrieval_mod

        monkeypatch.setattr(retrieval_mod, "_available_cpus", lambda: cpus)
        sizes = [2, 64, 320, 781, 782, 1280, 1562, 1563, 5000]
        assert [retrieval_mod._worker_count(n) for n in sizes] == expected

    @pytest.mark.parametrize("with_map", [False, True])
    def test_fault_in_the_second_block_propagates_and_joins_the_threads(
        self, with_map, monkeypatch, executors
    ):
        import threading

        import csalign.retrieval as retrieval_mod

        monkeypatch.setattr(retrieval_mod, "_available_cpus", lambda: 2)
        batches = copied_row_batches()
        rows = retrieval_mod._block_rows(2)
        second = cosine_scores(batches[0].data, batches[1].data)[rows : 2 * rows]
        planted = RuntimeError("planted fault")
        name = "rank_scores" if with_map else "top_k_hits"
        real = getattr(retrieval_mod, name)

        def faulty(scores, *args, **kwargs):
            if scores.shape == second.shape and np.array_equal(scores, second):
                raise planted
            return real(scores, *args, **kwargs)

        monkeypatch.setattr(retrieval_mod, name, faulty)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            evaluate_directions(batches, with_map)
        assert raised.value is planted
        assert executors == [2]
        assert threading.active_count() == before


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

    @pytest.mark.parametrize("kind", ["mmd", "coral"])
    def test_label_free_kinds_supervise_no_direction(self, kind):
        # no label reaches MMD or CORAL, so no direction is trained on matches
        for strategy in MatchStrategy:
            assert supervised_directions(["A", "B"], kind, strategy) == set()
        data, encoders, cfg = pair_setup(loss_kind=kind, max_epochs=1)
        trace = train_run(data, encoders, cfg)
        assert trace.supervised == {"A2B": False, "B2A": False}


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
