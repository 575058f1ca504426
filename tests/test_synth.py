import numpy as np
import pytest

from csalign import SynthConfig, generate_synthetic, nearest_centroid_accuracy
from csalign.errors import ConfigError


def small_cfg(**overrides):
    defaults = dict(
        num_classes=4,
        per_class=20,
        input_dims=(8, 12),
        embed_dim=4,
        class_sep=10.0,
        noise_sigma=0.1,
        seed=7,
    )
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestGenerateSynthetic:
    def test_deterministic_given_seed(self):
        a = generate_synthetic(small_cfg())
        b = generate_synthetic(small_cfg())
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)
            assert np.array_equal(x.labels, y.labels)

    def test_data_is_the_means_plus_scaled_noise_bit_for_bit(self):
        # the generator works in place; replay the plain expression
        cfg = small_cfg(noise_sigma=0.3)
        rng = np.random.default_rng(cfg.seed)
        labels = np.repeat(np.arange(cfg.num_classes), cfg.per_class)
        for batch, dim in zip(generate_synthetic(cfg), cfg.input_dims):
            directions = rng.normal(size=(cfg.num_classes, dim))
            means = cfg.class_sep * directions / np.linalg.norm(directions, axis=1, keepdims=True)
            noise = rng.normal(size=(cfg.num_instances, dim)) * cfg.noise_sigma
            assert batch.data.tobytes() == (means[labels] + noise).tobytes()

    def test_labels_position_aligned_across_modalities(self):
        batches = generate_synthetic(small_cfg())
        for b in batches[1:]:
            assert np.array_equal(b.labels, batches[0].labels)

    def test_vanishing_noise_collapses_classes(self):
        batches = generate_synthetic(small_cfg(noise_sigma=1e-12))
        for b in batches:
            for c in range(4):
                rows = b.data[b.labels == c]
                assert np.abs(rows - rows[0]).max() <= 1e-9

    def test_separable_config_is_centroid_classifiable(self):
        for b in generate_synthetic(small_cfg()):
            assert nearest_centroid_accuracy(b) >= 0.99

    def test_shapes_follow_config(self):
        cfg = small_cfg()
        batches = generate_synthetic(cfg)
        assert [b.d for b in batches] == [8, 12]
        assert all(b.n == cfg.num_instances for b in batches)

    def test_distinct_seeds_differ(self):
        a = generate_synthetic(small_cfg(seed=1))
        b = generate_synthetic(small_cfg(seed=2))
        assert not np.array_equal(a[0].data, b[0].data)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_classes": 1},
            {"per_class": 1},
            {"input_dims": ()},
            {"input_dims": (0, 4)},
            {"class_sep": 0.0},
            {"noise_sigma": -1.0},
            {"embed_dim": 0},
        ],
    )
    def test_bad_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            small_cfg(**overrides)

    @pytest.mark.parametrize("value", [2.5, 4.0, np.float64(3.0)])
    @pytest.mark.parametrize("name", ["num_classes", "per_class", "embed_dim", "seed"])
    def test_non_integer_int_field_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            small_cfg(**{name: value})

    @pytest.mark.parametrize("dims", [(2.5, 3), (8, 12.0), (np.float64(8), 12)])
    def test_non_integer_input_dim_rejected(self, dims):
        with pytest.raises(ConfigError, match="^every input_dims entry must be an integer"):
            small_cfg(input_dims=dims)

    @pytest.mark.parametrize("dims", [5, None])
    def test_input_dims_that_is_no_sequence_rejected(self, dims):
        with pytest.raises(ConfigError, match="^input_dims must be a sequence of integers"):
            small_cfg(input_dims=dims)

    def test_numpy_integer_input_dims_become_ints(self):
        dims = small_cfg(input_dims=np.array([8, 12])).input_dims
        assert dims == (8, 12) and all(type(d) is int for d in dims)

    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    @pytest.mark.parametrize("name", ["class_sep", "noise_sigma"])
    def test_non_finite_scale_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite and positive"):
            small_cfg(**{name: value})
