import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csalign import (
    KlConfig,
    MmdConfig,
    coral_loss,
    cs_divergence,
    gcs_divergence,
    gcs_divergence_unnormalized,
    holder_check,
    kl_alignment,
    median_bandwidth,
    mmd_squared,
)
from csalign.errors import (
    DegenerateBandwidth,
    LengthMismatch,
    NegativeEntry,
    NotAPmf,
    ShapeMismatch,
    TooFewDistributions,
    TooFewSamples,
)


def random_pmfs(rng, m, k):
    rows = rng.uniform(0.05, 1.0, size=(m, k))
    return rows / rows.sum(axis=1, keepdims=True)


class TestCsDivergence:
    def test_identical_pmfs_give_zero(self):
        assert abs(cs_divergence([0.5, 0.5], [0.5, 0.5]).value) <= 1e-12

    def test_hand_value_half_ln_two(self):
        # -log(0.5 / (1 * sqrt(0.5))) = 0.5 ln 2
        result = cs_divergence([1.0, 0.0], [0.5, 0.5])
        assert result.value == pytest.approx(0.5 * np.log(2.0), abs=1e-14)
        assert result.numerator == pytest.approx(0.5)
        assert result.denominator == pytest.approx(np.sqrt(0.5))

    def test_disjoint_support_is_infinite(self):
        result = cs_divergence([1.0, 0.0], [0.0, 1.0])
        assert np.isinf(result.value) and result.numerator == 0.0

    def test_denominator_at_least_one_over_n(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(2, 40))
            p, q = random_pmfs(rng, 2, k)
            result = cs_divergence(p, q)
            assert result.denominator >= 1.0 / k - 1e-12

    def test_bad_sum_rejected_not_renormalized(self):
        with pytest.raises(NotAPmf):
            cs_divergence([0.6, 0.6], [0.5, 0.5])

    def test_negative_entry_rejected(self):
        with pytest.raises(NotAPmf):
            cs_divergence([1.5, -0.5], [0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cs_divergence([0.5, 0.5], [0.3, 0.3, 0.4])


class TestGcsDivergence:
    def test_identical_triple_gives_zero(self):
        assert abs(gcs_divergence([[0.5, 0.5]] * 3).value) <= 1e-12

    def test_m2_matches_cs_over_random_seeds(self):
        # independent implementations must agree to near machine precision
        for seed in range(100):
            rng = np.random.default_rng(seed)
            p, q = random_pmfs(rng, 2, int(rng.integers(2, 32)))
            assert abs(gcs_divergence([p, q]).value - cs_divergence(p, q).value) <= 1e-12

    def test_uniform_norm_factor_attains_bound(self):
        # sum over k of (1/4)^3 = 1/16 = 1/K^(M-1) for K=4, M=3
        uniform = np.full(4, 0.25)
        assert np.power(uniform, 3).sum() == pytest.approx(1.0 / 16.0, abs=1e-15)
        result = gcs_divergence([uniform, uniform, uniform])
        assert result.denominator == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_symmetry_under_permutations(self):
        rng = np.random.default_rng(7)
        pmfs = list(random_pmfs(rng, 4, 6))
        values = [
            gcs_divergence([pmfs[i] for i in perm]).value
            for perm in itertools.permutations(range(4))
        ]
        assert max(values) - min(values) <= 1e-12

    def test_too_few_distributions(self):
        with pytest.raises(TooFewDistributions):
            gcs_divergence([[1.0, 0.0]])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            gcs_divergence([[0.5, 0.5], [0.3, 0.3, 0.4]])

    def test_non_negative_over_random_tuples(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(2, 65))
            assert gcs_divergence(list(random_pmfs(rng, m, k))).value >= -1e-12


class TestScaleInvariance:
    def test_positive_scaling_changes_nothing(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            pmfs = random_pmfs(rng, m, int(rng.integers(2, 30)))
            scales = 10.0 ** rng.uniform(-3, 3, size=m)
            base = gcs_divergence(list(pmfs)).value
            scaled = gcs_divergence_unnormalized(list(pmfs * scales[:, None])).value
            assert abs(scaled - base) <= 1e-9 * max(1.0, abs(base))

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            gcs_divergence_unnormalized([[1.0, -1.0], [1.0, 1.0]])

    def test_all_zero_vector_rejected(self):
        with pytest.raises(NotAPmf):
            gcs_divergence_unnormalized([[0.0, 0.0], [1.0, 1.0]])


class TestHolder:
    def test_disjoint_pair(self):
        check = holder_check([[1.0, 0.0], [0.0, 1.0]])
        assert check.lhs == 0.0 and check.rhs == pytest.approx(1.0) and check.holds

    def test_equality_at_identical_sequences(self):
        rng = np.random.default_rng(17)
        seq = rng.uniform(0, 2, size=8)
        check = holder_check([seq, seq, seq])
        assert abs(check.lhs - check.rhs) <= 1e-12 * max(1.0, check.rhs)

    def test_thousand_random_tuples(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(2, 40))
            rows = rng.uniform(0, 1, size=(m, k))
            assert holder_check(list(rows)).holds

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
            min_size=2,
            max_size=5,
        )
    )
    def test_holder_property(self, rows):
        check = holder_check([np.array(r) for r in rows])
        assert check.lhs <= check.rhs + 1e-12 * max(1.0, check.rhs)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            holder_check([[1.0, -0.1], [1.0, 1.0]])


class TestKlAlignment:
    def test_identical_inputs_zero_epsilon(self):
        rows = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert kl_alignment(rows, rows, KlConfig(epsilon=0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_denominator_blows_up(self):
        value = kl_alignment([[0.5, 0.5]], [[1.0, 0.0]], KlConfig(epsilon=0.0))
        assert np.isinf(value)

    def test_hand_value_with_smoothing(self):
        eps = 1e-8
        expected = 0.5 * np.log(0.5 / (1.0 + eps)) + 0.5 * np.log(0.5 / eps)
        value = kl_alignment([[0.5, 0.5]], [[1.0, 0.0]], KlConfig(epsilon=eps))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(8.517, abs=2e-3)

    def test_zero_pred_contributes_zero(self):
        value = kl_alignment([[1.0, 0.0]], [[0.5, 0.5]], KlConfig(epsilon=0.0))
        assert value == pytest.approx(np.log(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            kl_alignment([[0.5, 0.5]], [[0.5, 0.25, 0.25]])


class TestMmd:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(10, 3))
        assert abs(mmd_squared(x, x.copy())) <= 1e-12

    def test_single_point_closed_form(self):
        u = np.array([[0.0, 0.0]])
        v = np.array([[3.0, 4.0]])
        sigma = 2.0
        expected = 2.0 - 2.0 * np.exp(-25.0 / (2.0 * sigma**2))
        assert mmd_squared(u, v, MmdConfig(sigma)) == pytest.approx(expected, abs=1e-14)

    def test_equal_single_points_give_zero(self):
        u = np.array([[1.0, 2.0]])
        assert mmd_squared(u, u.copy(), MmdConfig(1.5)) == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(29)
        x, y = rng.normal(size=(8, 4)), rng.normal(size=(6, 4))
        cfg = MmdConfig(1.0)
        assert mmd_squared(x, y, cfg) == pytest.approx(mmd_squared(y, x, cfg), abs=1e-12)

    def test_median_heuristic_degenerate(self):
        x = np.zeros((3, 2))
        with pytest.raises(DegenerateBandwidth):
            median_bandwidth(x, x)

    def test_non_negative(self):
        rng = np.random.default_rng(31)
        x, y = rng.normal(size=(12, 3)), rng.normal(size=(9, 3)) + 1.0
        assert mmd_squared(x, y) >= -1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mmd_squared(np.zeros((3, 2)), np.zeros((3, 3)), MmdConfig(1.0))


class TestCoral:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(7, 3))
        assert coral_loss(x, x.copy()) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_one(self):
        # C_x = 2 for x = {0, 2}; C_y = 0; (2-0)^2 / (4 * 1) = 1
        x = np.array([[0.0], [2.0]])
        y = np.array([[0.0], [0.0]])
        assert coral_loss(x, y) == pytest.approx(1.0, abs=1e-15)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(9, 4))
        assert coral_loss(x, x[::-1].copy()) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        x, y = rng.normal(size=(8, 3)), rng.normal(size=(11, 3))
        assert coral_loss(x, y) == pytest.approx(coral_loss(y, x), abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            coral_loss(np.zeros((1, 2)), np.zeros((5, 2)))


class TestEmptySamples:
    """An empty sample is rejected, not turned into a silent nan."""

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    @pytest.mark.parametrize(
        "measure",
        [
            lambda x, y: mmd_squared(x, y),
            lambda x, y: mmd_squared(x, y, MmdConfig(1.0)),
            coral_loss,
            median_bandwidth,
        ],
        ids=["mmd_median", "mmd_fixed", "coral", "median_bandwidth"],
    )
    def test_rejected(self, measure, shape):
        other = np.ones((5, shape[1])) * np.arange(5)[:, None]
        for x, y in ((np.zeros(shape), other), (other, np.zeros(shape))):
            with pytest.raises(ShapeMismatch, match="non-empty"):
                measure(x, y)


class TestPowerSumBounds:
    def test_random_pmfs_respect_bounds(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            m = int(rng.integers(2, 6))
            k = int(rng.integers(2, 65))
            p = random_pmfs(rng, 1, k)[0]
            assert (p * p).sum() >= 1.0 / k - 1e-12
            assert np.power(p, m).sum() >= k ** (1.0 - m) - 1e-12

    def test_uniform_attains_equality(self):
        for k in (2, 4, 16, 64):
            for m in (2, 3, 5):
                uniform = np.full(k, 1.0 / k)
                assert abs(np.power(uniform, m).sum() - k ** (1.0 - m)) <= 1e-12
