import itertools
import math
import statistics
from decimal import Decimal, localcontext

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
from csalign.divergence import sq_distances
from csalign.errors import (
    DegenerateBandwidth,
    LengthMismatch,
    NegativeEntry,
    NonFiniteSample,
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


def decimal_gcs(stack):
    """GCS of a stack in 40-digit decimal arithmetic, which no product of
    a few hundred PMF entries underflows."""
    with localcontext() as ctx:
        ctx.prec = 40
        rows = [[Decimal(float(x)) for x in row] for row in stack]
        numerator = sum((math.prod(column, start=Decimal(1)) for column in zip(*rows)), Decimal(0))
        log_norms = sum(sum(x ** len(rows) for x in row).ln() for row in rows) / len(rows)
        return float(log_norms - numerator.ln())


class TestGcsPastFloatRange:
    # 200 PMFs of 64 points: their products and 200th powers underflow

    def test_identical_pmfs_give_zero(self):
        result = gcs_divergence([np.full(64, 1 / 64)] * 200)
        assert abs(result.value) <= 1e-12

    def test_dirichlet_pmfs_match_a_decimal_reference(self):
        pmfs = np.random.default_rng(0).dirichlet(np.ones(64), size=200)
        reference = decimal_gcs(pmfs)
        assert reference == pytest.approx(388.198, abs=1e-3)
        assert gcs_divergence(pmfs).value == pytest.approx(reference, rel=1e-9)

    @pytest.mark.parametrize("pmfs", [
        [np.full(64, 1 / 64)] * 200,
        np.random.default_rng(0).dirichlet(np.ones(64), size=200),
    ])
    def test_rescaled_copies_give_the_same_value(self, pmfs):
        scales = 10.0 ** np.random.default_rng(1).uniform(-3, 3, size=(len(pmfs), 1))
        base = gcs_divergence(pmfs).value
        scaled = gcs_divergence_unnormalized(np.asarray(pmfs) * scales).value
        assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))

    def test_vectors_whose_products_overflow(self):
        assert abs(gcs_divergence_unnormalized([np.full(4, 1e200)] * 3).value) <= 1e-12

    def test_disjoint_supports_stay_infinite(self):
        left = np.r_[np.full(32, 1 / 32), np.zeros(32)]
        result = gcs_divergence([left] * 100 + [left[::-1]] * 100)
        assert result.value == np.inf and result.numerator == 0.0


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_rejected(self, bad):
        # an infinite lhs and rhs would otherwise compare as holding
        with pytest.raises(NotAPmf, match="sequence 0"):
            holder_check([[bad, 1.0], [1.0, 1.0]])


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

    @pytest.mark.parametrize("side", ["s_pred", "s_true"])
    @pytest.mark.parametrize(
        "bad_row, error",
        [([0.5, np.nan], NotAPmf), ([np.inf, 0.5], NotAPmf), ([-0.5, 1.5], NegativeEntry)],
    )
    def test_bad_entry_rejected(self, side, bad_row, error):
        # a nan or negative entry would otherwise be dropped by the zero
        # convention or give a nan or a wrong finite value
        good = [[0.5, 0.5], [0.25, 0.75]]
        rows = {"s_pred": good, "s_true": good, side: [good[0], bad_row]}
        with pytest.raises(error, match=f"{side} row 1"):
            kl_alignment(rows["s_pred"], rows["s_true"])


def reference_sq_distances(a, b):
    """Squared distances from the row differences themselves, by broadcasting."""
    diff = a[:, None, :] - b[None, :, :]
    return (diff * diff).sum(axis=-1)


def reference_median_distance(x, y):
    """``np.median`` of every pair of distinct pooled rows, listed by hand."""
    pooled = np.vstack([x, y])
    n = len(pooled)
    return statistics.median(math.dist(pooled[i], pooled[j]) for i in range(n) for j in range(i + 1, n))


class TestSqDistances:
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("n_a, n_b, d", [(1, 1, 3), (9, 13, 4), (40, 25, 16), (64, 48, 32)])
    def test_agrees_with_row_differences(self, offset, n_a, n_b, d):
        # +1e3 puts every entry far inside the cancellation bound, and at
        # 64 x 48 x 32 the recomputed pairs span more than one chunk
        rng = np.random.default_rng([n_a, n_b, d])
        a = rng.normal(size=(n_a, d)) + offset
        b = rng.normal(size=(n_b, d)) + offset
        for u, v in ((a, b), (a, a), (b, a)):
            np.testing.assert_allclose(sq_distances(u, v), reference_sq_distances(u, v), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_equal_rows_give_exact_zero_and_nothing_is_negative(self, offset):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(4, 16)) + offset
        a = rows[[0, 1, 0, 2, 0, 1]]
        b = rows[[3, 0, 1, 0]]
        for u, v in ((a, a), (a, b), (b, a.copy())):
            dist = sq_distances(u, v)
            equal = (u[:, None, :] == v[None, :, :]).all(axis=-1)
            assert np.all(dist[equal] == 0.0)
            assert np.all(dist[~equal] > 0.0)

    def test_near_equal_rows_are_never_negative(self):
        rng = np.random.default_rng(5)
        a = 1e3 + 1e-9 * rng.normal(size=(30, 8))
        dist = sq_distances(a, a[::-1])
        assert dist.min() >= 0.0
        np.testing.assert_allclose(dist, reference_sq_distances(a, a[::-1]), rtol=1e-12, atol=0)

    def test_rows_whose_squared_norms_overflow(self):
        rng = np.random.default_rng(7)
        a = 1e160 * (1.0 + 1e-10 * rng.normal(size=(5, 3)))
        b = 1e160 * (1.0 + 1e-10 * rng.normal(size=(4, 3)))
        dist = sq_distances(a, b)
        assert np.all(np.isfinite(dist))
        np.testing.assert_allclose(dist, reference_sq_distances(a, b), rtol=1e-12, atol=0)


class TestMedianBandwidth:
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("n_x, n_y", [(1, 1), (4, 4), (6, 5), (9, 12)])
    def test_median_of_the_condensed_pairs(self, offset, n_x, n_y):
        # 1, 28, 55 and 210 pairs: odd and even counts
        rng = np.random.default_rng([n_x, n_y])
        x = rng.normal(size=(n_x, 3)) + offset
        y = rng.normal(size=(n_y, 3)) + offset + 0.5
        assert median_bandwidth(x, y) == pytest.approx(reference_median_distance(x, y), rel=1e-12, abs=0)

    @pytest.mark.parametrize("seed", [3, 12])
    def test_mostly_repeated_non_zero_rows_are_degenerate(self, seed):
        # the bare Gram form gives these repeated rows a squared distance
        # of 3.6e-15 (seed 3) or a negative one (seed 12), not 0
        rng = np.random.default_rng(seed)
        row, others = rng.normal(size=(1, 2)) + 0.5, rng.normal(size=(2, 2))
        x = np.vstack([np.repeat(row, 7, axis=0), others[:1]])
        y = np.vstack([np.repeat(row, 5, axis=0), others[1:]])
        assert reference_median_distance(x, y) == 0.0
        with pytest.raises(DegenerateBandwidth):
            median_bandwidth(x, y)
        with pytest.raises(DegenerateBandwidth):
            mmd_squared(x, y)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            median_bandwidth(np.zeros((3, 2)), np.zeros((3, 3)))


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

    # finite samples whose kernel scale 1/(2 sigma^2) leaves float range
    @pytest.mark.parametrize("scale, bandwidth", [
        (1e200, "median"),  # the median distance overflows: sigma = inf
        (1e-161, "median"),  # sigma^2 underflows toward zero
        (1.0, 1e-200),  # a given sigma whose square underflows
        (1.0, 1e160),  # a given sigma whose 2 sigma^2 overflows
    ])
    def test_kernel_scale_out_of_range_is_named(self, scale, bandwidth):
        x = np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.25], [1.0, 1.0, -1.0]]) * scale
        y = np.array([[0.1, 0.2, 0.3], [0.4, -0.5, 0.6]]) * scale
        with pytest.raises(NonFiniteSample, match="1/\\(2 sigma\\^2\\) leaves float range"):
            mmd_squared(x, y, MmdConfig(bandwidth))

    def test_distance_that_alone_overflows_gives_a_zero_kernel(self):
        x = np.array([[1e200, -1e200], [0.3, 0.1], [0.2, 0.4]])
        y = np.array([[0.1, 0.2], [0.4, -0.5], [-0.7, 0.8]])
        value = mmd_squared(x, y, MmdConfig(2.0))

        def kernel_sum(a, b):  # sigma = 2: exp(-d^2 / 8)
            return np.exp(-sq_distances(a, b) / 8.0).sum()

        # the far row's kernel entries are 0, except the 1 with itself
        near = x[1:]
        expected = (kernel_sum(near, near) + 1.0 + kernel_sum(y, y) - 2 * kernel_sum(near, y)) / 9
        assert value == pytest.approx(expected, rel=1e-12)


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

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_overflow_is_named(self, scale):
        x = np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.25], [1.0, 1.0, -1.0]]) * scale
        y = np.array([[0.1, 0.2, 0.3], [0.4, -0.5, 0.6], [-0.7, 0.8, 0.9]])
        with pytest.raises(NonFiniteSample, match="CORAL loss overflows float range"):
            coral_loss(x, y)


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
