import numpy as np
import pytest

from csalign import (
    AlignConfig,
    EmbeddingBatch,
    MatchMatrix,
    PmfKind,
    PmfMatrix,
    SimilarityMatrix,
    association_pmf,
    build_match_matrix,
    cosine_similarity_matrix,
    true_match_pmf,
)
from csalign.errors import (
    ConfigError,
    EmptyMatchRow,
    NonFiniteSimilarity,
    NotAPmf,
    ShapeMismatch,
    ZeroNormRow,
)
from csalign.retrieval import cosine_scores


def batch(data, labels, name="A"):
    return EmbeddingBatch(np.asarray(data, dtype=float), labels, name)


class TestCosineSimilarity:
    def test_orthogonal_rows(self):
        a = batch([[1, 0], [0, 1]], [0, 1])
        b = batch([[0, 1], [1, 0]], [0, 1], "B")
        sim = cosine_similarity_matrix(a, b)
        assert sim.values[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_parallel_rows_scale_cancels(self):
        a = batch([[2, 0], [1, 1]], [0, 1])
        b = batch([[5, 0], [1, 1]], [0, 1], "B")
        assert cosine_similarity_matrix(a, b).values[0, 0] == pytest.approx(1.0)

    def test_hand_value_24_over_25(self):
        a = batch([[3, 4], [1, 0]], [0, 1])
        b = batch([[4, 3], [0, 1]], [0, 1], "B")
        assert cosine_similarity_matrix(a, b).values[0, 0] == pytest.approx(0.96, abs=1e-15)

    def test_values_clamped_to_unit_interval(self):
        rng = np.random.default_rng(3)
        a = batch(rng.normal(size=(6, 4)), np.zeros(6))
        sim = cosine_similarity_matrix(a, a)
        assert sim.values.max() <= 1.0 and sim.values.min() >= -1.0

    def test_shape_mismatch(self):
        a = batch([[1, 0], [0, 1]], [0, 1])
        b = batch([[1, 0, 0], [0, 1, 0]], [0, 1], "B")
        with pytest.raises(ShapeMismatch):
            cosine_similarity_matrix(a, b)

    def test_zero_norm_row_rejected_at_construction(self):
        with pytest.raises(ZeroNormRow):
            batch([[0, 0], [1, 0]], [0, 1])

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_rows_below_min_row_norm_rejected_by_one_rule(self, scale):
        # at 1e-160 the squares are subnormal and the computed norms are off
        # (the batch used to be accepted with a wrong loss); at 1e-170 they
        # underflow to 0 (it was rejected as a zero-norm row, though no row is)
        rows = np.random.default_rng(41).normal(size=(4, 3))
        with pytest.raises(ZeroNormRow, match=r"below MIN_ROW_NORM = 1e-30"):
            batch(rows * scale, [0, 0, 1, 1])
        with pytest.raises(ZeroNormRow, match=r"below MIN_ROW_NORM = 1e-30"):
            cosine_scores(rows * scale, rows)
        assert np.array_equal(batch(rows * 1e-28, [0, 0, 1, 1]).data, rows * 1e-28)


class TestAssociationPmf:
    def test_identical_similarities_give_uniform(self):
        sim = SimilarityMatrix(np.full((4, 4), 0.3), "A", "B")
        rows = association_pmf(sim).rows
        assert np.allclose(rows, 0.25, atol=1e-15)

    def test_hand_softmax_thirds(self):
        values = np.array([[0.0, np.log(2.0)], [0.0, 0.0]])
        rows = association_pmf(SimilarityMatrix(values, "A", "B")).rows
        assert rows[0] == pytest.approx([1 / 3, 2 / 3], abs=1e-15)

    def test_extreme_temperature_ratio_is_stable(self):
        # similarity gap of 1 at tau=1e-3 is a logit gap of 1000:
        # naive exp would overflow, max-subtraction must not
        sim = SimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "A", "B")
        rows = association_pmf(sim, AlignConfig(temperature=1e-3)).rows
        assert np.all(np.isfinite(rows))
        assert rows[0, 1] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        sim = SimilarityMatrix(rng.uniform(-1, 1, (8, 8)), "A", "B")
        rows = association_pmf(sim).rows
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-9

    def test_strictly_positive_entries(self):
        rng = np.random.default_rng(1)
        sim = SimilarityMatrix(rng.uniform(-1, 1, (16, 16)), "A", "B")
        assert association_pmf(sim).rows.min() > 0

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(-0.5, 0.0, (5, 5))
        shifted = base + 0.5  # stays inside [-1, 1]
        p0 = association_pmf(SimilarityMatrix(base, "A", "B")).rows
        p1 = association_pmf(SimilarityMatrix(shifted, "A", "B")).rows
        assert np.abs(p0 - p1).max() <= 1e-12

    def test_huge_temperature_approaches_uniform(self):
        rng = np.random.default_rng(4)
        sim = SimilarityMatrix(rng.uniform(-1, 1, (6, 6)), "A", "B")
        rows = association_pmf(sim, AlignConfig(temperature=1e9)).rows
        assert (rows.max(axis=1) - rows.min(axis=1)).max() <= 1e-6

    def test_non_finite_similarity_rejected(self):
        values = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(NonFiniteSimilarity):
            association_pmf(SimilarityMatrix(values, "A", "B"))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            AlignConfig(temperature=0.0)


class TestMatchMatrix:
    def test_paired_instances(self):
        match = build_match_matrix([0, 1], [0, 1])
        assert match.values.tolist() == [[1, 0], [0, 1]]

    def test_single_class(self):
        match = build_match_matrix([0, 0], [0, 0])
        assert match.values.tolist() == [[1, 1], [1, 1]]

    def test_swapped_labels(self):
        match = build_match_matrix([0, 1], [1, 0])
        assert match.values.tolist() == [[0, 1], [1, 0]]

    def test_diagonal_guarantee_for_paired_batches(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, size=12)
        match = build_match_matrix(labels, labels)
        assert np.all(np.diag(match.values) == 1)

    def test_empty_row_rejected(self):
        with pytest.raises(EmptyMatchRow):
            build_match_matrix([0, 1], [1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(NotAPmf):
            MatchMatrix(np.array([[2, 0], [0, 1]]))


class TestTrueMatchPmf:
    @pytest.mark.parametrize(
        "row,expected",
        [
            ([1, 0, 1, 0], [0.5, 0, 0.5, 0]),
            ([1, 0, 0, 0], [1, 0, 0, 0]),
            ([1, 1, 1, 1], [0.25, 0.25, 0.25, 0.25]),
        ],
    )
    def test_row_normalization(self, row, expected):
        values = np.stack([row, [1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 1, 1]])
        pmf = true_match_pmf(MatchMatrix(values))
        assert pmf.kind is PmfKind.TRUE_MATCH
        assert pmf.rows[0] == pytest.approx(expected)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, size=10)
        pmf = true_match_pmf(build_match_matrix(labels, labels))
        assert np.abs(pmf.rows.sum(axis=1) - 1.0).max() <= 1e-9


class TestPmfMatrixValidation:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(NotAPmf):
            PmfMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(NotAPmf):
            PmfMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_labels_length_enforced(self):
        with pytest.raises(ShapeMismatch):
            EmbeddingBatch(np.eye(3), [0, 1])
