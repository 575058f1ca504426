import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csalign import (
    EmbeddingBatch,
    cosine_scores,
    evaluate_retrieval,
    mean_average_precision,
    precision_at_k,
    precision_at_k_scores,
    rank_gallery,
    top_k_hits,
)
from csalign.retrieval import SCORE_BLOCK_ROWS, average_precisions, rank_scores
from csalign.errors import BadK, NoRelevantItems, ShapeMismatch, ZeroNormRow
import retrieval_oracle as oracle


def relevance(query_labels, gallery_labels):
    """The (query, gallery) relevance mask of two label vectors."""
    return np.asarray(gallery_labels) == np.asarray(query_labels)[:, None]


def ranked_relevance(ranked, query_labels, gallery_labels):
    """Whether each query's item at each rank is relevant to it."""
    return np.asarray(gallery_labels)[ranked] == np.asarray(query_labels)[:, None]


class TestRankGallery:
    def test_query_vector_in_gallery_ranks_first(self):
        rng = np.random.default_rng(0)
        gallery = rng.normal(size=(6, 4))
        ranked = rank_gallery(gallery[[2]], gallery)
        assert ranked[0, 0] == 2

    def test_ties_broken_by_lower_index(self):
        gallery = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 0,1 parallel
        ranked = rank_gallery(np.array([[1.0, 0.0]]), gallery)
        assert ranked[0].tolist() == [0, 1, 2]

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(1)
        query, gallery = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        sim = (query / np.linalg.norm(query, axis=1, keepdims=True)) @ (
            gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
        ).T
        ranked = rank_gallery(query, gallery)
        for qi in range(5):
            expected = sorted(range(7), key=lambda j: (-sim[qi, j], j))
            assert ranked[qi].tolist() == expected

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rank_gallery(np.ones((2, 3)), np.ones((2, 4)))


class TestRankScores:
    """The unstable sort plus tie repair against the stable argsort."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 40),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_integer_scores_with_heavy_ties(self, rows, cols, levels, seed):
        scores = np.random.default_rng(seed).integers(-levels, levels, size=(rows, cols))
        scores = scores.astype(np.float64)
        assert np.array_equal(rank_scores(scores), oracle.stable_ranking(scores))

    @pytest.mark.parametrize("seed", range(20))
    def test_wide_blocks_with_copied_columns(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=(SCORE_BLOCK_ROWS, 300)), 2)
        scores[:, rng.choice(300, 40)] = scores[:, rng.choice(300, 40)]
        assert np.array_equal(rank_scores(scores), oracle.stable_ranking(scores))

    def test_all_equal_rows(self):
        scores = np.full((4, 9), 0.25)
        scores[2] = -1.0
        assert np.array_equal(rank_scores(scores), np.tile(np.arange(9), (4, 1)))

    @pytest.mark.parametrize("seed", range(10))
    def test_signed_zeros_tie(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.0, -0.0, 0.5, -0.5], size=(7, 30))
        assert np.array_equal(rank_scores(scores), oracle.stable_ranking(scores))

    def test_one_column_and_one_row(self):
        column = np.array([[0.3], [-0.0], [0.0]])
        assert np.array_equal(rank_scores(column), np.zeros((3, 1), dtype=int))
        row = np.array([[0.1, -0.0, 0.7, 0.0, 0.7, 0.1]])
        assert rank_scores(row).tolist() == [[2, 4, 0, 5, 1, 3]]
        assert np.array_equal(rank_scores(row), oracle.stable_ranking(row))


class TestPrecisionAtK:
    def test_perfect_clustering(self):
        ranked = np.array([[0, 1], [1, 0]])
        assert precision_at_k(ranked, [0, 1], [0, 1], 1) == 1.0

    def test_no_matches(self):
        ranked = np.array([[0, 1], [0, 1]])
        assert precision_at_k(ranked, [5, 6], [0, 1], 2) == 0.0

    def test_hand_two_thirds(self):
        ranked = np.array([[0], [1], [2]])
        value = precision_at_k(ranked, [0, 1, 9], [0, 1, 2], 1)
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_bad_k(self):
        with pytest.raises(BadK):
            precision_at_k(np.array([[0, 1]]), [0], [0, 1], 3)
        with pytest.raises(BadK):
            precision_at_k(np.array([[0, 1]]), [0], [0, 1], 0)


class TestScorePrecisionAtK:
    """Top-k selection on scores against precision_at_k of the stable ranking."""

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_exactly_with_ranked_precision_under_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, size=(25, 17)).astype(np.float64)  # many ties per row
        q_labels, g_labels = rng.integers(0, 3, 25), rng.integers(0, 3, 17)
        ranked = np.argsort(-scores, axis=1, kind="stable")
        for k in range(1, 18):
            assert precision_at_k_scores(scores, q_labels, g_labels, k) == precision_at_k(
                ranked, q_labels, g_labels, k
            )

    def test_ties_at_kth_score_go_to_lower_indices(self):
        scores = np.array([[0.5, 0.9, 0.5, 0.5, 0.1]])
        # ranking 1, 0, 2, 3, 4: the top 3 takes ties 0 and 2, not 3
        assert top_k_hits(scores, relevance([7], [7, 0, 7, 0, 7]), 3) == 2
        assert top_k_hits(scores, relevance([7], [0, 0, 0, 7, 0]), 3) == 0
        assert top_k_hits(scores, relevance([7], [0, 7, 0, 0, 0]), 1) == 1

    def test_bad_k(self):
        with pytest.raises(BadK):
            top_k_hits(np.zeros((2, 3)), relevance([0, 0], [0, 0, 0]), 4)
        with pytest.raises(BadK):
            precision_at_k_scores(np.zeros((2, 3)), [0, 0], [0, 0, 0], 0)


class TestCosineScores:
    def test_rank_gallery_sorts_the_scores(self):
        rng = np.random.default_rng(5)
        q, g = rng.normal(size=(7, 4)), rng.normal(size=(9, 4))
        assert np.array_equal(
            rank_gallery(q, g), np.argsort(-cosine_scores(q, g), axis=1, kind="stable")
        )

    def test_aligned_row_blocks_give_the_same_bits(self):
        rng = np.random.default_rng(6)
        n = 2 * SCORE_BLOCK_ROWS + 45
        q, g = rng.normal(size=(n, 16)), rng.normal(size=(n + 3, 16))
        full = cosine_scores(q, g)
        for start in range(0, n, SCORE_BLOCK_ROWS):
            rows = slice(start, start + SCORE_BLOCK_ROWS)
            assert np.array_equal(cosine_scores(q[rows], g), full[rows])

    def test_zero_norm_row_rejected(self):
        with pytest.raises(ZeroNormRow):
            cosine_scores(np.zeros((1, 3)), np.ones((2, 3)))


class TestMeanAveragePrecision:
    def test_all_relevant_first(self):
        ranked = np.array([[0, 1, 2, 3]])
        assert mean_average_precision(ranked, [1], [1, 1, 0, 0]) == 1.0

    def test_single_relevant_at_rank_two(self):
        ranked = np.array([[0, 1, 2]])
        assert mean_average_precision(ranked, [7], [0, 7, 0]) == pytest.approx(0.5)

    def test_hand_value_relevant_at_ranks_one_and_three(self):
        ranked = np.array([[0, 1, 2, 3]])
        value = mean_average_precision(ranked, [1], [1, 0, 1, 0])
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_no_relevant_items_raises(self):
        with pytest.raises(NoRelevantItems):
            mean_average_precision(np.array([[0, 1]]), [9], [0, 1])


class TestAveragePrecisions:
    """Vectorised AP against the one-query-at-a-time loop, compared with ==."""

    @pytest.mark.parametrize("seed", range(10))
    def test_unequal_classes_in_mixed_row_order(self, seed):
        rng = np.random.default_rng(seed)
        gallery_labels = rng.choice(5, size=90, p=[0.5, 0.25, 0.15, 0.07, 0.03])
        query_labels = rng.choice(np.unique(gallery_labels), size=37)
        scores = rng.integers(0, 6, size=(37, 90)).astype(np.float64)
        ranked = oracle.stable_ranking(scores)
        assert average_precisions(ranked_relevance(ranked, query_labels, gallery_labels)) == (
            oracle.average_precisions(ranked, query_labels, gallery_labels)
        )

    def test_one_class_gallery(self):
        rng = np.random.default_rng(11)
        ranked = oracle.stable_ranking(rng.normal(size=(6, 15)))
        values = average_precisions(ranked_relevance(ranked, np.full(6, 3), np.full(15, 3)))
        assert values == oracle.average_precisions(ranked, np.full(6, 3), np.full(15, 3))
        assert values == [1.0] * 6

    @pytest.mark.parametrize("seed", range(5))
    def test_truncated_rankings(self, seed):
        # a ranking cut at k columns: queries of one class can see different counts
        rng = np.random.default_rng(seed)
        gallery_labels = rng.integers(0, 3, size=50)
        query_labels = rng.integers(0, 3, size=20)
        ranked = oracle.stable_ranking(rng.normal(size=(20, 50)))[:, :12]
        expected = oracle.average_precisions(ranked, query_labels, gallery_labels)
        keep = [i for i, v in enumerate(expected) if v is not None]
        relevant = ranked_relevance(ranked[keep], query_labels[keep], gallery_labels)
        assert average_precisions(relevant) == [expected[i] for i in keep]

    def test_first_query_without_relevant_item_is_named(self):
        ranked = np.tile(np.arange(4), (5, 1))
        with pytest.raises(NoRelevantItems, match="^query 2 "):
            average_precisions(ranked_relevance(ranked, [0, 1, 7, 0, 8], [0, 1, 0, 1]))


class TestInvariances:
    def test_orthogonal_rotation_preserves_metrics(self):
        rng = np.random.default_rng(2)
        q, g = rng.normal(size=(6, 5)), rng.normal(size=(10, 5))
        q_labels, g_labels = rng.integers(0, 3, 6), rng.integers(0, 3, 10)
        rotation, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        base, rotated = rank_gallery(q, g), rank_gallery(q @ rotation, g @ rotation)
        assert np.array_equal(base, rotated)
        for k in (1, 5):
            assert precision_at_k(base, q_labels, g_labels, k) == pytest.approx(
                precision_at_k(rotated, q_labels, g_labels, k), abs=1e-12
            )
        assert mean_average_precision(base, q_labels, g_labels) == pytest.approx(
            mean_average_precision(rotated, q_labels, g_labels), abs=1e-12
        )

    def test_per_row_rescaling_preserves_ranking(self):
        rng = np.random.default_rng(3)
        q, g = rng.normal(size=(5, 4)), rng.normal(size=(8, 4))
        scales_q = rng.uniform(0.1, 10.0, size=(5, 1))
        scales_g = rng.uniform(0.1, 10.0, size=(8, 1))
        assert np.array_equal(rank_gallery(q, g), rank_gallery(q * scales_q, g * scales_g))


class TestEvaluateRetrieval:
    def test_direction_label_and_caps(self):
        rng = np.random.default_rng(4)
        labels = np.array([0, 0, 1, 1])
        q = EmbeddingBatch(rng.normal(size=(4, 3)), labels, "img")
        g = EmbeddingBatch(rng.normal(size=(4, 3)), labels, "txt")
        metrics = evaluate_retrieval(q, g, ks=(1, 10))
        assert metrics.direction == "img2txt"
        assert set(metrics.p_at) == {1, 10}
        assert 0.0 <= metrics.map_score <= 1.0
