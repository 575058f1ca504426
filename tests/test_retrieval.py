import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csalign import EmbeddingBatch, top_k_hits
from csalign.retrieval import SCORE_BLOCK_ROWS, average_precisions, rank_scores
from csalign.errors import BadK, NoRelevantItems, ShapeMismatch, ZeroNormRow
from csalign.pmf import row_norms
from csalign.train import evaluate_directions
import retrieval_oracle as oracle


def relevance(query_labels, gallery_labels):
    """The (query, gallery) relevance mask of two label vectors."""
    return np.asarray(gallery_labels) == np.asarray(query_labels)[:, None]


def ranked_relevance(ranked, query_labels, gallery_labels):
    """Whether each query's item at each rank is relevant to it."""
    return np.asarray(gallery_labels)[ranked] == np.asarray(query_labels)[:, None]


class TestRankGallery:
    """Galleries ranked by ``rank_scores`` of cosine scores, checked by hand."""

    def test_query_vector_in_gallery_ranks_first(self):
        rng = np.random.default_rng(0)
        gallery = rng.normal(size=(6, 4))
        ranked = rank_scores(oracle.cosine_scores(gallery[[2]], gallery))
        assert ranked[0, 0] == 2

    def test_ties_broken_by_lower_index(self):
        gallery = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # rows 0,1 parallel
        ranked = rank_scores(oracle.cosine_scores(np.array([[1.0, 0.0]]), gallery))
        assert ranked[0].tolist() == [0, 1, 2]

    def test_matches_bruteforce_sort(self):
        rng = np.random.default_rng(1)
        query, gallery = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        sim = (query / np.linalg.norm(query, axis=1, keepdims=True)) @ (
            gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
        ).T
        ranked = rank_scores(sim)
        for qi in range(5):
            expected = sorted(range(7), key=lambda j: (-sim[qi, j], j))
            assert ranked[qi].tolist() == expected

    def test_dim_mismatch(self):
        batches = [
            EmbeddingBatch(np.ones((2, 3)), [0, 1], "Q"),
            EmbeddingBatch(np.ones((2, 4)), [0, 1], "G"),
        ]
        with pytest.raises(ShapeMismatch):
            evaluate_directions(batches)


def ulp_pairs():
    """Two (lower, higher) score pairs one ulp apart, one positive and one
    negative, whose sort keys share every bit above the lowest: at any
    packing width the higher score would rank by index, after the lower."""
    half, quarter = np.float64(0.5).view(np.int64), np.float64(0.25).view(np.int64)
    high_pos = np.int64(half + 5).view(np.float64)
    high_neg = -np.int64(quarter + 4).view(np.float64)
    return [(np.nextafter(high, -np.inf), high) for high in (high_pos, high_neg)]


def ranked_in_place(scores):
    """``rank_scores`` written over a float64 copy of ``scores``."""
    buffer = np.array(scores, dtype=np.float64)
    ranked = rank_scores(buffer, out=buffer.view(np.int64))
    assert np.shares_memory(ranked, buffer)
    return ranked


def same_as_stable(scores):
    """The ranking equals the stable argsort, into a fresh array and into
    the scores' own memory (float64 scores only: a copy of other dtypes
    would round)."""
    expected = oracle.stable_ranking(scores)
    in_place = np.asarray(scores).dtype != np.float64 or np.array_equal(ranked_in_place(scores), expected)
    return np.array_equal(rank_scores(scores), expected) and in_place


class TestRankScores:
    """The packed-key sort, with its stable re-rank of rows whose distinct
    scores share a key's high bits, against the stable argsort."""

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
        assert same_as_stable(scores)

    @pytest.mark.parametrize("seed", range(20))
    def test_wide_blocks_with_copied_columns(self, seed):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(size=(SCORE_BLOCK_ROWS, 300)), 2)
        scores[:, rng.choice(300, 40)] = scores[:, rng.choice(300, 40)]
        assert same_as_stable(scores)

    def test_all_equal_rows(self):
        scores = np.full((4, 9), 0.25)
        scores[2] = -1.0
        assert np.array_equal(rank_scores(scores), np.tile(np.arange(9), (4, 1)))

    @pytest.mark.parametrize("seed", range(10))
    def test_signed_zeros_tie(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.0, -0.0, 0.5, -0.5], size=(7, 30))
        assert same_as_stable(scores)

    def test_one_column_and_one_row(self):
        column = np.array([[0.3], [-0.0], [0.0]])
        assert np.array_equal(rank_scores(column), np.zeros((3, 1), dtype=int))
        row = np.array([[0.1, -0.0, 0.7, 0.0, 0.7, 0.1]])
        assert rank_scores(row).tolist() == [[2, 4, 0, 5, 1, 3]]
        assert np.array_equal(rank_scores(row), oracle.stable_ranking(row))

    @pytest.mark.parametrize("n", [2, 3, 1024, 1025, 2048, 2049])
    def test_ulp_apart_scores_are_ranked_again(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        scores = rng.normal(size=(40, n))
        crafted = [1, 4, 33, 39]  # the other rows need no second ranking
        for row, (lower, higher) in zip(crafted, ulp_pairs() * 2):
            low_at, high_at = np.sort(rng.choice(n, 2, replace=False))
            scores[row, low_at], scores[row, high_at] = lower, higher
        expected = oracle.stable_ranking(scores)
        reranked = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda a, **kw: reranked.append(len(a)) or argsort(a, **kw))
        assert np.array_equal(rank_scores(scores), expected)
        assert sum(reranked) == len(crafted)
        assert np.array_equal(ranked_in_place(scores), expected)
        assert sum(reranked) == 2 * len(crafted)

    @pytest.mark.parametrize("n", [1, 2, 3, 1024, 1025, 2048, 2049])
    def test_widths_at_the_packing_boundaries(self, n):
        rng = np.random.default_rng(n)
        scores = np.round(rng.normal(size=(5, n)), 1)
        if n > 1:
            (scores[0, 0], scores[0, -1]), (scores[3, 0], scores[3, -1]) = ulp_pairs()
        assert same_as_stable(scores)

    def test_infinities_subnormals_and_signed_zeros(self):
        tiny = np.nextafter(0.0, 1.0)
        values = [np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-310, -1e-310, 1.0, -1.0]
        scores = np.random.default_rng(0).choice(values, size=(40, 37))
        assert same_as_stable(scores)

    def test_float32_and_integer_scores(self):
        rng = np.random.default_rng(1)
        single = rng.normal(size=(20, 50)).astype(np.float32)
        single[:, 10:20] = single[:, :10]
        assert same_as_stable(single)
        assert same_as_stable(rng.integers(-4, 4, size=(20, 50)))
        assert same_as_stable(rng.integers(-(2**62), 2**62, size=(20, 50)))

    def test_retrieval_eval_sized_block(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(-1.0, 1.0, size=(SCORE_BLOCK_ROWS, 1280))
        src, dst = np.split(rng.choice(1280, 128, replace=False), 2)
        scores[:, dst] = scores[:, src]
        assert same_as_stable(scores)


class TestPrecisionAtK:
    """Hand values of ``top_k_hits``; each score row ranks in index order."""

    def test_perfect_clustering(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert top_k_hits(scores, relevance([0, 1], [0, 1]), 1) == 2

    def test_no_matches(self):
        scores = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert top_k_hits(scores, relevance([5, 6], [0, 1]), 2) == 0

    def test_hand_two_thirds(self):
        hits = top_k_hits(np.eye(3), relevance([0, 1, 9], [0, 1, 2]), 1)
        assert hits / 3 == pytest.approx(2 / 3, abs=1e-12)

    def test_bad_k(self):
        scores, relevant = np.array([[1.0, 0.0]]), relevance([0], [0, 1])
        with pytest.raises(BadK):
            top_k_hits(scores, relevant, 3)
        with pytest.raises(BadK):
            top_k_hits(scores, relevant, 0)


class TestScorePrecisionAtK:
    """Top-k selection on scores against P@K of the stable ranking."""

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_exactly_with_ranked_precision_under_heavy_ties(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, size=(25, 17)).astype(np.float64)  # many ties per row
        q_labels, g_labels = rng.integers(0, 3, 25), rng.integers(0, 3, 17)
        ranked = oracle.stable_ranking(scores)
        for k in range(1, 18):
            assert top_k_hits(scores, relevance(q_labels, g_labels), k) / (25 * k) == (
                oracle.precision_at_k(ranked, q_labels, g_labels, k)
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
            top_k_hits(np.zeros((2, 3)), relevance([0, 0], [0, 0, 0]), 0)


class TestCosineScores:
    """The cosine scores of the evaluation, against the oracle's."""

    def test_rank_gallery_sorts_the_scores(self):
        rng = np.random.default_rng(5)
        scores = oracle.cosine_scores(rng.normal(size=(7, 4)), rng.normal(size=(9, 4)))
        assert np.array_equal(rank_scores(scores), np.argsort(-scores, axis=1, kind="stable"))

    def test_aligned_row_blocks_give_the_same_bits(self):
        # gallery rows copied onto rows of another label are exact ties whose
        # order a one-ulp difference in the scores would flip; the oracle
        # multiplies in the program's blocks, where a whole-matrix product
        # may round differently
        for n in (SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS + 1, 700):
            for seed in range(6):
                rng = np.random.default_rng(seed)
                labels = rng.integers(0, 8, size=n)
                src = rng.choice(n, 64, replace=False)
                dst = np.array([rng.choice(np.flatnonzero(labels != labels[s])) for s in src])
                batches = []
                for name in "AB":
                    x = rng.normal(size=(n, 16))
                    x[dst] = x[src]
                    batches.append(EmbeddingBatch(x, labels, name))
                reference = oracle.direction_metrics(batches)
                assert evaluate_directions(batches, with_map=True) == reference, (n, seed)
                assert evaluate_directions(batches) == {
                    d: {"p1": v["p1"], "p10": v["p10"]} for d, v in reference.items()
                }, (n, seed)

    def test_zero_norm_row_rejected(self):
        with pytest.raises(ZeroNormRow):
            row_norms(np.zeros((1, 3)), "the query rows")
        query = EmbeddingBatch(np.ones((2, 3)), [0, 1], "Q")
        object.__setattr__(query, "data", np.zeros((2, 3)))
        with pytest.raises(ZeroNormRow, match="^batch 'Q' "):
            evaluate_directions([query, EmbeddingBatch(np.ones((2, 3)), [0, 1], "G")])


class TestMeanAveragePrecision:
    """Hand values of ``average_precisions`` on one ranked query."""

    def test_all_relevant_first(self):
        assert average_precisions(np.array([[True, True, False, False]])) == [1.0]

    def test_single_relevant_at_rank_two(self):
        value = average_precisions(np.array([[False, True, False]]))
        assert value == [pytest.approx(0.5)]

    def test_hand_value_relevant_at_ranks_one_and_three(self):
        value = average_precisions(np.array([[True, False, True, False]]))
        assert value == [pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)]

    def test_no_relevant_items_raises(self):
        with pytest.raises(NoRelevantItems):
            average_precisions(np.array([[False, False]]))


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
        q, g = rng.normal(size=(10, 5)), rng.normal(size=(10, 5))
        labels = rng.integers(0, 3, 10)
        rotation, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        base = rank_scores(oracle.cosine_scores(q, g))
        assert np.array_equal(base, rank_scores(oracle.cosine_scores(q @ rotation, g @ rotation)))
        batches = [EmbeddingBatch(q, labels, "Q"), EmbeddingBatch(g, labels, "G")]
        rotated = [EmbeddingBatch(b.data @ rotation, b.labels, b.modality_name) for b in batches]
        metrics = evaluate_directions(batches, with_map=True)
        assert metrics == oracle.direction_metrics(batches)
        for direction, values in evaluate_directions(rotated, with_map=True).items():
            for name, value in values.items():
                assert value == pytest.approx(metrics[direction][name], abs=1e-12)

    def test_per_row_rescaling_preserves_ranking(self):
        rng = np.random.default_rng(3)
        q, g = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        scales_q = rng.uniform(0.1, 10.0, size=(8, 1))
        scales_g = rng.uniform(0.1, 10.0, size=(8, 1))
        assert np.array_equal(
            rank_scores(oracle.cosine_scores(q, g)),
            rank_scores(oracle.cosine_scores(q * scales_q, g * scales_g)),
        )
        labels = np.arange(8) % 2
        batches = [EmbeddingBatch(q, labels, "Q"), EmbeddingBatch(g, labels, "G")]
        scaled = [
            EmbeddingBatch(b.data * scales, b.labels, b.modality_name)
            for b, scales in zip(batches, (scales_q, scales_g))
        ]
        metrics = evaluate_directions(batches, with_map=True)
        assert evaluate_directions(scaled, with_map=True) == metrics


class TestEvaluateRetrieval:
    def test_direction_label_and_caps(self):
        rng = np.random.default_rng(4)
        labels = np.array([0, 0, 1, 1])
        q = EmbeddingBatch(rng.normal(size=(4, 3)), labels, "img")
        g = EmbeddingBatch(rng.normal(size=(4, 3)), labels, "txt")
        metrics = evaluate_directions([q, g], with_map=True)
        assert set(metrics) == {"img2txt", "txt2img"}
        assert metrics == oracle.direction_metrics([q, g])  # P@10 over the 4 gallery items
        assert all(0.0 <= m["map"] <= 1.0 for m in metrics.values())
