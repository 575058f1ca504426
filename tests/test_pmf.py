import numpy as np
import pytest

from csalign import AlignConfig, EmbeddingBatch, ModalityRing, bimodal_cmpm_cs, pmf
from csalign.divergence import sq_distances
from csalign.errors import ConfigError, NonFiniteSimilarity, NotAPmf, ShapeMismatch, ZeroNormRow
from csalign.losses import check_paired, gcs_logit_rows, label_support
from csalign.pmf import chunk_rows, row_norms
from csalign.retrieval import average_precisions, evaluate_directions, top_k_hits


def batch(data, labels, name="A"):
    return EmbeddingBatch(np.asarray(data, dtype=float), labels, name)


def one_class_per_row_loss(cos, tau=1.0):
    """Mean over rows of the CS divergence between softmax(cos_i / tau)
    and the one-hot true match at i: ``lse(2 z_i) / 2 - z_ii``."""
    z = np.asarray(cos) / tau
    return float(np.mean(np.logaddexp.reduce(2 * z, axis=1) / 2 - np.diag(z)))


class TestCosineSimilarity:
    """Cosines as the loss engine and the evaluation compute them."""

    def test_orthogonal_rows(self):
        a = batch([[1, 0], [0, 1]], [0, 1])
        b = batch([[0, 1], [1, 0]], [0, 1], "B")
        report = bimodal_cmpm_cs(a, b)
        expected = one_class_per_row_loss([[0.0, 1.0], [1.0, 0.0]])
        assert report.per_direction["A2B"] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_parallel_rows_scale_cancels(self):
        a = batch([[2, 0], [1, 1]], [0, 1])
        b = batch([[5, 0], [1, 1]], [0, 1], "B")
        unit = [
            batch(x.data / np.linalg.norm(x.data, axis=1, keepdims=True), [0, 1], x.modality_name)
            for x in (a, b)
        ]
        expected = bimodal_cmpm_cs(*unit).total
        assert bimodal_cmpm_cs(a, b).total == pytest.approx(expected, rel=1e-12, abs=0)
        metrics = evaluate_directions(unit, with_map=True)
        assert evaluate_directions([a, b], with_map=True) == metrics

    def test_hand_value_24_over_25(self):
        a = batch([[3, 4], [1, 0]], [0, 1])
        b = batch([[4, 3], [0, 1]], [0, 1], "B")
        report = bimodal_cmpm_cs(a, b)
        expected = one_class_per_row_loss([[0.96, 0.8], [0.8, 0.0]])
        assert report.per_direction["A2B"] == pytest.approx(expected, rel=1e-12, abs=0)
        assert report.per_direction["B2A"] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_shape_mismatch(self):
        a = batch([[1, 0], [0, 1]], [0, 1])
        b = batch([[1, 0, 0], [0, 1, 0]], [0, 1], "B")
        with pytest.raises(ShapeMismatch):
            ModalityRing((a, b))
        with pytest.raises(ShapeMismatch):
            evaluate_directions([a, b])

    def test_zero_norm_row_rejected_at_construction(self):
        with pytest.raises(ZeroNormRow):
            batch([[0, 0], [1, 0]], [0, 1])

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_rows_below_min_row_norm_rejected_by_one_rule(self, scale):
        # at 1e-160 the squares are subnormal and the computed norms are off
        # (the batch used to be accepted with a wrong loss); at 1e-170 they
        # underflow to 0 (it was rejected as a zero-norm row, though no row is)
        rows = np.random.default_rng(41).normal(size=(4, 3))
        labels = [0, 0, 1, 1]
        with pytest.raises(ZeroNormRow, match=r"below MIN_ROW_NORM = 1e-30"):
            batch(rows * scale, labels)
        with pytest.raises(ZeroNormRow, match=r"below MIN_ROW_NORM = 1e-30"):
            row_norms(rows * scale, "the rows")
        # rows scaled after validation reach evaluation under the same rule
        tiny = batch(rows, labels, "B")
        object.__setattr__(tiny, "data", rows * scale)
        for with_map in (False, True):
            with pytest.raises(ZeroNormRow, match=r"^batch 'B' has a row whose norm is below"):
                evaluate_directions([batch(rows, labels), tiny], with_map)
        assert np.array_equal(batch(rows * 1e-28, labels).data, rows * 1e-28)


class TestRowNorms:
    """``row_norms`` squares a bounded chunk of rows at a time."""

    step = chunk_rows(64)  # rows of one chunk at d = 64

    @pytest.mark.parametrize(
        "shape", [(1600, 64), (3, 128, 16), (1000, 3), (3 * step + 5, 64), (7,), (0, 4)])
    def test_equals_the_unchunked_norm_bit_for_bit(self, shape):
        data = np.random.default_rng(43).normal(size=shape) * 1e3
        norms = row_norms(data, "the rows")
        want = np.linalg.norm(data, axis=-1, keepdims=True)
        assert norms.shape == want.shape and norms.dtype == want.dtype
        assert norms.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "value, error", [(np.nan, NonFiniteSimilarity), (np.inf, NonFiniteSimilarity),
                         (1e200, NonFiniteSimilarity), (0.0, ZeroNormRow)])
    def test_bad_row_in_a_later_chunk(self, value, error):
        data = np.random.default_rng(47).normal(size=(1600, 64))
        data[3 * self.step + 2] = value  # the fourth chunk's third row
        match = "non-finite values" if error is NonFiniteSimilarity else "below MIN_ROW_NORM"
        with pytest.raises(error, match=f"^the rows (contains|has a row) .*{match}"):
            row_norms(data, "the rows")

    def test_peak_is_the_output_and_one_chunk(self):
        import tracemalloc

        data = np.random.default_rng(53).normal(size=(1600, 64))
        out = row_norms(data, "the rows")
        tracemalloc.start()
        try:
            row_norms(data, "the rows")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk's squares plus the row sums and roots ``np.linalg.norm``
        # takes of them, and 1 KiB for the Python objects of the loop
        chunk = self.step * (64 + 2) * 8
        assert peak < out.nbytes + chunk + 1024 < data.nbytes


def _chunked_cases():
    """(function of no arguments, rows it chunks, entries per row) for each
    loop that ``chunk_rows`` sizes, on inputs that reach every branch."""
    rng = np.random.default_rng(59)
    data = rng.normal(size=(37, 64))
    # integer scores: many items tie at each query's 10th-best score
    scores = rng.integers(0, 5, size=(37, 50)).astype(float)
    relevant = rng.random((37, 50)) < 0.3
    # five relevant ranks per query, so every query is in one group
    ranks = np.zeros((37, 50), dtype=bool)
    for row in ranks:
        row[rng.choice(50, 5, replace=False)] = True
    # near-equal rows: every Gram entry is recomputed from its row difference
    near = 1e3 + 1e-9 * rng.normal(size=(31, 8))
    return {
        "row_norms": (lambda: row_norms(data, "the rows"), 37, 64),
        "top_k_hits": (lambda: top_k_hits(scores, relevant, 10), 37, 50),
        "average_precisions": (lambda: average_precisions(ranks), 37, 5),
        "sq_distances": (lambda: sq_distances(near, near[:29][::-1]), 31 * 29, 8),
    }


@pytest.mark.parametrize("rows_per_chunk", [1, 3])
@pytest.mark.parametrize("name", ["row_norms", "top_k_hits", "average_precisions", "sq_distances"])
def test_chunking_never_changes_a_value(name, rows_per_chunk, monkeypatch):
    fn, rows, width = _chunked_cases()[name]
    whole = np.asarray(fn()).tolist()  # one chunk at the default size
    assert chunk_rows(width) >= rows
    monkeypatch.setattr(pmf, "CHUNK_ENTRIES", rows_per_chunk * width + width - 1)
    assert chunk_rows(width) == rows_per_chunk and (rows_per_chunk == 1 or rows % rows_per_chunk)
    assert np.asarray(fn()).tolist() == whole


class TestAssociationPmf:
    """The association softmax as the loss engine evaluates it, from the logits."""

    def test_identical_similarities_give_uniform(self):
        # every cosine equal: uniform association against c_i same-label
        # items, so CS = log(n / c_i) / 2 at any temperature
        labels = np.array([0, 0, 1, 1, 1, 2])
        a = batch(np.tile([1.0, 2.0, 0.0], (6, 1)), labels)
        b = batch(np.tile([0.0, 1.0, 3.0], (6, 1)), labels, "B")
        report = bimodal_cmpm_cs(a, b)
        uniform = 0.5 * np.log(labels.size / np.bincount(labels)[labels])
        assert np.abs(report.per_sample - 2 * uniform).max() <= 1e-12

    def test_hand_softmax_thirds(self):
        # a cosine gap of 1 at tau = 1 / log 2 is a logit gap of log 2: the
        # association is (1/3, 2/3) against a one-hot true match, and
        # CS = -log(1/3) + log(5/9) / 2 = log(5) / 2 in each direction
        a = batch([[1, 0], [0, 1]], [0, 1])
        b = batch([[0, 1], [1, 0]], [0, 1], "B")
        report = bimodal_cmpm_cs(a, b, AlignConfig(temperature=1 / np.log(2.0)))
        for direction in ("A2B", "B2A"):
            assert report.per_direction[direction] == pytest.approx(np.log(5.0) / 2, rel=1e-12)

    def test_extreme_temperature_ratio_is_stable(self):
        # similarity gap of 1 at tau=1e-3 is a logit gap of 1000: the true
        # match's probability underflows to 0 as a number, but not as a log
        a = batch([[1, 0], [0, 1]], [0, 1])
        b = batch([[0, 1], [1, 0]], [0, 1], "B")
        report = bimodal_cmpm_cs(a, b, AlignConfig(temperature=1e-3))
        assert report.finite
        assert report.per_direction["A2B"] == pytest.approx(1000.0, rel=1e-12)

    def test_shift_invariance(self):
        # one constant added to every logit leaves every softmax, and so
        # every per-anchor GCS of both readings, unchanged
        rng = np.random.default_rng(2)
        base = rng.uniform(-0.5, 0.0, (2, 5, 5))
        shifted = base + 0.5  # stays inside [-1, 1]
        support = label_support(np.array([0, 1, 0, 2, 1]))
        # the kernel reads k z, k = M + 1 = 3
        v0, _ = gcs_logit_rows(3 * base, support, 1.0)
        v1, _ = gcs_logit_rows(3 * shifted, support, 1.0)
        for r0, r1 in zip(v0, v1):
            assert np.abs(r0 - r1).max() <= 1e-12

    def test_huge_temperature_approaches_uniform(self):
        # uniform association against c_i same-label items: CS = log(n / c_i) / 2
        rng = np.random.default_rng(4)
        labels = np.array([0, 0, 1, 1, 1, 2])
        a = batch(rng.normal(size=(6, 3)), labels)
        b = batch(rng.normal(size=(6, 3)), labels, "B")
        report = bimodal_cmpm_cs(a, b, AlignConfig(temperature=1e9))
        uniform = 0.5 * np.log(labels.size / np.bincount(labels)[labels])
        assert np.abs(report.per_sample - 2 * uniform).max() <= 1e-6

    def test_non_finite_similarity_rejected(self):
        values = np.array([[0.0, np.nan], [1.0, 0.0]])
        with pytest.raises(NonFiniteSimilarity, match="^the rows contains non-finite"):
            row_norms(values, "the rows")
        with pytest.raises(NonFiniteSimilarity):
            batch(values, [0, 1])

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            AlignConfig(temperature=0.0)

    @pytest.mark.parametrize("temperature", [1e-310, 1e-320, 5e-324])
    def test_temperature_whose_inverse_overflows_rejected(self, temperature):
        # 1/temperature past float range would turn the logits into nan
        with pytest.raises(ConfigError, match="finite 1/temperature"):
            AlignConfig(temperature=temperature)


def true_match_rows(labels):
    """The dense true-match PMF the engine's label support describes."""
    support = label_support(np.asarray(labels))
    rows = np.zeros((len(labels), len(labels)))
    rows.reshape(-1)[support.pairs] = np.exp(-support.log_counts[support.rows])
    return rows


class TestMatchMatrix:
    """The same-label pairs the engine matches, from ``label_support``."""

    def test_paired_instances(self):
        assert (true_match_rows([0, 1]) > 0).tolist() == [[True, False], [False, True]]

    def test_single_class(self):
        assert (true_match_rows([0, 0]) > 0).tolist() == [[True, True], [True, True]]

    def test_swapped_labels(self):
        # modalities are paired position by position: a permutation is rejected
        with pytest.raises(ShapeMismatch, match="identical labels position-wise"):
            check_paired([batch(np.eye(2), [0, 1]), batch(np.eye(2), [1, 0], "B")])

    def test_diagonal_guarantee_for_paired_batches(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, size=12)
        assert np.all(np.diag(true_match_rows(labels)) > 0)

    def test_empty_row_rejected(self):
        # a row without a same-label partner cannot reach the engine
        with pytest.raises(ShapeMismatch, match="identical labels position-wise"):
            check_paired([batch(np.eye(2), [0, 1]), batch(np.eye(2), [1, 1], "B")])


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
        # labels whose row 0 matches exactly the marked items
        labels = np.where(np.asarray(row) == 1, 0, 1)
        assert true_match_rows(labels)[0] == pytest.approx(expected, abs=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, size=10)
        assert np.abs(true_match_rows(labels).sum(axis=1) - 1.0).max() <= 1e-9


class TestEmbeddingBatch:
    @pytest.mark.parametrize("shape, message", [
        ((3,), "must be 2-D, got shape \\(3,\\)"),
        ((1, 3), "n=1, d=3"),
        ((3, 0), "n=3, d=0"),
    ])
    def test_bad_data_shape_rejected(self, shape, message):
        with pytest.raises(ShapeMismatch, match=message):
            EmbeddingBatch(np.ones(shape), [0] * shape[0])

    def test_labels_length_enforced(self):
        with pytest.raises(ShapeMismatch):
            EmbeddingBatch(np.eye(3), [0, 1])

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7, 0.0], [np.nan, 1, 0], [1e30, 1, 0], [np.inf, 1, 0], [-1, 0, 1], ["a", "b", "c"]]
    )
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(NotAPmf, match="non-negative integers"):
            EmbeddingBatch(np.eye(3), labels)

    def test_integer_valued_float_labels_accepted(self):
        labels = EmbeddingBatch(np.eye(3), [1.0, 0.0, 2.0]).labels
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0, 2]
