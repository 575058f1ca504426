import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csalign import (
    AlignConfig,
    EmbeddingBatch,
    KlConfig,
    MatchStrategy,
    ModalityRing,
    association_pmf_count,
    bimodal_cmpm_cs,
    cs_divergence,
    gcs_divergence,
    gcs_ring_loss,
    kl_alignment,
    loss_gradient,
    pairwise_sum_loss,
    ring_edges,
    ring_passes,
)
from csalign.errors import (
    ConfigError,
    CsAlignError,
    NonFiniteSimilarity,
    ShapeMismatch,
    TooFewDistributions,
)
from csalign.gradients import _loss_closure
from csalign.losses import (
    LOSS_KINDS, LOSS_TABLE, MATCHING_KINDS, STATIC_SHIFT_LIMIT, check_kind,
    kl_log_target, kl_logit_rows, label_support, loss_groups, matching_loss, stack_matching_loss,
)
from csalign.pmf import row_norms
from csalign.retrieval import evaluate_directions
from pmf_oracle import softmax_pmf, true_pmf


def random_ring(seed, m=3, n=8, d=4, strategy=MatchStrategy.MIXED, classes=3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    batches = tuple(
        EmbeddingBatch(rng.normal(size=(n, d)), labels, chr(65 + i)) for i in range(m)
    )
    return ModalityRing(batches, strategy)


def constant_ring(m=3, n=4, value=(1.0, 2.0), labels=None):
    # identical rows everywhere: all cosines are 1, association rows uniform
    labels = np.zeros(n, dtype=int) if labels is None else np.asarray(labels)
    data = np.tile(np.asarray(value), (n, 1))
    batches = tuple(EmbeddingBatch(data.copy(), labels, chr(65 + i)) for i in range(m))
    return ModalityRing(batches)


class TestRingEdges:
    def test_forward_m3(self):
        assert ring_edges(3, "forward") == [(0, 1), (1, 2), (2, 0)]

    def test_backward_m3_reverses_every_edge(self):
        assert ring_edges(3, "backward") == [(1, 0), (0, 2), (2, 1)]

    def test_m2_forward_and_backward_cover_both_directions(self):
        assert set(ring_edges(2, "forward")) == {(0, 1), (1, 0)}
        assert set(ring_edges(2, "backward")) == {(0, 1), (1, 0)}

    def test_bad_direction(self):
        with pytest.raises(ConfigError):
            ring_edges(3, "sideways")


class TestRingProjections:
    def test_direction_labels_forward(self):
        ring = random_ring(0)
        labels = [f"{ring.batches[s].modality_name}2{ring.batches[d].modality_name}"
                  for s, d in ring_edges(3, "forward")]
        assert labels == ["A2B", "B2C", "C2A"]

    def test_direction_labels_backward(self):
        ring = random_ring(0)
        labels = [f"{ring.batches[s].modality_name}2{ring.batches[d].modality_name}"
                  for s, d in ring_edges(3, "backward")]
        assert labels == ["B2A", "A2C", "C2B"]


class TestModalityRing:
    def test_rejects_single_modality(self):
        rng = np.random.default_rng(2)
        b = EmbeddingBatch(rng.normal(size=(4, 2)), np.zeros(4), "A")
        with pytest.raises(TooFewDistributions):
            ModalityRing((b,))

    def test_rejects_mismatched_labels(self):
        rng = np.random.default_rng(3)
        a = EmbeddingBatch(rng.normal(size=(4, 2)), [0, 0, 1, 1], "A")
        b = EmbeddingBatch(rng.normal(size=(4, 2)), [1, 1, 0, 0], "B")
        with pytest.raises(ShapeMismatch):
            ModalityRing((a, b))

    def test_rejects_duplicate_names(self):
        rng = np.random.default_rng(4)
        a = EmbeddingBatch(rng.normal(size=(4, 2)), np.zeros(4), "A")
        b = EmbeddingBatch(rng.normal(size=(4, 2)), np.zeros(4), "A")
        with pytest.raises(ConfigError):
            ModalityRing((a, b))

    def test_rejects_colliding_direction_labels(self):
        # A -> 2B and A2 -> B are both 'A22B': pairwise_cs would sum 11 of 12 directions
        rng = np.random.default_rng(4)
        batches = [EmbeddingBatch(rng.normal(size=(4, 2)), np.zeros(4), name)
                   for name in ("A", "2B", "A2", "B")]
        with pytest.raises(ConfigError, match=r"\('A', '2B'\) and \('A2', 'B'\) share .* 'A22B'"):
            ModalityRing(tuple(batches))

    def test_rejects_a_strategy_that_is_not_a_match_strategy(self):
        ring = random_ring(4)
        with pytest.raises(ConfigError, match="^strategy must be a MatchStrategy, got 'mixed'"):
            ModalityRing(ring.batches, "mixed")
        with pytest.raises(ConfigError, match="^strategy must be a MatchStrategy, got 'mixed'"):
            ring_passes("mixed")

    def test_support_is_built_once_and_read_only(self, monkeypatch):
        import csalign.losses as losses_mod

        calls = []
        real = losses_mod.label_support
        monkeypatch.setattr(losses_mod, "label_support", lambda labels: calls.append(1) or real(labels))
        ring = random_ring(4)
        for kind in ("gcs_ring", "pairwise_cs", "kl", "gcs_ring"):
            loss_gradient(kind, ring)
            matching_loss(kind, ring, grad=False)
        assert len(calls) == 1
        assert not ring.labels.flags.writeable  # the labels cannot leave the support stale
        want = real(ring.labels)
        assert ring.support._fields == want._fields
        for got, expected in zip(ring.support, want, strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert not got.flags.writeable

    @pytest.mark.parametrize("tau", [None, 0.05, 1e-308])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("kind", [*LOSS_KINDS, "tv"])
    def test_engine_args_are_checked_and_read_the_table(self, kind, m, tau):
        ring = random_ring(5, m=m, strategy=MatchStrategy.CLOCKWISE)
        cfg = None if tau is None else AlignConfig(tau)
        want_tau = (cfg or AlignConfig()).temperature
        try:
            check_kind(kind, m, want_tau)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as raised:
                ring.engine_args(kind, cfg)
            assert str(raised.value) == str(exc)
            return
        stack, support, names, strategy, got_tau = ring.engine_args(kind, cfg)
        assert np.array_equal(stack, [b.data for b in ring.batches])
        assert names == [b.modality_name for b in ring.batches]
        assert strategy is MatchStrategy.CLOCKWISE and got_tau == want_tau
        assert (support is None) == (LOSS_TABLE[kind].edges is None)
        if support is not None:
            want = label_support(ring.labels)
            assert support._fields == want._fields
            assert all(np.array_equal(got, expected) for got, expected in zip(support, want))


class TestBimodalCmpmCs:
    def test_perfect_alignment_is_zero(self):
        # identical constant rows + one class: association == true PMF == uniform
        ring = constant_ring(m=2)
        report = bimodal_cmpm_cs(*ring.batches)
        assert abs(report.total) <= 1e-9
        assert report.finite

    def test_forced_uniform_association_hand_value(self):
        # identical rows but labels [0, 1]: P = [.5, .5], Q one-hot,
        # so each per-direction loss is D_cs([.5,.5],[1,0]) = 0.5 ln 2
        ring = constant_ring(m=2, n=2, labels=[0, 1])
        report = bimodal_cmpm_cs(*ring.batches)
        expected = 0.5 * np.log(2.0)
        assert report.per_direction["A2B"] == pytest.approx(expected, abs=1e-12)
        assert report.per_direction["B2A"] == pytest.approx(expected, abs=1e-12)
        assert report.total == pytest.approx(2 * expected, abs=1e-12)

    def test_total_is_sum_of_directions(self):
        ring = random_ring(5, m=2)
        report = bimodal_cmpm_cs(*ring.batches)
        assert report.total == pytest.approx(sum(report.per_direction.values()), abs=1e-9)
        assert report.total == pytest.approx(report.per_sample.mean(), abs=1e-12)

    def test_loss_nonnegative_and_finite(self):
        for seed in range(10):
            report = bimodal_cmpm_cs(*random_ring(seed, m=2).batches)
            assert report.finite and report.total >= 0


class TestGcsRingLoss:
    def test_perfect_alignment_is_zero(self):
        report = gcs_ring_loss(constant_ring(m=3))
        assert abs(report.total) <= 1e-9

    def test_hand_value_uniform_projections_onehot_truth(self):
        # three uniform projection rows + one-hot Q over n=4:
        # per-sample GCS = 1.5 ln 2 per pass, mixed doubles it
        ring = constant_ring(m=3, n=4, labels=[0, 1, 2, 3])
        report = gcs_ring_loss(ring)
        per_pass = 1.5 * np.log(2.0)
        assert report.per_direction["forward"] == pytest.approx(per_pass, abs=1e-12)
        assert report.per_direction["backward"] == pytest.approx(per_pass, abs=1e-12)
        assert report.total == pytest.approx(2 * per_pass, abs=1e-12)

    def test_mixed_equals_clockwise_plus_counterclockwise(self):
        base = random_ring(7)
        mixed = gcs_ring_loss(base)
        cw = gcs_ring_loss(ModalityRing(base.batches, MatchStrategy.CLOCKWISE))
        ccw = gcs_ring_loss(ModalityRing(base.batches, MatchStrategy.COUNTERCLOCKWISE))
        assert mixed.total == pytest.approx(cw.total + ccw.total, abs=1e-12)

    def test_rotation_of_ring_order_preserves_mixed_total(self):
        base = random_ring(9)
        rotated = ModalityRing(base.batches[1:] + base.batches[:1], base.strategy)
        assert gcs_ring_loss(base).total == pytest.approx(
            gcs_ring_loss(rotated).total, abs=1e-9
        )

    def test_nonnegative_and_finite_on_random_rings(self):
        for seed in range(10):
            report = gcs_ring_loss(random_ring(seed, m=int(2 + seed % 3)))
            assert report.finite and report.total >= 0

    def test_mixed_builds_exactly_2m_association_pmfs(self):
        for m in (2, 3, 5):
            ring = random_ring(11, m=m)
            for evaluate in (gcs_ring_loss, lambda r: loss_gradient("gcs_ring", r)):
                before = association_pmf_count()
                evaluate(ring)
                assert association_pmf_count() - before == 2 * m

    def test_unidirectional_builds_m_association_pmfs(self):
        for m in (2, 3, 5):
            for strategy in (MatchStrategy.CLOCKWISE, MatchStrategy.COUNTERCLOCKWISE):
                ring = random_ring(12, m=m, strategy=strategy)
                for evaluate in (gcs_ring_loss, lambda r: loss_gradient("gcs_ring", r)):
                    before = association_pmf_count()
                    evaluate(ring)
                    assert association_pmf_count() - before == m


class TestPairwiseSumLoss:
    @pytest.mark.parametrize("tau", [1.0, 0.05, 0.005])  # 2 * 2 / 0.005 > STATIC_SHIFT_LIMIT
    @pytest.mark.parametrize("n", [12, 64, 128])
    @pytest.mark.parametrize("seed", [13, 14, 15, 16])
    def test_m2_cs_equals_bimodal(self, seed, n, tau):
        # bimodal_cs is pairwise_cs restricted to M = 2: the same bits, values and gradients
        ring, cfg = random_ring(seed, m=2, n=n), AlignConfig(tau)
        pairwise, bimodal = pairwise_sum_loss(ring, cfg), bimodal_cmpm_cs(*ring.batches, cfg)
        assert pairwise.total == bimodal.total
        assert pairwise.per_direction == bimodal.per_direction
        assert np.array_equal(pairwise.per_sample, bimodal.per_sample)
        pairwise_value, pairwise_grads = loss_gradient("pairwise_cs", ring, cfg)
        bimodal_value, bimodal_grads = loss_gradient("bimodal_cs", ring, cfg)
        assert pairwise_value == bimodal_value == pairwise.total
        assert all(np.array_equal(p, b) for p, b in zip(pairwise_grads, bimodal_grads, strict=True))

    def test_m3_has_six_directions(self):
        report = pairwise_sum_loss(random_ring(15))
        assert len(report.per_direction) == 6

    def test_builds_m_times_m_minus_one_pmfs(self):
        for m in (2, 3, 5):
            ring = random_ring(17, m=m)
            for evaluate in (pairwise_sum_loss, lambda r: loss_gradient("pairwise_cs", r)):
                before = association_pmf_count()
                evaluate(ring)
                assert association_pmf_count() - before == m * (m - 1)

    def test_directions_keyed_source_major(self):
        ring = random_ring(18, m=4)
        for report in (pairwise_sum_loss(ring), matching_loss("kl", ring)[0]):
            assert list(report.per_direction) == [
                f"{chr(65 + s)}2{chr(65 + d)}" for s in range(4) for d in range(4) if s != d
            ]
            assert report.total == sum(report.per_direction.values())

    def test_kl_measure_runs_and_differs_from_cs(self):
        ring = random_ring(19)
        cs = pairwise_sum_loss(ring)
        kl = matching_loss("kl", ring)[0]
        assert kl.finite and kl.total != pytest.approx(cs.total)

    def test_unknown_measure_rejected(self):
        with pytest.raises(ConfigError):
            matching_loss("tv", random_ring(21))

    def test_bimodal_kind_on_three_modalities_is_rejected_like_loss_gradient(self):
        ring = random_ring(22)
        for evaluate in (matching_loss, loss_gradient, lambda kind, ring: ring.engine_args(kind)):
            with pytest.raises(ConfigError, match="defined for exactly two modalities"):
                evaluate("bimodal_cs", ring)


def assert_matches_oracle(report, oracle_rows):
    """``oracle_rows`` maps each direction, in pass order, to its per-row values."""
    assert list(report.per_direction) == list(oracle_rows)
    for name, rows in oracle_rows.items():
        assert report.per_direction[name] == pytest.approx(rows.mean(), rel=1e-12, abs=0)
    np.testing.assert_allclose(report.per_sample, sum(oracle_rows.values()), rtol=1e-12, atol=0)
    assert report.finite


class TestValueOracle:
    """Every forward loss against the scalar divergences, row by row."""

    @pytest.mark.parametrize("tau", [1.0, 0.2])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_forward_losses_match_scalar_divergences(self, m, tau):
        cfg = AlignConfig(tau)
        base = random_ring(100 * m + int(10 * tau), m=m)
        data = [b.data for b in base.batches]
        q = true_pmf(base.labels)
        rows = range(base.n)

        def cs_rows(s, d):
            p = softmax_pmf(data[s], data[d], tau)
            return np.array([cs_divergence(p[i], q[i]).value for i in rows])

        def kl_rows(s, d):
            p = softmax_pmf(data[s], data[d], tau)
            return np.array([kl_alignment(p[i : i + 1], q[i : i + 1], KlConfig()) for i in rows])

        pairs = [(s, d) for s in range(m) for d in range(m) if s != d]
        names = [chr(65 + s) + "2" + chr(65 + d) for s, d in pairs]
        cs = {name: cs_rows(s, d) for name, (s, d) in zip(names, pairs)}
        assert_matches_oracle(pairwise_sum_loss(base, cfg), cs)
        kl = {name: kl_rows(s, d) for name, (s, d) in zip(names, pairs)}
        assert_matches_oracle(matching_loss("kl", base, cfg)[0], kl)
        if m == 2:
            assert_matches_oracle(bimodal_cmpm_cs(*base.batches, cfg), cs)

        for strategy in MatchStrategy:
            ring = ModalityRing(base.batches, strategy)
            gcs = {}
            for direction in ring_passes(strategy):
                pmfs = [softmax_pmf(data[s], data[d], tau) for s, d in ring_edges(m, direction)]
                gcs[direction] = np.array(
                    [gcs_divergence([p[i] for p in pmfs] + [q[i]]).value for i in rows]
                )
            assert_matches_oracle(gcs_ring_loss(ring, cfg), gcs)

    @pytest.mark.parametrize("tau", [1.0, 0.05])
    def test_ring_at_the_benchmark_shape(self, tau):
        # a 3-ring of 128 rows in 16 dimensions over 8 classes, a training batch's shape
        ring = random_ring(128, m=3, n=128, d=16, classes=8)
        data = [b.data for b in ring.batches]
        q = true_pmf(ring.labels)
        gcs = {}
        for direction in ring_passes(ring.strategy):
            pmfs = [softmax_pmf(data[s], data[d], tau) for s, d in ring_edges(ring.m, direction)]
            gcs[direction] = np.array(
                [gcs_divergence([p[i] for p in pmfs] + [q[i]]).value for i in range(ring.n)]
            )
        assert_matches_oracle(gcs_ring_loss(ring, AlignConfig(tau)), gcs)


class TestLabelSupport:
    """The sorted construction against the n x n label comparison."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    @example([3, 3, 3, 3, 3])
    @example([5, 0, 4, 1, 3, 2])
    @example([2, 0, 2, 1, 0, 2, 1, 1])
    @example([2**62, 0, 2**62, 2**62])  # labels near the top of int64
    def test_matches_dense_comparison(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        support = label_support(labels)
        rows, cols = np.nonzero(labels[:, None] == labels[None, :])
        n = labels.size
        assert np.array_equal(support.rows, rows) and np.array_equal(support.pairs, rows * n + cols)
        counts = np.bincount(rows, minlength=labels.size)
        assert np.array_equal(support.starts, np.concatenate(([0], np.cumsum(counts)[:-1])))
        assert np.array_equal(support.log_counts, np.log(counts))
        # transpose maps pair (i, k) to the position of pair (k, i)
        assert np.array_equal(rows[support.transpose], cols)
        assert np.array_equal(cols[support.transpose], rows)


class TestKlKernel:
    """The KL kernel reads a matrix by rows and by columns against one target."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
    @example([3, 3, 3, 3, 3])
    @example([2, 0, 2, 1, 0, 2, 1, 1])
    def test_log_target_equals_dense_smoothed_pmf(self, labels):
        labels = np.asarray(labels, dtype=np.int64)
        same_label = labels[:, None] == labels[None, :]
        q = same_label / same_label.sum(axis=1, keepdims=True)
        expected = np.log(q + KlConfig().epsilon)
        assert np.array_equal(kl_log_target(label_support(labels)), expected)

    @pytest.mark.parametrize("tau", [1.0, 0.05])
    def test_columns_of_z_are_rows_of_its_transpose(self, tau):
        rng = np.random.default_rng(61)
        labels = rng.integers(0, 4, size=12)
        log_q = kl_log_target(label_support(labels))
        z = rng.uniform(-1, 1, size=(1, 12, 12)) / tau
        z_t = z.transpose(0, 2, 1).copy()
        [col_values], col_grad = kl_logit_rows(z.copy(), log_q, tau, rows=False, cols=True)
        [row_values], row_grad = kl_logit_rows(z_t, log_q, tau, rows=True, cols=False)
        np.testing.assert_allclose(col_values, row_values, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(col_grad, row_grad.transpose(0, 2, 1), rtol=1e-12, atol=1e-15)
        # both readings at once: the values of each, and the sum of their gradients
        [rows, cols], grad = kl_logit_rows(z.copy(), log_q, tau)
        [row_only], row_only_grad = kl_logit_rows(z.copy(), log_q, tau, rows=True, cols=False)
        assert np.array_equal(rows, row_only) and np.array_equal(cols, col_values)
        assert np.array_equal(grad, row_only_grad + col_grad)

    @pytest.mark.parametrize("grad", [True, False])
    def test_log_target_built_once_per_engine_call(self, grad, monkeypatch):
        import csalign.losses as losses_mod

        # the engine reads the target builder off its table row
        row, calls = losses_mod.LOSS_TABLE["kl"], []
        counted = row._replace(target=lambda support: calls.append(support) or row.target(support))
        monkeypatch.setitem(losses_mod.LOSS_TABLE, "kl", counted)
        matching_loss("kl", random_ring(62, m=3), grad=grad)
        assert len(calls) == 1


# every matching kind at every M it is defined for, of M in {2, 3, 8}
KINDS_AND_MS = [(kind, m) for kind in MATCHING_KINDS for m in (2, 3, 8)
                if kind != "bimodal_cs" or m == 2]


def regime_edge(kind, m):
    """The two adjacent temperatures either side of ``2 k / tau = STATIC_SHIFT_LIMIT``,
    k the power of the kind's groups (M + 1 for the ring, 2 for a pair): the larger
    exponentiates k z as it comes, the smaller subtracts k / tau and floors first."""
    k = (m if LOSS_TABLE[kind].edges == "ring" else 1) + 1
    inside = 2 * k / STATIC_SHIFT_LIMIT
    while 2 * k / inside > STATIC_SHIFT_LIMIT:
        inside = np.nextafter(inside, np.inf)
    past = np.nextafter(inside, 0)
    assert 2 * k / past > STATIC_SHIFT_LIMIT
    return inside, past


class TestShiftRegimesMeet:
    """A hair apart in tau, on either side of ``STATIC_SHIFT_LIMIT``, the two ways
    the kernel shifts its exponentials give the same values and gradients."""

    @pytest.mark.parametrize("strategy", list(MatchStrategy))
    @pytest.mark.parametrize("kind, m", [(kind, m) for kind, m in KINDS_AND_MS if kind != "kl"])
    def test_values_and_gradients_agree(self, kind, m, strategy):
        ring = random_ring(5 * m, m=m, n=12, strategy=strategy)
        (inside, inside_grads), (past, past_grads) = (
            matching_loss(kind, ring, AlignConfig(tau)) for tau in regime_edge(kind, m))
        assert inside.finite and past.finite
        assert past.total == pytest.approx(inside.total, rel=1e-12, abs=0)
        for name, value in inside.per_direction.items():
            assert past.per_direction[name] == pytest.approx(value, rel=1e-12, abs=0)
        np.testing.assert_allclose(past.per_sample, inside.per_sample, rtol=1e-12, atol=0)
        for got, want in zip(past_grads, inside_grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestValuesOnlyPath:
    """The forward losses and the finite-difference closure ask the engine
    for values only; what they return is the gradient path's, bit for bit.
    tau = 0.005 lies past ``STATIC_SHIFT_LIMIT`` at every M here, tau = 1
    inside it, and tau = 0.05 inside it for M = 2, 3, 8 alike."""

    @pytest.mark.parametrize("tau", [1.0, 0.05, 0.005])
    @pytest.mark.parametrize("strategy", list(MatchStrategy))
    @pytest.mark.parametrize("kind, m", KINDS_AND_MS)
    def test_reports_counts_and_closure_equal_the_gradient_path(self, kind, m, strategy, tau):
        ring = random_ring(7 * m + int(1 / tau), m=m, n=12, strategy=strategy)
        cfg = AlignConfig(tau)
        before = association_pmf_count()
        want, grads = matching_loss(kind, ring, cfg)
        want_count = association_pmf_count() - before
        assert len(grads) == m
        forward = {
            "bimodal_cs": lambda: bimodal_cmpm_cs(*ring.batches, cfg),
            "gcs_ring": lambda: gcs_ring_loss(ring, cfg),
            "pairwise_cs": lambda: pairwise_sum_loss(ring, cfg),
            "kl": lambda: matching_loss("kl", ring, cfg, grad=False)[0],
        }[kind]
        before = association_pmf_count()
        got = forward()
        assert association_pmf_count() - before == want_count
        assert got.total == want.total
        assert got.per_direction == want.per_direction
        assert list(got.per_direction) == list(want.per_direction)
        # the passes loss_groups names, and so train.supervised_directions, are the ones summed
        names = [b.modality_name for b in ring.batches]
        assert list(want.per_direction) == list(loss_groups(kind, names, strategy)[0])
        assert np.array_equal(got.per_sample, want.per_sample)
        assert got.finite is want.finite
        assert matching_loss(kind, ring, cfg, grad=False)[1] is None
        value, _ = loss_gradient(kind, ring, cfg)
        assert _loss_closure(kind, ring, cfg)([b.data for b in ring.batches]) == value


class TestTemperatureBound:
    """``check_kind`` refuses tau below 4 M (M + 1) / DBL_MAX, where the ring's
    shifted log-sum-exps could overflow; from the bound on, every matching
    loss reads a finite value or +inf (``finite`` False), never nan or -inf."""

    @pytest.mark.parametrize("kind, m", KINDS_AND_MS)
    def test_bound_and_both_sides(self, kind, m):
        bound = 4 * m * (m + 1) / np.finfo(float).max
        ring = random_ring(m, m=m)
        # just below the bound, and the temperatures a 3-ring read inf and nan at
        for tau in (np.nextafter(bound, 0), 1e-308, 5.5627e-309):
            for call in (matching_loss, loss_gradient, lambda kind, ring, cfg: ring.engine_args(kind, cfg)):
                with pytest.raises(ConfigError, match=f"temperature must be >= .* at M = {m}, "):
                    call(kind, ring, AlignConfig(tau))
        for tau in (bound, np.nextafter(bound, 1), 2 * bound, 1e-300, 1e-200):
            with np.errstate(over="ignore"):
                report, _ = matching_loss(kind, ring, AlignConfig(tau))
            values = np.array([report.total, *report.per_direction.values(), *report.per_sample])
            assert not np.isnan(values).any() and (values > -np.inf).all(), tau
            assert report.finite == np.isfinite(values).all()


class TestGradientWorkingSet:
    @pytest.mark.parametrize("kind", ["gcs_ring", "pairwise_cs"])
    def test_peak_holds_the_design_arrays_only(self, kind):
        import tracemalloc

        m, n, d = 8, 256, 64
        ring = random_ring(43, m=m, n=n, d=d, classes=8)
        loss_gradient(kind, ring)  # lazy imports happen here
        tracemalloc.start()
        try:
            loss_gradient(kind, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # five (M, n, d) arrays: the stack, its unit rows, their scaled
        # transpose, the gradient and one scratch array at a time; the
        # logit buffer (a matrix per edge of a group); the n x n scratch of
        # the kernel's gradient and one n x n of kernel temporaries. An
        # epilogue that still held the buffer, or built
        # (M, n, d) temporaries next to it, would not fit.
        buffer = (m if kind == "gcs_ring" else 1) * n * n
        assert peak < (5 * m * n * d + buffer + 2 * n * n) * 8

    @pytest.mark.parametrize("kind, m", KINDS_AND_MS)
    def test_gradients_outlive_the_next_call(self, kind, m):
        first, second = random_ring(3, m=m, n=12), random_ring(4, m=m, n=12)
        stack, support, names, strategy, tau = first.engine_args(kind, AlignConfig(0.5))
        _, grads = stack_matching_loss(kind, stack, support, names, strategy, tau)
        kept = [g.copy() for g in grads]
        stack_matching_loss(kind, *second.engine_args(kind, AlignConfig(0.5)))
        stack_matching_loss(kind, stack, support, names, strategy, tau)
        assert all(np.array_equal(g, k) for g, k in zip(grads, kept))
        assert not any(np.shares_memory(g, stack) for g in grads)


def overflow_pair():
    """A 4 x 3 batch pair and its labels; scaled by 1e200, every row norm
    overflows, while at 1e150 the loss is that of the unscaled rows."""
    rng = np.random.default_rng(41)
    data = [rng.normal(size=(4, 3)) for _ in range(2)]
    return data, np.array([0, 0, 1, 1])


class TestNormOverflow:
    def test_batch_and_cosine_scores_reject_overflowing_norm(self):
        (a, b), labels = overflow_pair()
        with pytest.raises(NonFiniteSimilarity) as raised:
            EmbeddingBatch(a * 1e200, labels)
        assert isinstance(raised.value, CsAlignError)
        EmbeddingBatch(a * 1e150, labels)
        with pytest.raises(NonFiniteSimilarity):
            row_norms(a * 1e200, "the rows")
        # rows scaled after validation reach evaluation under the same rule
        for scaled in range(2):
            batches = [EmbeddingBatch(a, labels, "A"), EmbeddingBatch(b, labels, "B")]
            object.__setattr__(batches[scaled], "data", batches[scaled].data * 1e200)
            with pytest.raises(NonFiniteSimilarity, match="row whose norm overflows"):
                evaluate_directions(batches)

    @pytest.mark.parametrize("kind", ["bimodal_cs", "gcs_ring", "pairwise_cs", "kl"])
    def test_engine_reports_non_finite_not_a_wrong_value(self, kind):
        (a, b), labels = overflow_pair()
        batches = (EmbeddingBatch(a, labels, "A"), EmbeddingBatch(b, labels, "B"))
        ring = ModalityRing(batches)
        scaled, _ = matching_loss(kind, ModalityRing(tuple(
            EmbeddingBatch(batch.data * 1e150, labels, batch.modality_name) for batch in batches
        )))
        assert scaled.finite
        assert scaled.total == pytest.approx(matching_loss(kind, ring)[0].total, rel=1e-12)
        # rows scaled after validation meet the engine's row-norm check
        for batch in batches:
            object.__setattr__(batch, "data", batch.data * 1e200)
        with pytest.raises(NonFiniteSimilarity, match="row whose norm overflows"):
            matching_loss(kind, ring)
