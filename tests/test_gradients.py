import numpy as np
import pytest

from csalign import (
    LOSS_KINDS,
    AlignConfig,
    EmbeddingBatch,
    KlConfig,
    MatchStrategy,
    ModalityRing,
    central_difference,
    finite_diff_gradient,
    gcs_divergence,
    gcs_ring_loss,
    loss_gradient,
    max_relative_error,
    ring_edges,
    ring_passes,
)
from csalign.errors import ConfigError, NonFinitePerturbation
from csalign.losses import STATIC_SHIFT_LIMIT, gcs_logit_rows, label_support, matching_loss
from pmf_oracle import softmax_pmf, true_pmf


def random_ring(seed, m=2, n=8, d=4, strategy=MatchStrategy.MIXED):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    batches = tuple(
        EmbeddingBatch(rng.normal(size=(n, d)), labels, chr(65 + i)) for i in range(m)
    )
    return ModalityRing(batches, strategy)


def ring_for(kind, seed, n=8, d=4):
    return random_ring(seed, m=2 if kind in ("bimodal_cs", "kl", "mmd", "coral") else 3, n=n, d=d)


class TestCentralDifferenceOracle:
    def test_quadratic_self_test(self):
        # d/dx ||x||^2 = 2x, exactly recovered by central differences
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        grads = central_difference(lambda arrays: float((arrays[0] ** 2).sum()), [x])
        assert np.abs(grads[0] - 2 * x).max() <= 1e-9

    def test_step_robustness(self):
        ring = random_ring(1)
        g5 = finite_diff_gradient("bimodal_cs", ring, step=1e-5)
        g6 = finite_diff_gradient("bimodal_cs", ring, step=1e-6)
        assert max_relative_error(g5, g6) <= 1e-4

    @pytest.mark.parametrize("step", [0.0, -1e-5, float("nan")])
    def test_step_that_is_not_positive_rejected(self, step):
        with pytest.raises(ConfigError, match="step must be positive"):
            central_difference(lambda arrays: 0.0, [np.ones((2, 2))], step)

    def test_non_finite_probe_rejected(self):
        # finite at the base point, inf one step away
        fn = lambda arrays: float(np.log(arrays[0][0, 0] - 1.0))  # noqa: E731
        with pytest.raises(NonFinitePerturbation, match="perturbed loss is non-finite"):
            with np.errstate(divide="ignore", invalid="ignore"):
                central_difference(fn, [np.array([[1.0 + 1e-5, 1.0]])], step=1e-5)

    def test_non_finite_base_rejected(self):
        with pytest.raises(NonFinitePerturbation):
            central_difference(lambda arrays: float("nan"), [np.ones((2, 2))])


class TestAnalyticVsFiniteDifference:
    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_matches_oracle(self, kind):
        shapes = [(4, 2), (8, 4), (16, 8), (8, 2), (4, 8)]
        for seed, (n, d) in enumerate(shapes):
            ring = ring_for(kind, seed, n=n, d=d)
            value, analytic = loss_gradient(kind, ring)
            numeric = finite_diff_gradient(kind, ring)
            assert max_relative_error(analytic, numeric) <= 1e-5, (kind, seed, n, d)
            assert np.isfinite(value)

    @pytest.mark.parametrize("kind", LOSS_KINDS)
    def test_value_matches_forward_operation(self, kind):
        from csalign import bimodal_cmpm_cs, coral_loss, gcs_ring_loss, mmd_squared, pairwise_sum_loss

        ring = ring_for(kind, 7)
        value, _ = loss_gradient(kind, ring)
        forward = {
            "bimodal_cs": lambda: bimodal_cmpm_cs(*ring.batches).total,
            "gcs_ring": lambda: gcs_ring_loss(ring).total,
            "pairwise_cs": lambda: pairwise_sum_loss(ring).total,
            "kl": lambda: matching_loss("kl", ring)[0].total,
            "mmd": lambda: mmd_squared(ring.batches[0], ring.batches[1]),
            "coral": lambda: coral_loss(ring.batches[0], ring.batches[1]),
        }[kind]()
        assert value == forward

    def test_label_free_mapping_holds_the_kinds_without_edges(self):
        # the kinds the engine cannot evaluate are exactly those gradients reaches by name
        from csalign.gradients import _LABEL_FREE
        from csalign.losses import MATCHING_KINDS

        assert set(_LABEL_FREE) == set(LOSS_KINDS) - set(MATCHING_KINDS)


class TestGradientStructure:
    def test_stationary_at_perfect_alignment(self):
        # identical constant rows, one class: loss 0 at an interior minimum
        data = np.tile([1.0, 2.0], (4, 1))
        labels = np.zeros(4, dtype=int)
        ring = ModalityRing(
            (EmbeddingBatch(data.copy(), labels, "A"), EmbeddingBatch(data.copy(), labels, "B"))
        )
        value, bundle = loss_gradient("bimodal_cs", ring)
        assert abs(value) <= 1e-9
        assert max(np.linalg.norm(g) for g in bundle) <= 1e-6

    def test_gradient_orthogonal_to_embedding_rows(self):
        # cosine is scale free per row, so grads have no radial component
        for kind in ("bimodal_cs", "gcs_ring", "pairwise_cs", "kl"):
            ring = ring_for(kind, 23)
            _, bundle = loss_gradient(kind, ring)
            for grad, batch in zip(bundle, ring.batches):
                inner = np.abs((grad * batch.data).sum(axis=1))
                bound = 1e-8 * np.linalg.norm(grad, axis=1) * np.linalg.norm(batch.data, axis=1)
                assert np.all(inner <= bound + 1e-15)

    def test_mixed_gradient_is_sum_of_unidirectional(self):
        base = random_ring(29, m=3)
        _, mixed = loss_gradient("gcs_ring", base)
        _, cw = loss_gradient("gcs_ring", ModalityRing(base.batches, MatchStrategy.CLOCKWISE))
        _, ccw = loss_gradient(
            "gcs_ring", ModalityRing(base.batches, MatchStrategy.COUNTERCLOCKWISE)
        )
        for gm, gc, gw in zip(mixed, cw, ccw):
            assert np.abs(gm - gc - gw).max() <= 1e-10

    def test_mmd_median_bandwidth_frozen_consistently(self):
        # same frozen sigma in analytic and oracle paths
        ring = random_ring(31, m=2)
        _, analytic = loss_gradient("mmd", ring)
        numeric = finite_diff_gradient("mmd", ring)
        assert max_relative_error(analytic, numeric) <= 1e-5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            loss_gradient("hinge", random_ring(1))

    def test_pair_only_kinds_reject_m3(self):
        ring = random_ring(2, m=3)
        for kind in ("bimodal_cs", "mmd", "coral"):
            with pytest.raises(ConfigError):
                loss_gradient(kind, ring)


def underflow_ring():
    """8 classes x 16 rows, M=8, d=16: at tau=0.005 the PMF products and
    powers of a linear-domain evaluation underflow on most rows."""
    labels = np.repeat(np.arange(8), 16)
    rng = np.random.default_rng(5001)
    return ModalityRing(tuple(
        EmbeddingBatch(rng.normal(size=(labels.size, 16)), labels, f"u{i}") for i in range(8)
    ))


def linear_domain_gcs_ring(ring, tau):
    """The GCS ring loss and its embedding gradients from the PMFs
    themselves: products, powers, division by p and the softmax backward."""
    q = true_pmf(ring.labels)
    norms = [np.linalg.norm(b.data, axis=1, keepdims=True) for b in ring.batches]
    units = [b.data / norm for b, norm in zip(ring.batches, norms)]
    g_units = [np.zeros_like(u) for u in units]
    value = 0.0
    for direction in ring_passes(ring.strategy):
        edges = ring_edges(ring.m, direction)
        pmfs = [softmax_pmf(ring.batches[s].data, ring.batches[d].data, tau) for s, d in edges]
        stack = np.stack(pmfs + [q])
        k = stack.shape[0]
        prod_all = np.prod(stack, axis=0)
        numerator = prod_all.sum(axis=1)
        power_sums = np.power(stack, k).sum(axis=2)
        value += float((np.log(power_sums).sum(axis=0) / k - np.log(numerator)).mean())
        for (src, dst), p, power_sum in zip(edges, pmfs, power_sums):
            grad_p = (-prod_all / p / numerator[:, None] + p ** (k - 1) / power_sum[:, None]) / ring.n
            grad_c = p * (grad_p - (grad_p * p).sum(axis=1, keepdims=True)) / tau
            g_units[src] += grad_c @ units[dst]
            g_units[dst] += grad_c.T @ units[src]
    grads = [
        (g - (g * u).sum(axis=1, keepdims=True) * u) / norm
        for g, u, norm in zip(g_units, units, norms)
    ]
    return value, grads


class TestLogDomainKernel:
    @pytest.mark.parametrize("strategy", list(MatchStrategy))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_linear_domain_formula(self, m, strategy):
        for seed, tau in ((m, 1.0), (m + 100, 0.2)):
            ring = random_ring(seed, m=m, n=12, d=4, strategy=strategy)
            want_value, want_grads = linear_domain_gcs_ring(ring, tau)
            assert np.isfinite(want_value)
            value, bundle = loss_gradient("gcs_ring", ring, AlignConfig(tau))
            assert value == pytest.approx(want_value, rel=1e-12, abs=0)
            for got, want in zip(bundle, want_grads):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("tau", [0.05, 0.01, 0.005])
    @pytest.mark.parametrize("kind, m", [("bimodal_cs", 2)] + [
        (kind, m) for kind in ("gcs_ring", "pairwise_cs") for m in (2, 3, 8)])
    def test_no_step_underflows(self, kind, m, tau):
        # past STATIC_SHIFT_LIMIT the floored exponents keep every term a normal float.
        # 12-row rings only: on larger ones the gradient itself can hold subnormal entries,
        # where E / rowsum + E / colsum and w cancel near the floor on a same-label pair.
        # random_ring(8, m=8, n=512, d=16) at tau = 0.005 gives 119 of them, and its
        # backward matmul then underflows; that waits for a timed low-tau workload.
        ring = random_ring(m, m=m, n=12)
        with np.errstate(under="raise"):
            value, bundle = loss_gradient(kind, ring, AlignConfig(tau))
        assert np.isfinite(value) and all(np.all(np.isfinite(g)) for g in bundle)

    def test_underflow_ring_is_finite_and_rows_match_oracle(self):
        ring = underflow_ring()
        cfg = AlignConfig(0.005)
        value, bundle = loss_gradient("gcs_ring", ring, cfg)
        assert np.isfinite(value)
        assert all(np.all(np.isfinite(g)) for g in bundle)
        support = label_support(ring.labels)
        q = true_pmf(ring.labels)
        units = [b.data / np.linalg.norm(b.data, axis=1, keepdims=True) for b in ring.batches]
        # the forward matrices read by rows, and by columns for the backward pass
        logits = np.stack([
            units[s] @ units[d].T / cfg.temperature for s, d in ring_edges(ring.m, "forward")
        ])
        values, _ = gcs_logit_rows(logits, support, cfg.temperature)
        readings = dict(zip(ring_passes(ring.strategy), values))
        total = 0.0
        compared = 0
        for direction in ring_passes(ring.strategy):
            edges = ring_edges(ring.m, direction)
            rows = readings[direction]
            total += rows.mean()
            pmfs = [
                softmax_pmf(ring.batches[s].data, ring.batches[d].data, cfg.temperature)
                for s, d in edges
            ]
            with np.errstate(all="ignore"):
                oracle = np.array([
                    gcs_divergence([p[i] for p in pmfs] + [q[i]]).value for i in range(ring.n)
                ])
                numerator = np.prod(np.stack(pmfs + [q]), axis=0).sum(axis=1)
            assert np.all(np.isfinite(rows))
            # the oracle's product sum is exact only while it is a normal number;
            # where it is 0 the oracle reads inf, where subnormal it loses digits
            exact = numerator >= np.finfo(float).tiny
            assert np.all(np.isfinite(oracle[exact]))
            assert np.abs(rows[exact] - oracle[exact]).max() <= 1e-12 * np.abs(oracle[exact]).max()
            compared += exact.sum()
        assert 0 < compared < 2 * ring.n
        assert value == pytest.approx(total, rel=1e-12)
        report = gcs_ring_loss(ring, cfg)
        assert report.finite and np.all(np.isfinite(report.per_sample))
        assert report.total == value

    def test_gradient_matches_own_central_difference_at_small_tau(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(3), 2)
        ring = ModalityRing(tuple(
            EmbeddingBatch(rng.normal(size=(6, 3)), labels, f"s{i}") for i in range(8)
        ))
        cfg = AlignConfig(0.005)
        _, analytic = loss_gradient("gcs_ring", ring, cfg)
        numeric = finite_diff_gradient("gcs_ring", ring, cfg)
        assert max_relative_error(analytic, numeric) <= 1e-5


def per_pass_rows(logits, rows, cols, starts, log_counts):
    """One pass of M logit matrices, each exponential max-subtracted by
    rows: the per-row GCS and its gradient, written over ``logits``."""
    k = logits.shape[0] + 1
    joint = logits[:, rows, cols].sum(axis=0)
    top = np.maximum.reduceat(joint, starts)
    w = np.exp(joint - top[rows])
    total = np.add.reduceat(w, starts)
    w /= total[rows]
    z_top = logits.max(axis=2)
    logits -= z_top[:, :, None]
    logits *= k
    np.exp(logits, out=logits)
    z_total = logits.sum(axis=2)
    logits /= z_total[:, :, None]
    logits[:, rows, cols] -= w
    power_lse = log_counts + (k * z_top + np.log(z_total)).sum(axis=0)
    return power_lse / k - top - np.log(total), logits


def per_pass_kl_rows(logits, log_q):
    """Per-row smoothed KL of a one-edge pass and its gradient."""
    logits -= logits.max(axis=2, keepdims=True)
    p = np.exp(logits)
    total = p.sum(axis=2, keepdims=True)
    p /= total
    logits -= np.log(total)
    logits -= log_q
    values = np.einsum("eij,eij->ei", p, logits)
    logits -= values[:, :, None]
    logits *= p
    return values.sum(axis=0), logits


def per_pass_matching_loss(kind, ring, tau):
    """The projection-matching engine evaluated one ordered pass at a time:
    a matmul, a max-subtracted exponential and two backward matmuls per
    edge of every pass. Returns the total, the per-direction means, the
    per-sample sums and the embedding gradients."""
    batches = ring.batches
    if kind == "gcs_ring":
        names = ring_passes(ring.strategy)
        passes = [ring_edges(ring.m, direction) for direction in names]
    else:
        passes = [[(s, d)] for s in range(ring.m) for d in range(ring.m) if s != d]
        names = [f"{batches[s].modality_name}2{batches[d].modality_name}" for [(s, d)] in passes]
    same_label = ring.labels[:, None] == ring.labels[None, :]
    if kind == "kl":
        log_q = np.log(same_label / same_label.sum(axis=1, keepdims=True) + KlConfig().epsilon)
        pass_rows = lambda logits: per_pass_kl_rows(logits, log_q)
    else:
        rows, cols = np.nonzero(same_label)
        counts = same_label.sum(axis=1)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pass_rows = lambda logits: per_pass_rows(logits, rows, cols, starts, np.log(counts))
    data = np.stack([b.data for b in batches])
    norms = np.linalg.norm(data, axis=2, keepdims=True)
    units = data / norms
    g_units = np.zeros_like(units)
    total, per_sample, per_direction = 0.0, np.zeros(ring.n), {}
    for name, edges in zip(names, passes):
        src, dst = np.array(edges).T
        values, grads = pass_rows(units[src] @ units[dst].transpose(0, 2, 1) / tau)
        per_direction[name] = float(values.mean())
        total += per_direction[name]
        per_sample += values
        g_units[src] += grads @ units[dst]
        g_units[dst] += grads.transpose(0, 2, 1) @ units[src]
    radial = (g_units * units).sum(axis=2, keepdims=True) * units
    return total, per_direction, per_sample, list((g_units - radial) / (ring.n * tau) / norms)


# tau just inside and just outside the static-shift domain 2k/tau <= limit
SHIFT_EDGE_TAUS = [(m, 2 * (m + 1) / STATIC_SHIFT_LIMIT * f) for m in (3, 8) for f in (1.01, 0.99)]


class TestGroupedEngineAgreesWithPerPassEngine:
    """Each matrix evaluated once and read by rows and by columns gives the
    values and gradients of evaluating every ordered pass on its own."""

    @staticmethod
    def check(kind, ring, tau):
        report, grads = matching_loss(kind, ring, AlignConfig(tau))
        want_total, want_directions, want_rows, want_grads = per_pass_matching_loss(kind, ring, tau)
        assert report.finite
        assert report.total == pytest.approx(want_total, rel=1e-12, abs=0)
        assert list(report.per_direction) == list(want_directions)
        for name, want in want_directions.items():
            assert report.per_direction[name] == pytest.approx(want, rel=1e-12, abs=0)
        assert np.abs(report.per_sample - want_rows).max() <= 1e-12 * np.abs(want_rows).max()
        for got, want in zip(grads, want_grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("tau", [1.0, 0.2, 0.02, 0.005])
    @pytest.mark.parametrize("strategy", list(MatchStrategy))
    @pytest.mark.parametrize("m", range(2, 9))
    def test_gcs_ring(self, m, strategy, tau):
        self.check("gcs_ring", random_ring(10 * m + int(1 / tau), m=m, n=12, strategy=strategy), tau)

    @pytest.mark.parametrize("m, tau", SHIFT_EDGE_TAUS)
    @pytest.mark.parametrize("strategy", list(MatchStrategy))
    def test_gcs_ring_either_side_of_static_shift_limit(self, m, tau, strategy, monkeypatch):
        ring = random_ring(m, m=m, n=12, strategy=strategy)
        # one exponential per logit matrix on either side of the limit
        exp, shapes = np.exp, []

        def spy(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", spy)
        matching_loss("gcs_ring", ring, AlignConfig(tau))
        monkeypatch.undo()
        assert shapes.count((12, 12)) == m
        self.check("gcs_ring", ring, tau)

    @pytest.mark.parametrize("factor", [1.01, 0.99, 0.67, 0.3, 0.1])
    @pytest.mark.parametrize("m", [3, 8])
    def test_row_whose_best_cosine_is_minus_one(self, m, factor):
        # row 0 of z_01 has every cosine near -1, so its largest term under
        # the static shift is about exp(-2k/tau): at least exp(-STATIC_SHIFT_LIMIT)
        # inside the limit, below it past the limit (factor 0.99 and less), where
        # the row takes its own shift while other rows of z_01 keep the static
        # one; at factors 0.3 and 0.1 more rows and columns take their own
        rng = np.random.default_rng(m)
        labels = np.array([0, 0, 1, 1, 2, 2])
        data = [rng.normal(size=(6, 3)) for _ in range(m)]
        data[1] = -data[0][0] + 1e-3 * rng.normal(size=(6, 3))
        ring = ModalityRing(tuple(
            EmbeddingBatch(x, labels, f"s{i}") for i, x in enumerate(data)
        ))
        tau = 2 * (m + 1) / STATIC_SHIFT_LIMIT * factor
        units = [x / np.linalg.norm(x, axis=1, keepdims=True) for x in data[:2]]
        best = (units[0] @ units[1].T).max(axis=1)
        below = (m + 1) * (best - 1) / tau < -STATIC_SHIFT_LIMIT
        assert below[0] == (factor < 1) and not below.all()
        self.check("gcs_ring", ring, tau)
        self.check("pairwise_cs", ring, tau)
        for kind in ("gcs_ring", "pairwise_cs"):
            _, analytic = loss_gradient(kind, ring, AlignConfig(tau))
            numeric = finite_diff_gradient(kind, ring, AlignConfig(tau))
            assert max_relative_error(analytic, numeric) <= 1e-5

    @pytest.mark.parametrize("tau", [1.0, 0.2, 0.02, 0.005])
    @pytest.mark.parametrize("m", range(2, 6))
    def test_pairwise_cs_and_kl(self, m, tau):
        ring = random_ring(20 * m + int(1 / tau), m=m, n=12)
        self.check("pairwise_cs", ring, tau)
        self.check("kl", ring, tau)

    @pytest.mark.parametrize("tau", [1.0, 0.2, 0.02, 0.005])
    def test_bimodal_cs(self, tau):
        self.check("bimodal_cs", random_ring(int(1 / tau), m=2, n=12), tau)
