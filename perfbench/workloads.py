"""The three workloads: inputs made from the seed, one round of operations,
and the checks and per-layer figures of each.

A round is a fixed list of operations, so every run attempts whole rounds
and the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import csalign.gradients
import csalign.losses
import csalign.train
from csalign import (
    LOSS_KINDS,
    AlignConfig,
    CsAlignError,
    EmbeddingBatch,
    MatchStrategy,
    ModalityRing,
    SynthConfig,
    TrainConfig,
    association_pmf_count,
    build_encoders,
    generate_synthetic,
)

import checks

_clock = time.perf_counter


@dataclass
class Round:
    """One round: time of the operations expected to succeed, op counts,
    problems found by the per-round checks, and per-operation timings."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    times: dict[str, float] = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _span(tracer, name, attr=None):
    return tracer.span(name, attr) if tracer is not None else contextlib.nullcontext()


def _median(rounds, key):
    return statistics.median(r.times[key] for r in rounds)


def _per_round(summary, name, field_name, n_rounds):
    return sum(v[field_name] for (span, _), v in summary.items() if span == name) / n_rounds


def _self_s(summary, name, n_rounds):
    return _per_round(summary, name, "self_s", n_rounds)


def _timed_synth(cfg: SynthConfig, timings: dict):
    start = _clock()
    batches = generate_synthetic(cfg)
    timings["synth.generate"] = timings.get("synth.generate", 0.0) + _clock() - start
    return batches


# ---------------------------------------------------------------------------

class TrainC7:
    """The criterion-7 desk-scale run: M=3, 8 classes x 200, 64-d inputs,
    16-d embeddings, batch 128, mixed GCS ring, 100 epochs. One operation
    is one training step; one round is one full ``train_run``."""

    name = "train-c7"

    def __init__(self, seed: int):
        self.synth = SynthConfig(seed=seed)
        self.cfg = TrainConfig(
            max_epochs=100, batch_size=128, seed=seed,
            loss_kind="gcs_ring", strategy=MatchStrategy.MIXED,
        )
        n = self.synth.num_instances
        n_train = n - min(max(2, int(round(self.cfg.holdout_fraction * n))), n - 2)
        bs = self.cfg.batch_size
        self.steps_per_epoch = sum(1 for s in range(0, n_train, bs) if min(bs, n_train - s) >= 2)
        self.num_directions = self.synth.num_modalities * (self.synth.num_modalities - 1)

    def setup(self) -> dict:
        timings: dict = {}
        self.data = _timed_synth(self.synth, timings)
        self.encoders = self._encoders()
        return timings

    def _encoders(self):
        return build_encoders(self.synth.input_dims, self.synth.embed_dim, self.cfg)

    def warmup(self) -> None:
        short = replace(self.cfg, max_epochs=2)
        csalign.train.train_run(self.data, build_encoders(self.synth.input_dims, self.synth.embed_dim, short), short)

    def run_round(self, tracer=None) -> Round:
        # the first round trains the encoders built in setup; later rounds
        # build fresh ones outside the timed region
        encoders, self.encoders = self.encoders or self._encoders(), None
        start = _clock()
        with _span(tracer, "train.run"):
            trace = csalign.train.train_run(self.data, encoders, self.cfg)
        seconds = _clock() - start
        final = trace.final_metrics.values()
        return Round(
            seconds=seconds,
            attempted=self.steps_per_epoch * len(trace.records),
            failed=int(trace.aborted),
            problems=checks.check_training(self.name, trace, self.num_directions),
            times={"train.run": seconds},
            outputs={
                "final_min_p1": min((m["p1"] for m in final), default=0.0),
                "final_map": float(np.mean([m["map"] for m in final])) if final else 0.0,
            },
        )

    def verify(self, rounds) -> list[str]:
        return []  # each round is checked as it ends

    def layer_metrics(self, untraced, traced, summary) -> dict:
        n = len(traced)
        out = {
            "train.run_s": statistics.median(r.seconds for r in untraced),
            "train.final_min_p1": statistics.median(r.outputs["final_min_p1"] for r in untraced),
            "train.final_map": statistics.median(r.outputs["final_map"] for r in untraced),
            "gradients.loss_gradient_calls": _per_round(summary, "gradients.loss_gradient", "calls", n),
            "retrieval.rank_gallery_calls": _per_round(summary, "retrieval.rank_gallery", "calls", n),
            "train.loop_self_s": _self_s(summary, "train.run", n),
        }
        for metric, span in [
            ("gradients.loss_gradient_s", "gradients.loss_gradient"),
            ("train.encoder_forward_s", "train.encoder_forward"),
            ("train.encoder_backward_s", "train.encoder_backward"),
            ("train.clip_s", "train.clip"),
            ("train.adam_s", "train.adam"),
            ("pmf.batch_construct_s", "pmf.batch_construct"),
            ("losses.ring_construct_s", "losses.ring_construct"),
            ("train.evaluate_s", "train.evaluate"),
            ("retrieval.rank_gallery_s", "retrieval.rank_gallery"),
            ("retrieval.precision_at_k_s", "retrieval.precision_at_k"),
            ("retrieval.map_s", "retrieval.map"),
        ]:
            out[metric] = _self_s(summary, span, n)
        return out


# ---------------------------------------------------------------------------

GRAD_N_CLASSES, GRAD_PER_CLASS, GRAD_DIM = 8, 16, 32
# Input of the operation that fails today: fixed, not drawn from --seed.
UNDERFLOW_SEED = 5001
UNDERFLOW_TAU = 0.005
UNDERFLOW_M, UNDERFLOW_DIM = 8, 16


class GradSweep:
    """``loss_gradient`` alone on seeded 128 x 32 rings: gcs_ring against
    pairwise_cs at M=3 and M=8, bimodal_cs / kl / mmd / coral at M=2, the
    two forward losses at M=3 and M=8, and one gcs_ring call at M=8,
    tau=0.005 on a fixed ring, which underflows today. One operation is one call."""

    name = "grad-sweep"
    GRADIENT_OPS = [
        ("gcs_ring_m3", "gcs_ring", 3),
        ("pairwise_cs_m3", "pairwise_cs", 3),
        ("gcs_ring_m8", "gcs_ring", 8),
        ("pairwise_cs_m8", "pairwise_cs", 8),
        ("bimodal_cs", "bimodal_cs", 2),
        ("kl", "kl", 2),
        ("mmd", "mmd", 2),
        ("coral", "coral", 2),
    ]
    FORWARD_OPS = [
        ("gcs_ring_forward_m3", "gcs_ring", 3),
        ("pairwise_forward_m3", "pairwise_cs", 3),
        ("gcs_ring_forward_m8", "gcs_ring", 8),
        ("pairwise_forward_m8", "pairwise_cs", 8),
    ]

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict[str, float] = {}
        self.assoc: dict[str, int] = {}

    def setup(self) -> dict:
        timings: dict = {}
        self.rings = {
            m: ModalityRing(tuple(_timed_synth(SynthConfig(
                num_classes=GRAD_N_CLASSES, per_class=GRAD_PER_CLASS,
                input_dims=(GRAD_DIM,) * m, seed=self.seed), timings)))
            for m in (2, 3, 8)
        }
        labels = np.repeat(np.arange(GRAD_N_CLASSES), GRAD_PER_CLASS)
        rng = np.random.default_rng(UNDERFLOW_SEED)
        self.underflow_ring = ModalityRing(tuple(
            EmbeddingBatch(rng.normal(size=(labels.size, UNDERFLOW_DIM)), labels, f"u{i}")
            for i in range(UNDERFLOW_M)
        ))
        return timings

    def warmup(self) -> None:
        self.run_round()

    def _expect(self, key: str, value: float, problems: list[str]) -> None:
        first = self.expected.setdefault(key, value)
        if not (np.isfinite(value) and abs(value - first) <= 1e-12 * max(1.0, abs(first))):
            problems.append(f"{key}: value {value!r} differs from earlier call {first!r}")

    def run_round(self, tracer=None) -> Round:
        r = Round()
        loss_gradient = csalign.gradients.loss_gradient
        for key, kind, m in self.GRADIENT_OPS:
            start = _clock()
            with _span(tracer, "gradients.loss_gradient", key):
                value, bundle = loss_gradient(kind, self.rings[m])
            r.times[key] = _clock() - start
            if not all(np.all(np.isfinite(g)) for g in bundle):
                r.problems.append(f"{key}: non-finite gradient")
            self._expect(key, value, r.problems)
        forward = {"gcs_ring": csalign.losses.gcs_ring_loss, "pairwise_cs": csalign.losses.pairwise_sum_loss}
        for key, kind, m in self.FORWARD_OPS:
            before = association_pmf_count()
            start = _clock()
            with _span(tracer, "losses." + key.rsplit("_", 1)[0], f"m{m}"):
                report = forward[kind](self.rings[m])
            r.times[key] = _clock() - start
            self.assoc[key] = association_pmf_count() - before
            want = 2 * m if kind == "gcs_ring" else m * (m - 1)
            r.problems += checks.check_count(key, self.assoc[key], want)
            self._expect(key, report.total, r.problems)
        r.seconds = sum(r.times.values())
        r.attempted = len(self.GRADIENT_OPS) + len(self.FORWARD_OPS)
        r.attempted += 1
        try:
            with np.errstate(all="ignore"), _span(tracer, "gradients.loss_gradient", "underflow"):
                value, bundle = loss_gradient("gcs_ring", self.underflow_ring, AlignConfig(UNDERFLOW_TAU))
        except CsAlignError:
            r.failed += 1
        else:
            r.failed += not (np.isfinite(value) and all(np.all(np.isfinite(g)) for g in bundle))
        return r

    def verify(self, rounds) -> list[str]:
        """Values of the measured calls against the scalar divergences, and
        analytic gradients against central differences on 6 x 3 rings."""
        problems = []
        for key, kind, m in self.GRADIENT_OPS + self.FORWARD_OPS:
            ring = self.rings[m]
            reference = checks.reference_loss(kind, [b.data for b in ring.batches], ring.labels)
            problems += checks.check_value(key, self.expected[key], reference)
        rng = np.random.default_rng([self.seed, 7])
        for kind in LOSS_KINDS:
            m = 3 if kind in ("gcs_ring", "pairwise_cs") else 2
            labels = rng.permutation(np.repeat(np.arange(3), 2))
            arrays = [rng.normal(size=(6, 3)) for _ in range(m)]
            ring = ModalityRing(tuple(EmbeddingBatch(a, labels, f"s{i}") for i, a in enumerate(arrays)))
            value, bundle = csalign.gradients.loss_gradient(kind, ring)
            problems += checks.check_value(f"small {kind}", value, checks.reference_loss(kind, arrays, labels))
            problems += checks.check_gradient(
                f"small {kind}", bundle, checks.reference_gradient(kind, arrays, labels))
        return problems

    def layer_metrics(self, untraced, traced, summary) -> dict:
        n = len(traced)
        out = {f"grad.{key}_per_s": 1.0 / _median(untraced, key) for key, _, _ in self.GRADIENT_OPS}
        for key, kind, m in self.FORWARD_OPS:
            stem = "gcs_ring_forward" if kind == "gcs_ring" else "pairwise_forward"
            out[f"losses.{stem}_s_m{m}"] = _median(untraced, key)
            assoc = "gcs_ring" if kind == "gcs_ring" else "pairwise"
            out[f"losses.assoc_pmfs_{assoc}_m{m}"] = self.assoc[key]
        for metric, span in [("pmf.cosine_s", "pmf.cosine"), ("pmf.softmax_s", "pmf.softmax"),
                             ("divergence.resolve_bandwidth_s", "divergence.resolve_bandwidth")]:
            calls = _per_round(summary, span, "calls", n)
            out[metric] = _self_s(summary, span, n) / calls if calls else 0.0
        out["gradients.loss_gradient_s"] = _self_s(summary, "gradients.loss_gradient", n)
        out["gradients.loss_gradient_calls"] = _per_round(summary, "gradients.loss_gradient", "calls", n)
        return out


# ---------------------------------------------------------------------------

EVAL_CLASSES, EVAL_PER_CLASS, EVAL_DIM, EVAL_M = 8, 160, 16, 3
EVAL_DUPLICATES = 64
EVAL_SAMPLED_QUERIES = 16


class RetrievalEval:
    """``evaluate_directions`` on a held-out set of M=3 embeddings with
    1280 rows per modality (a 12.5 MiB similarity matrix, larger than L2)
    and 64 duplicated gallery rows that make exact ties. A round is one
    P@K-only pass and one MAP pass; one operation is one call."""

    name = "retrieval-eval"

    def __init__(self, seed: int):
        self.seed = seed
        self.first: dict[str, dict] = {}

    def setup(self) -> dict:
        timings: dict = {}
        # shared instance points with class structure, seen through
        # modality-specific noise, so that instance i matches across modalities
        base = _timed_synth(SynthConfig(
            num_classes=EVAL_CLASSES, per_class=EVAL_PER_CLASS, input_dims=(EVAL_DIM,),
            embed_dim=EVAL_DIM, class_sep=3.0, noise_sigma=1.0, seed=self.seed), timings)[0]
        rng = np.random.default_rng([self.seed, 1])
        n = base.n
        self.src = rng.choice(n, EVAL_DUPLICATES, replace=False)
        self.dst = rng.choice(np.setdiff1d(np.arange(n), self.src), EVAL_DUPLICATES, replace=False)
        self.batches = []
        for name in "ABC"[:EVAL_M]:
            x = base.data + rng.normal(scale=0.7, size=base.data.shape)
            x[self.dst] = x[self.src]
            self.batches.append(EmbeddingBatch(x, base.labels, name))
        return timings

    def warmup(self) -> None:
        csalign.train.evaluate_directions(self.batches)

    def _same_as_first(self, key, metrics, problems):
        first = self.first.setdefault(key, metrics)
        problems += checks.check_retrieval(key, metrics, first, tuple(first[next(iter(first))]))

    def run_round(self, tracer=None) -> Round:
        r = Round(attempted=2)
        evaluate = csalign.train.evaluate_directions
        start = _clock()
        pk = evaluate(self.batches)
        mid = _clock()
        full = evaluate(self.batches, with_map=True)
        r.times = {"pk": mid - start, "map": _clock() - mid}
        r.seconds = r.times["pk"] + r.times["map"]
        self._same_as_first("pk", pk, r.problems)
        self._same_as_first("map", full, r.problems)
        return r

    def verify(self, rounds) -> list[str]:
        rng = np.random.default_rng([self.seed, 2])
        sample = np.concatenate([self.src[: EVAL_SAMPLED_QUERIES // 2],
                                 rng.choice(self.batches[0].n, EVAL_SAMPLED_QUERIES // 2, replace=False)])
        reference, problems = checks.reference_retrieval(self.batches, sample)
        problems += checks.check_retrieval("pk pass", self.first["pk"], reference, ("p1", "p10"))
        problems += checks.check_retrieval("map pass", self.first["map"], reference, ("p1", "p10", "map"))
        return problems

    def layer_metrics(self, untraced, traced, summary) -> dict:
        n = len(traced)
        queries = self.batches[0].n * EVAL_M * (EVAL_M - 1)
        out = {
            "eval.pk_queries_per_s": queries / _median(untraced, "pk"),
            "eval.map_queries_per_s": queries / _median(untraced, "map"),
            "retrieval.rank_gallery_calls": _per_round(summary, "retrieval.rank_gallery", "calls", n),
        }
        for metric, span in [
            ("train.evaluate_s", "train.evaluate"),
            ("retrieval.rank_gallery_s", "retrieval.rank_gallery"),
            ("retrieval.precision_at_k_s", "retrieval.precision_at_k"),
            ("retrieval.map_s", "retrieval.map"),
        ]:
            out[metric] = _self_s(summary, span, n)
        return out


WORKLOADS = {w.name: w for w in (TrainC7, GradSweep, RetrievalEval)}
