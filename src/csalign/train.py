"""Desk-scale trainer: small encoders + Adam on the alignment losses.

One encoder per modality projects raw features into the shared space;
the chosen alignment loss produces embedding gradients (see
``gradients``), which are chained into encoder parameters and applied
with Adam: bias correction, global-norm gradient clipping, decoupled
weight decay, and a step-decay learning-rate schedule (x0.1 every 100
epochs). Retrieval metrics are evaluated each epoch on a held-out
split. Everything is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import permutations

import numpy as np

from .errors import ConfigError, NoRelevantItems, ShapeMismatch
from .gradients import LOSS_KINDS, check_kind, stack_loss_gradient
from .losses import MatchStrategy, check_paired, direction_label, ring_edges, ring_passes
from .pmf import AlignConfig, EmbeddingBatch, row_norms
from .retrieval import SCORE_BLOCK_ROWS, average_precisions, rank_scores, top_k_hits


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    weight_decay: float = 1e-5
    grad_clip_norm: float = 1.0
    max_epochs: int = 100
    batch_size: int = 128
    seed: int = 0
    loss_kind: str = "gcs_ring"
    strategy: MatchStrategy = MatchStrategy.MIXED
    temperature: float = 1.0
    holdout_fraction: float = 0.2
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 100
    hidden_dim: int | None = None
    init_scale: float = 0.02

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        # a nan passes every ordered comparison below as False
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {value}")
        for name in ("learning_rate", "weight_decay", "holdout_fraction"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.max_epochs < 1 or self.batch_size < 2:
            raise ConfigError("need max_epochs >= 1 and batch_size >= 2")
        if self.lr_decay_every < 1:
            raise ConfigError(f"lr_decay_every must be at least 1, got {self.lr_decay_every}")


class Encoder:
    """Affine projection head, optionally with one tanh hidden layer."""

    def __init__(
        self,
        input_dim: int,
        embed_dim: int,
        hidden_dim: int | None = None,
        *,
        rng: np.random.Generator,
        init_scale: float = 0.02,
    ):
        dims = [input_dim] + ([hidden_dim] if hidden_dim else []) + [embed_dim]
        self.weights = [
            rng.normal(size=(dims[i], dims[i + 1])) * init_scale
            for i in range(len(dims) - 1)
        ]
        self.biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            params.extend((w, b))
        return params

    def forward(self, x: np.ndarray):
        activations = [np.asarray(x, dtype=np.float64)]
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w + b
            if layer < len(self.weights) - 1:
                z = np.tanh(z)
            activations.append(z)
        return activations[-1], activations

    def backward(self, activations: list[np.ndarray], grad_out: np.ndarray):
        """Parameter gradients in the order of :meth:`parameters`."""
        grads: list[np.ndarray] = []
        grad = grad_out
        for layer in reversed(range(len(self.weights))):
            x_in = activations[layer]
            if layer < len(self.weights) - 1:
                # tanh': upstream grad is wrt the activated output
                grad = grad * (1.0 - activations[layer + 1] ** 2)
            grads.insert(0, grad.sum(axis=0))  # bias
            grads.insert(0, x_in.T @ grad)  # weight
            if layer > 0:
                grad = grad @ self.weights[layer].T
        return grads


class Adam:
    """Adam with bias correction and decoupled weight decay.

    Parameters are updated in place; the decay term ``lr * wd * p`` is
    applied after the adaptive step, not mixed into the gradient.
    """

    def __init__(
        self,
        params: list[np.ndarray],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray], lr_scale: float = 1.0) -> None:
        if len(grads) != len(self.params):
            raise ShapeMismatch(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        lr = self.learning_rate * lr_scale
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
            if self.weight_decay:
                p -= lr * self.weight_decay * p


def clip_global_norm(grads: list[np.ndarray], max_norm: float | None):
    """Scale all gradients jointly so their global norm is <= max_norm."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if max_norm is not None and max_norm > 0 and total > max_norm:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads, total


def build_encoders(
    input_dims: tuple[int, ...], embed_dim: int, cfg: TrainConfig
) -> list[Encoder]:
    """One seeded encoder per modality (stream ``[seed, index]``)."""
    return [
        Encoder(
            dim,
            embed_dim,
            cfg.hidden_dim,
            rng=np.random.default_rng([cfg.seed, i]),
            init_scale=cfg.init_scale,
        )
        for i, dim in enumerate(input_dims)
    ]


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    finite: bool
    metrics: dict[str, dict[str, float]]  # direction -> {"p1": ., "p10": .}


@dataclass(frozen=True)
class TrainingTrace:
    records: list[EpochRecord]
    aborted: bool
    directions: list[str]
    supervised: dict[str, bool]
    final_metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def losses(self) -> list[float]:
        return [r.loss for r in self.records]


def supervised_directions(
    names: list[str], loss_kind: str, strategy: MatchStrategy
) -> set[str]:
    """Direction labels that receive gradient under the given loss."""
    m = len(names)
    if loss_kind == "gcs_ring":
        edges = [e for direction in ring_passes(strategy) for e in ring_edges(m, direction)]
    else:
        edges = permutations(range(m), 2)
    return {direction_label(names[s], names[d]) for s, d in edges}


def _evaluate(units, names: list[str], labels, relevance, with_map: bool):
    """``evaluate_directions`` on checked arrays: ``units[m]`` holds the
    unit rows of modality m and ``labels[m]`` their labels, and the P@K
    pass reads ``relevance(q, g)[i, j]``: whether item j of modality g is
    relevant to query i of modality q."""
    metrics: dict[str, dict[str, float]] = {}
    for qi, gi in permutations(range(len(units)), 2):
        direction = direction_label(names[qi], names[gi])
        missing = np.flatnonzero(~np.isin(labels[qi], labels[gi])) if with_map else ()
        if len(missing):
            raise NoRelevantItems(f"{direction}: query {missing[0]} has no relevant gallery item")
        relevant = None if with_map else relevance(qi, gi)
        query, gallery_t = units[qi], units[gi].T
        n, k = query.shape[0], min(10, gallery_t.shape[1])
        hits_1 = hits_k = 0
        ap_values: list[float] = []
        for start in range(0, n, SCORE_BLOCK_ROWS):
            rows = slice(start, start + SCORE_BLOCK_ROWS)
            scores = query[rows] @ gallery_t
            if with_map:
                ranked = labels[gi][rank_scores(scores)] == labels[qi][rows, None]
                hits_1 += np.count_nonzero(ranked[:, :1])
                hits_k += np.count_nonzero(ranked[:, :k])
                ap_values += average_precisions(ranked)
            else:
                hits_1 += top_k_hits(scores, relevant[rows], 1)
                hits_k += top_k_hits(scores, relevant[rows], k)
        metrics[direction] = {"p1": hits_1 / n, "p10": hits_k / (n * k)}
        if with_map:
            metrics[direction]["map"] = float(np.mean(ap_values))
    return metrics


def evaluate_directions(
    batches: list[EmbeddingBatch], with_map: bool = False
) -> dict[str, dict[str, float]]:
    """P@1 / P@10 (and optionally MAP) for every ordered modality pair.

    Each modality is normalised once. P@K comes from top-k selection on
    the cosine scores (``top_k_hits``) with ``rank_gallery``'s tie
    rule: descending cosine, then ascending gallery index; no full
    ranking is built. Queries are scored in the blocks of
    ``cosine_scores``, so temporaries stay O(block x gallery) and the
    scores keep their bits. The MAP pass ranks each block with
    ``rank_scores`` and reads P@1, P@10 and the average precisions off
    the relevance of that ranking. Hit counts are summed over blocks and
    divided once, so every value equals the one from ``rank_gallery`` +
    ``precision_at_k`` / ``mean_average_precision`` exactly. With
    ``with_map``, a query whose label no gallery item has raises
    ``NoRelevantItems`` naming the direction and the query's row;
    modalities of different embedding dimension raise ``ShapeMismatch``.
    """
    if len({b.d for b in batches}) != 1:
        raise ShapeMismatch(f"modalities must share d, got {[b.d for b in batches]}")
    units = [b.data / row_norms(b.data, f"batch '{b.modality_name}'") for b in batches]
    names, labels = [b.modality_name for b in batches], [b.labels for b in batches]
    relevance = lambda qi, gi: labels[gi] == labels[qi][:, None]
    return _evaluate(units, names, labels, relevance, with_map)


def train_run(
    data: list[EmbeddingBatch], encoders: list[Encoder], cfg: TrainConfig
) -> TrainingTrace:
    """Train the encoders on the configured loss; return the full trace.

    The inputs are checked once, before the first step, with the error
    classes ``ModalityRing`` and ``loss_gradient`` raise: one encoder per
    modality, one embedding dimension, one n, the same labels position by
    position, unique names, and a loss kind defined for M modalities.
    From then on the run works on arrays: each step stacks the encoder
    outputs and calls ``stack_loss_gradient``, which checks its row norms
    once, and each evaluation checks the held-out stack with ``row_norms``
    and scores it as ``evaluate_directions`` does, against one relevance
    mask per run.

    Rows are shuffled per epoch without replacement (seeded); a
    non-finite batch loss aborts the run, returning the trace so far
    with ``aborted=True``.
    """
    if len(data) != len(encoders):
        raise ShapeMismatch(f"{len(data)} modalities but {len(encoders)} encoders")
    check_paired(data)
    check_kind(cfg.loss_kind, len(data))
    if len({enc.weights[-1].shape[1] for enc in encoders}) != 1:
        raise ShapeMismatch("encoders must share one embedding dimension")
    names = [b.modality_name for b in data]
    labels = data[0].labels
    tau = AlignConfig(cfg.temperature).temperature
    rng = np.random.default_rng(cfg.seed)

    n = data[0].n
    perm = rng.permutation(n)
    n_test = min(max(2, int(round(cfg.holdout_fraction * n))), n - 2)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    test_inputs = [b.data[test_idx] for b in data]
    test_labels = [labels[test_idx]] * len(data)
    relevant = test_labels[0] == test_labels[0][:, None]

    def evaluate(with_map: bool = False) -> dict[str, dict[str, float]]:
        stack = np.stack([enc.forward(x)[0] for enc, x in zip(encoders, test_inputs)])
        units = stack / row_norms(stack, "the held-out embeddings")
        return _evaluate(units, names, test_labels, lambda qi, gi: relevant, with_map)

    adam = Adam(
        [p for enc in encoders for p in enc.parameters()],
        cfg.learning_rate,
        cfg.adam_beta1,
        cfg.adam_beta2,
        cfg.adam_epsilon,
        cfg.weight_decay,
    )
    directions = sorted(direction_label(q, g) for q, g in permutations(names, 2))
    supervised = {
        d: d in supervised_directions(names, cfg.loss_kind, cfg.strategy)
        for d in directions
    }

    records: list[EpochRecord] = []
    aborted = False
    for epoch in range(cfg.max_epochs):
        lr_scale = cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = train_idx[rng.permutation(train_idx.size)]
        batch_losses: list[float] = []
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            outputs = [enc.forward(b.data[idx]) for enc, b in zip(encoders, data)]
            stack = np.stack([emb for emb, _ in outputs])
            value, grads = stack_loss_gradient(
                cfg.loss_kind, stack, labels[idx], names, cfg.strategy, tau
            )
            if not np.isfinite(value):
                batch_losses.append(value)
                aborted = True
                break
            param_grads: list[np.ndarray] = []
            for enc, (_, cache), grad_emb in zip(encoders, outputs, grads):
                param_grads.extend(enc.backward(cache, grad_emb))
            clipped, _ = clip_global_norm(param_grads, cfg.grad_clip_norm)
            adam.step(clipped, lr_scale)
            batch_losses.append(value)
        epoch_loss = float(np.mean(batch_losses)) if batch_losses else float("nan")
        records.append(
            EpochRecord(epoch, epoch_loss, bool(np.isfinite(epoch_loss)), evaluate())
        )
        if aborted:
            break
    return TrainingTrace(records, aborted, directions, supervised, evaluate(with_map=True))


@dataclass(frozen=True)
class AblationArm:
    strategy: str
    trace: TrainingTrace
    avg_p1: float
    avg_p10: float


def ablation_run(
    data: list[EmbeddingBatch], base_cfg: TrainConfig, embed_dim: int = 16
) -> list[AblationArm]:
    """Train one arm per matching strategy under identical budgets.

    Each arm gets freshly built encoders from the same seed, so initial
    parameters, data split, and batch order are shared; only the
    strategy differs. Unsupervised directions stay visible in each
    trace's ``supervised`` map.
    """
    input_dims = tuple(b.d for b in data)
    arms = []
    for strategy in (
        MatchStrategy.CLOCKWISE,
        MatchStrategy.COUNTERCLOCKWISE,
        MatchStrategy.MIXED,
    ):
        cfg = replace(base_cfg, strategy=strategy)
        encoders = build_encoders(input_dims, embed_dim, cfg)
        trace = train_run(data, encoders, cfg)
        p1 = [m["p1"] for m in trace.final_metrics.values()]
        p10 = [m["p10"] for m in trace.final_metrics.values()]
        arms.append(
            AblationArm(strategy.value, trace, float(np.mean(p1)), float(np.mean(p10)))
        )
    return arms
