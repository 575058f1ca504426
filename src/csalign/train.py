"""Desk-scale trainer: linear encoders + Adam on the alignment losses.

One affine encoder per modality projects raw features into the shared
space; the chosen alignment loss produces embedding gradients (see
``gradients``), which are chained into encoder parameters and applied
with Adam: bias correction, global-norm gradient clipping, decoupled
weight decay and a step-decay learning-rate schedule (x0.1 every 100
epochs); each of their settings is one module constant. The loss kind is
described once, in ``losses.LOSS_TABLE``; the trace's ``supervised`` map
reads the passes the engine sums off the same ``losses.loss_groups``.
Retrieval metrics are evaluated each epoch on a held-out split.
Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from itertools import permutations

import numpy as np

from .errors import ConfigError, NonFiniteSimilarity, ShapeMismatch
from .gradients import stack_loss_gradient
from .losses import (LOSS_KINDS, MatchStrategy, ModalityRing, check_kind, check_paired,
                     direction_label, loss_groups)
from .pmf import AlignConfig, EmbeddingBatch, check_float, check_integer, row_norms
from .retrieval import SCORE_BLOCK_ROWS, average_precisions, rank_scores, top_k_hits

# Query rows of one score product. ``_evaluate`` multiplies every block
# in products of this many rows, counted from row 0, whatever the number
# of workers: a BLAS product over another number of rows may round
# differently in the last place, which could reorder near-ties.
_PRODUCT_ROWS = SCORE_BLOCK_ROWS // 4
# Fewest scores (query rows x gallery items) in one worker's block for
# ``_evaluate`` to split its blocks across threads: below this, thread
# start-up and GIL hand-offs cost more than another core gains.
_THREAD_MIN_SCORES = 100_000
# Adam's betas and epsilon (Kingma & Ba 2015) and decoupled weight decay,
# the step schedule (the learning rate is multiplied by LR_DECAY_FACTOR
# every LR_DECAY_EVERY epochs) and the encoders' initial weight scale.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
WEIGHT_DECAY = 1e-5
LR_DECAY_FACTOR = 0.1
LR_DECAY_EVERY = 100
INIT_SCALE = 0.02


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings; ``holdout_fraction``, the share of rows held out, lies in [0, 1),
    and each ``int`` field holds an integer. ``train_run`` holds out
    ``min(max(2, round(holdout_fraction * n)), n - 2)`` of the n rows: two at a fraction of
    0, and one at n = 3. Adam's betas and epsilon (``ADAM_*``), weight decay
    (``WEIGHT_DECAY``), schedule (``LR_DECAY_*``) and the encoders' initial
    scale (``INIT_SCALE``) are fixed."""

    learning_rate: float = 1e-4
    grad_clip_norm: float = 1.0
    max_epochs: int = 100
    batch_size: int = 128
    seed: int = 0
    loss_kind: str = "gcs_ring"
    strategy: MatchStrategy = MatchStrategy.MIXED
    temperature: float = 1.0
    holdout_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        if not isinstance(self.strategy, MatchStrategy):
            raise ConfigError(f"strategy must be a MatchStrategy, got {self.strategy!r}")
        # a nan passes every ordered comparison below as False
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(check_float(f.name, value)):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type == "int":
                check_integer(f.name, value)
        # a holdout_fraction of 1 or more would hold out all rows but two, whatever its value
        if not (0.0 <= self.holdout_fraction < 1.0):
            raise ConfigError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        for name in ("learning_rate", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        AlignConfig(self.temperature)
        if self.max_epochs < 1 or self.batch_size < 2:
            raise ConfigError("need max_epochs >= 1 and batch_size >= 2")


class Encoder:
    """Linear projection head, the affine map ``x @ weight + bias``; the
    weight is drawn from N(0, INIT_SCALE^2) by ``rng``, the bias is zero."""

    def __init__(self, input_dim: int, embed_dim: int, *, rng: np.random.Generator):
        self.weight = rng.normal(size=(input_dim, embed_dim)) * INIT_SCALE
        self.bias = np.zeros(embed_dim)

    def parameters(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The embeddings of the rows of ``x``."""
        return x @ self.weight + self.bias

    def backward(self, x: np.ndarray, grad_out: np.ndarray) -> list[np.ndarray]:
        """Parameter gradients, in the order of :meth:`parameters`, at input ``x``."""
        return [x.T @ grad_out, grad_out.sum(axis=0)]


class Adam:
    """Adam with bias correction and decoupled weight decay (``ADAM_*``, ``WEIGHT_DECAY``).

    Parameters are updated in place; the decay term ``lr * wd * p`` is
    applied after the adaptive step, not mixed into the gradient.
    """

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray], lr_scale: float = 1.0) -> bool:
        """Apply one update; return False, changing no parameter, when a
        moment leaves float range. No finite step exists then, and the
        moments are spent. A bias-corrected second moment ``v / bc2`` past
        float range (early steps with gradients near 1e154) is taken as
        ``sqrt(v) / sqrt(bc2)``, so the step stays finite."""
        if len(grads) != len(self.params):
            raise ShapeMismatch(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        lr = self.learning_rate * lr_scale
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        roots = []
        with np.errstate(over="raise"):
            try:
                for g, m, v in zip(grads, self.m, self.v):
                    m *= ADAM_BETA1
                    m += (1.0 - ADAM_BETA1) * g
                    v *= ADAM_BETA2
                    v += (1.0 - ADAM_BETA2) * g * g
            except FloatingPointError:
                return False
            for v in self.v:
                try:
                    roots.append(np.sqrt(v / bc2))
                except FloatingPointError:
                    roots.append(np.sqrt(v) / math.sqrt(bc2))
        for p, m, root in zip(self.params, self.m, roots):
            p -= lr * (m / bc1) / (root + ADAM_EPSILON)
            p -= lr * WEIGHT_DECAY * p
        return True


def clip_global_norm(grads: list[np.ndarray], max_norm: float):
    """Scale all gradients jointly so their global norm is <= max_norm;
    ``max_norm <= 0`` disables clipping. When the sum of squares
    overflows, the norm is taken from the gradients divided by their
    largest magnitude, so a finite norm past sqrt(max float) still clips."""
    with np.errstate(over="ignore"):
        total = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    if math.isinf(total):
        peak = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        if math.isfinite(peak):  # the squares overflowed, not the gradients
            total = peak * float(np.sqrt(sum(float(((g / peak) ** 2).sum()) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        grads = [g * scale for g in grads]
    return grads, total


def build_encoders(input_dims: tuple[int, ...], embed_dim: int, cfg: TrainConfig) -> list[Encoder]:
    """One seeded encoder per modality (stream ``[seed, index]``)."""
    return [Encoder(dim, embed_dim, rng=np.random.default_rng([cfg.seed, i]))
            for i, dim in enumerate(input_dims)]


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
    """Direction labels that receive gradient under the given loss: those of the
    passes ``loss_groups`` gives the engine; none under the label-free ``mmd`` and
    ``coral``."""
    passes, _ = loss_groups(loss_kind, names, strategy)
    return {direction_label(names[s], names[d]) for edges in passes.values() for s, d in edges}


def _ranked_block(scores, query_labels, gallery_labels, k: int):
    """Top-1 hits, top-k hits and average precisions of one score block,
    ranked in the block's own memory: the ranking overwrites the spent
    scores, and the ranked labels the ranking ("clip" writes to ``out``
    directly, where "raise" would buffer a block-sized copy)."""
    ranked = scores.view(np.int64)
    gallery_labels.take(rank_scores(scores, out=ranked), out=ranked, mode="clip")
    relevant = ranked == query_labels[:, None]
    hit_1, hit_k = np.count_nonzero(relevant[:, :1]), np.count_nonzero(relevant[:, :k])
    return int(hit_1), int(hit_k), average_precisions(relevant)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _block_rows(workers: int) -> int:
    """Query rows of one block when ``workers`` threads each hold one:
    whole products, and no more than ``SCORE_BLOCK_ROWS`` rows in all."""
    return SCORE_BLOCK_ROWS // workers // _PRODUCT_ROWS * _PRODUCT_ROWS


def _worker_count(rows: int, gallery: int) -> int:
    """Threads that score ``rows`` query rows against ``gallery`` items:
    at most one per available CPU and one per block, and no more than
    keep each worker's block at ``_THREAD_MIN_SCORES`` scores or more."""
    workers = 1
    for more in range(2, min(_available_cpus(), SCORE_BLOCK_ROWS // _PRODUCT_ROWS) + 1):
        block = _block_rows(more)
        if block * gallery < _THREAD_MIN_SCORES or -(-rows // block) < more:
            break
        workers = more
    return workers


def _evaluate(units, names: list[str], labels, with_map: bool):
    """``evaluate_directions`` on checked arrays: ``units[m]`` holds the
    unit rows of modality m, and ``labels`` the int64 labels that row i
    of every modality carries.

    Queries are scored in blocks of ``_block_rows(workers)`` rows, for
    ``_worker_count`` workers. The caller allocates one buffer of at most
    ``SCORE_BLOCK_ROWS x n`` scores, and worker w scores every
    ``workers``-th block from block w in its own row slice of it, where
    every direction's block goes in turn, multiplied ``_PRODUCT_ROWS``
    rows at a time. Its P@K pass builds each block's relevance
    (``block x n`` booleans) from the labels once, for every direction.
    Its MAP pass ranks each block into the slice and writes the ranked
    labels over the ranking. A worker returns its integer hit counts,
    which are summed, and writes its average precisions to its own
    blocks' rows, so no value depends on the worker count. One worker
    runs on the calling thread; more run on a pool, whose threads are
    joined before the first error of a worker propagates."""
    pairs = list(permutations(range(len(units)), 2))
    n, k = len(labels), min(10, len(labels))
    workers = _worker_count(n, n)
    step = _block_rows(workers)
    slot = min(n, step) * n
    buffer = np.empty(workers * slot)
    ap_values = {pair: np.empty(n) if with_map else None for pair in pairs}

    def score_blocks(w: int) -> dict[tuple[int, int], list[int]]:
        scratch, hits = buffer[w * slot : (w + 1) * slot], {pair: [0, 0] for pair in pairs}
        for start in range(w * step, n, workers * step):
            rows, mask = slice(start, start + step), None  # drop the last block's mask first
            if not with_map:
                mask = labels == labels[rows, None]
            for qi, gi in pairs:
                query = units[qi][rows]
                scores = scratch[: len(query) * n].reshape(len(query), n)
                for lo in range(0, len(query), _PRODUCT_ROWS):
                    part = slice(lo, lo + _PRODUCT_ROWS)
                    np.matmul(query[part], units[gi].T, out=scores[part])
                if with_map:
                    hit_1, hit_k, ap_values[qi, gi][rows] = _ranked_block(
                        scores, labels[rows], labels, k)
                else:
                    hit_1, hit_k = top_k_hits(scores, mask, 1), top_k_hits(scores, mask, k)
                hits[qi, gi][0] += hit_1
                hits[qi, gi][1] += hit_k
        return hits

    if workers == 1:
        per_worker = [score_blocks(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded by threaded calls only

        with ThreadPoolExecutor(workers) as pool:
            per_worker = list(pool.map(score_blocks, range(workers)))
    metrics: dict[str, dict[str, float]] = {}
    for qi, gi in pairs:
        hit_1, hit_k = (sum(hits[qi, gi][j] for hits in per_worker) for j in (0, 1))
        entry = {"p1": hit_1 / n, "p10": hit_k / (n * k)}
        if with_map:
            entry["map"] = float(np.mean(ap_values[qi, gi]))
        metrics[direction_label(names[qi], names[gi])] = entry
    return metrics


def evaluate_directions(
    batches: list[EmbeddingBatch], with_map: bool = False
) -> dict[str, dict[str, float]]:
    """P@1 / P@10 (and optionally MAP) for every ordered modality pair.

    The batches must be paired, as ``ModalityRing`` checks: at least two
    of them (else ``TooFewDistributions``), one n, one embedding
    dimension and the same labels position by position (else
    ``ShapeMismatch``), and unique names (else ``ConfigError``). Row i of
    every modality is one instance, so each query's own row is relevant
    to it. Each modality is normalised once. Queries are scored in blocks
    of ``SCORE_BLOCK_ROWS`` rows counted from row 0, every direction's
    block into one shared buffer, so temporaries stay O(block x n) and no
    n x n array is built. When one worker's share of a block still holds
    ``_THREAD_MIN_SCORES`` scores or more, the blocks are split, one per
    available CPU, and scored on as many threads in row slices of that
    one buffer (see ``_evaluate``); every value is the same as on one
    thread. P@K comes from top-k selection on the scores
    (``top_k_hits``) with the tie rule of ``rank_scores``: descending
    cosine, then ascending gallery index; no full ranking is built. Its
    relevance mask is built once per block, from the one label vector,
    for every direction. The MAP pass ranks each block with
    ``rank_scores`` and reads P@1, P@10 and the average precisions off
    the relevance of that ranking. Hit counts are summed over blocks and
    divided once, so every value equals the one read off a stable
    argsort of the same scores exactly.
    """
    ring = ModalityRing(tuple(batches))
    names = [b.modality_name for b in ring.batches]
    units = [b.data / row_norms(b.data, f"batch '{b.modality_name}'") for b in ring.batches]
    return _evaluate(units, names, ring.labels, with_map)


def train_run(
    data: list[EmbeddingBatch], encoders: list[Encoder], cfg: TrainConfig
) -> TrainingTrace:
    """Train the encoders on the configured loss; return the full trace.

    The inputs are checked once, before the first step, with the error
    classes ``ModalityRing`` and ``loss_gradient`` raise: one encoder per
    modality, taking that modality's input width (else ``ShapeMismatch``
    naming it), one embedding dimension, one n of at least 3 (one held-out
    row, two to train on), the same labels position by position, unique
    names, and a loss kind defined for M modalities.
    From then on the run works on arrays: each step stacks the encoder
    outputs and calls ``stack_loss_gradient``, which checks its row norms
    once, and each evaluation checks the held-out stack with ``row_norms``
    and scores it as ``evaluate_directions`` does, on as many threads as
    the held-out size pays for (none at the 320 rows of an 8 x 200
    dataset), with the same values on any number of CPUs. The held-out
    rows (as many as ``TrainConfig`` states) stay paired, so
    ``_evaluate`` takes their one label vector and builds each score
    block's relevance mask once.

    Rows are shuffled per epoch without replacement (seeded). A
    non-finite batch loss aborts the run, returning the trace so far
    with ``aborted=True``, and so do embeddings that a step has sent past
    float range (``NonFiniteSimilarity`` at any step after the first; at
    the first step it is raised, since the initial encoders are at
    fault), and an Adam step whose moments leave float range (the step
    is not applied). Held-out embeddings past float range then read nan
    for every metric.
    """
    if len(data) != len(encoders):
        raise ShapeMismatch(f"{len(data)} modalities but {len(encoders)} encoders")
    check_paired(data)
    check_kind(cfg.loss_kind, len(data), cfg.temperature)
    for enc, b in zip(encoders, data):
        if enc.weight.shape[0] != b.d:
            raise ShapeMismatch(f"modality '{b.modality_name}' has {b.d} input features but "
                                f"its encoder takes {enc.weight.shape[0]}")
    if len({enc.weight.shape[1] for enc in encoders}) != 1:
        raise ShapeMismatch("encoders must share one embedding dimension")
    n = data[0].n
    if n < 3:
        raise ShapeMismatch(f"training needs n >= 3 rows (one held out, two to train on), got n={n}")
    names = [b.modality_name for b in data]
    labels = data[0].labels
    rng = np.random.default_rng(cfg.seed)

    perm = rng.permutation(n)
    n_test = min(max(2, int(round(cfg.holdout_fraction * n))), n - 2)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    test_inputs = [b.data[test_idx] for b in data]
    test_labels = labels[test_idx]

    def evaluate(with_map: bool = False) -> dict[str, dict[str, float]]:
        stack = np.stack([enc.forward(x) for enc, x in zip(encoders, test_inputs)])
        try:
            norms = row_norms(stack, "the held-out embeddings")
        except NonFiniteSimilarity:
            if not aborted:
                raise
            # a diverged run's embeddings have no ranking
            keys = ("p1", "p10", "map") if with_map else ("p1", "p10")
            return {direction_label(q, g): dict.fromkeys(keys, float("nan"))
                    for q, g in permutations(names, 2)}
        return _evaluate(stack / norms, names, test_labels, with_map)

    adam = Adam([p for enc in encoders for p in enc.parameters()], cfg.learning_rate)
    directions = sorted(direction_label(q, g) for q, g in permutations(names, 2))
    covered = supervised_directions(names, cfg.loss_kind, cfg.strategy)
    supervised = {d: d in covered for d in directions}

    records: list[EpochRecord] = []
    aborted = False
    for epoch in range(cfg.max_epochs):
        lr_scale = LR_DECAY_FACTOR ** (epoch // LR_DECAY_EVERY)
        order = train_idx[rng.permutation(train_idx.size)]
        batch_losses: list[float] = []
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            inputs = [b.data[idx] for b in data]
            stack = np.stack([enc.forward(x) for enc, x in zip(encoders, inputs)])
            try:
                value, grads = stack_loss_gradient(
                    cfg.loss_kind, stack, labels[idx], names, cfg.strategy, cfg.temperature
                )
            except NonFiniteSimilarity:
                if adam.t == 0:
                    raise  # the initial encoders are at fault, not a step
                value = float("nan")  # the last step sent the embeddings past float range
            if not np.isfinite(value):
                batch_losses.append(value)
                aborted = True
                break
            param_grads: list[np.ndarray] = []
            for enc, x, grad_emb in zip(encoders, inputs, grads):
                param_grads.extend(enc.backward(x, grad_emb))
            clipped, _ = clip_global_norm(param_grads, cfg.grad_clip_norm)
            batch_losses.append(value)
            if not adam.step(clipped, lr_scale):
                aborted = True  # Adam's moments left float range: no finite step exists
                break
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
    for strategy in MatchStrategy:  # clockwise, counterclockwise, mixed
        cfg = replace(base_cfg, strategy=strategy)
        encoders = build_encoders(input_dims, embed_dim, cfg)
        trace = train_run(data, encoders, cfg)
        p1 = [m["p1"] for m in trace.final_metrics.values()]
        p10 = [m["p10"] for m in trace.final_metrics.values()]
        arms.append(
            AblationArm(strategy.value, trace, float(np.mean(p1)), float(np.mean(p10)))
        )
    return arms
