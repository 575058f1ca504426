"""Desk-scale trainer: linear encoders + Adam on the alignment losses.

One affine encoder per modality projects raw features into the shared
space; the chosen alignment loss produces embedding gradients (see
``gradients``), which are chained into encoder parameters and applied
with Adam: bias correction, global-norm gradient clipping, decoupled
weight decay and a step-decay learning-rate schedule (x0.1 every 100
epochs); each of their settings is one module constant. The loss kind is
described once, in ``losses.LOSS_TABLE``; the trace's ``supervised`` map
reads the passes the engine sums off the same ``losses.loss_groups``.
Retrieval metrics (``retrieval``) are evaluated each epoch on a held-out split,
in a forked child where ``heldout`` finds that one pays and is safe.
Everything is deterministic given the config seed, with or without the child.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from itertools import permutations
from operator import add

import numpy as np

from .errors import ConfigError, NonFiniteSimilarity, ShapeMismatch, ZeroNormRow
from .gradients import stack_loss_gradient
from .heldout import ScoringChild, child_cpus
from .losses import (LOSS_KINDS, MatchStrategy, check_kind, check_paired, direction_label,
                     loss_groups)
from .pmf import AlignConfig, EmbeddingBatch, check_float, check_integer, row_norms
from .retrieval import _evaluate, evaluate_directions  # noqa: F401 (re-exported)

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

    Parameters are updated in place; the decay term ``lr * wd * p`` is applied after
    the adaptive step. ``m``, ``v`` and the update are flat float64 buffers over all
    parameters, in order; each parameter subtracts its view of the update.
    """

    def __init__(self, params: list[np.ndarray], learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.m, self.v, self._update = np.zeros((3, sum(p.size for p in params)))
        self.t = 0
        splits = np.cumsum([p.size for p in params])[:-1]
        self._updates = [u.reshape(p.shape) for p, u in zip(params, np.split(self._update, splits))]

    def step(self, grads: list[np.ndarray], lr_scale: float = 1.0) -> bool:
        """Apply one update; return False, changing no parameter, when a moment
        leaves float range (no finite step exists; the moments are spent). Where
        ``v / bc2`` overflows (gradients near 1e154 in early steps), every root is
        ``sqrt(v) / sqrt(bc2)``, so the step stays finite. Gradients of another
        count or shape than the parameters raise ``ShapeMismatch``, changing nothing."""
        if [np.shape(g) for g in grads] != [p.shape for p in self.params]:
            raise ShapeMismatch(f"gradient shapes {[np.shape(g) for g in grads]} differ from the parameters'")
        self.t += 1
        lr = self.learning_rate * lr_scale
        bc1, bc2 = 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t
        flat = np.concatenate([np.ravel(g) for g in grads])
        with np.errstate(over="raise"):
            try:
                self.m *= ADAM_BETA1
                self.m += (1.0 - ADAM_BETA1) * flat
                self.v *= ADAM_BETA2
                self.v += (1.0 - ADAM_BETA2) * flat * flat
            except FloatingPointError:
                return False
            try:
                root = np.sqrt(self.v / bc2)
            except FloatingPointError:
                root = np.sqrt(self.v) / math.sqrt(bc2)
        np.divide(lr * (self.m / bc1), root + ADAM_EPSILON, out=self._update)
        for p, update in zip(self.params, self._updates):
            p -= update
            p -= lr * WEIGHT_DECAY * p
        return True


def clip_global_norm(grads: list[np.ndarray], max_norm: float):
    """Scale all gradients jointly so their global norm is <= max_norm;
    ``max_norm <= 0`` disables clipping. The per-array sums of squares are
    added left to right (the builtin ``sum`` compensates from Python 3.12,
    so the norm would depend on the version). When their sum overflows,
    the norm is taken from the gradients divided by their largest
    magnitude, so a finite norm past sqrt(max float) still clips."""
    with np.errstate(over="ignore"):
        total = float(np.sqrt(reduce(add, (float((g * g).sum()) for g in grads), 0.0)))
    if math.isinf(total):
        peak = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        if math.isfinite(peak):  # the squares overflowed, not the gradients
            scaled = (float(((g / peak) ** 2).sum()) for g in grads)
            total = peak * float(np.sqrt(reduce(add, scaled, 0.0)))
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


def train_run(
    data: list[EmbeddingBatch], encoders: list[Encoder], cfg: TrainConfig
) -> TrainingTrace:
    """Train the encoders on the configured loss; return the full trace.

    The inputs are checked once, before the first step, with the error
    classes ``ModalityRing`` and ``loss_gradient`` raise: one encoder per
    modality, taking that modality's input width (else ``ShapeMismatch``
    naming it), one embedding dimension, one n of at least 3 (one held-out
    row, two to train on), the same labels position by position, unique
    names, a loss kind defined for M modalities, and every row, training
    and held out, in ``row_norms`` range under its initial encoder.
    From then on the run works on arrays: each step stacks the encoder
    outputs and calls ``stack_loss_gradient``, which checks its row norms
    once, and each epoch's end checks the held-out stack with ``row_norms``
    and scores it as ``evaluate_directions`` does, by ``retrieval._evaluate``.
    Each epoch's parameters are scored once: every epoch but the last at
    P@1 / P@10, and the last (or the one that aborts) by the MAP pass of
    ``final_metrics``, whose P@1 and P@10 its record reads.

    Where ``heldout.child_cpus`` allows, a ``heldout.ScoringChild`` forked
    before the first epoch does the P@K scoring: each epoch's end sends it
    the encoder parameters and training goes on while it scores them; the
    results come back once, after the last epoch is sent. The held-out
    check stays here, so aborts are decided as without a child, and the
    trace is the same bytes. The child is reaped on every exit path,
    killed first when an exception leaves this call; a child that dies
    before its results are read raises ``ChildProcessError``.

    Rows are shuffled per epoch without replacement (seeded). A row out of
    range after that first check was sent there by a step, so either check
    that meets one aborts the run, returning the trace so far with
    ``aborted=True`` and a nan loss or nan metrics. A non-finite batch loss
    and an Adam step whose moments leave float range (the step is not
    applied) abort it too.
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
    with np.errstate(over="ignore", invalid="ignore"):  # row_norms rejects what overflows
        for enc, b in zip(encoders, data):
            row_norms(enc.forward(b.data), f"modality '{b.modality_name}' under its initial encoder")
    names = [b.modality_name for b in data]
    labels = data[0].labels
    rng = np.random.default_rng(cfg.seed)

    perm = rng.permutation(n)
    n_test = min(max(2, int(round(cfg.holdout_fraction * n))), n - 2)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    test_inputs = [b.data[test_idx] for b in data]
    test_labels = labels[test_idx]

    def embed(inputs: list[np.ndarray]) -> np.ndarray:
        # encoders that a step sent past float range give non-finite rows, which
        # the row_norms check that follows (here or in the engine) rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([enc.forward(x) for enc, x in zip(encoders, inputs)])

    def held_out_units() -> np.ndarray | None:
        """The unit held-out embeddings; None where a row is out of range."""
        stack = embed(test_inputs)
        try:
            return stack / row_norms(stack, "the held-out embeddings")
        except (NonFiniteSimilarity, ZeroNormRow):
            return None

    params = [p for enc in encoders for p in enc.parameters()]
    adam = Adam(params, cfg.learning_rate)

    def train_epoch(epoch: int) -> tuple[float, bool]:
        """One epoch's steps: their mean batch loss, and whether one aborted the run."""
        lr_scale = LR_DECAY_FACTOR ** (epoch // LR_DECAY_EVERY)
        order = train_idx[rng.permutation(train_idx.size)]
        batch_losses: list[float] = []  # never empty: the first batch holds 2 rows or more
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            inputs = [b.data[idx] for b in data]
            try:
                value, grads = stack_loss_gradient(
                    cfg.loss_kind, embed(inputs), labels[idx], names, cfg.strategy, cfg.temperature
                )
            except (NonFiniteSimilarity, ZeroNormRow):
                value = float("nan")  # the last step sent the embeddings out of range
            batch_losses.append(value)
            if not np.isfinite(value):
                return float(np.mean(batch_losses)), True
            param_grads: list[np.ndarray] = []
            for enc, x, grad_emb in zip(encoders, inputs, grads):
                param_grads.extend(enc.backward(x, grad_emb))
            clipped, _ = clip_global_norm(param_grads, cfg.grad_clip_norm)
            # parameters that this step sends past float range fail the next row-norm check
            with np.errstate(over="ignore", invalid="ignore"):
                if not adam.step(clipped, lr_scale):
                    # Adam's moments left float range: no finite step exists
                    return float(np.mean(batch_losses)), True
        return float(np.mean(batch_losses)), False

    pair_labels = [direction_label(q, g) for q, g in permutations(names, 2)]
    directions = sorted(pair_labels)
    covered = supervised_directions(names, cfg.loss_kind, cfg.strategy)
    supervised = {d: d in covered for d in directions}
    # every epoch but the last is scored at P@K, by a child where one pays
    cpus = child_cpus((cfg.max_epochs - 1) * n_test**2 * len(pair_labels))
    child = None if cpus is None else ScoringChild(
        params, lambda: _evaluate(held_out_units(), names, test_labels, False), cpus)

    losses: list[float] = []
    scored: list[dict[str, dict[str, float]]] = []
    with child or contextlib.nullcontext():
        for epoch in range(cfg.max_epochs):
            loss, aborted = train_epoch(epoch)
            losses.append(loss)
            units = held_out_units()
            if units is None or aborted or epoch == cfg.max_epochs - 1:
                break
            if child is None:
                scored.append(_evaluate(units, names, test_labels, False))
            else:
                child.submit()
        # the last epoch's P@1 and P@10 are read off the MAP pass, which equals the P@K pass
        if units is None:
            aborted = True  # a diverged run's embeddings have no ranking
            final_metrics = {d: dict.fromkeys(("p1", "p10", "map"), float("nan"))
                             for d in pair_labels}
        else:
            final_metrics = _evaluate(units, names, test_labels, True)
        if child is not None:
            scored = child.collect()
    scored.append({d: {"p1": m["p1"], "p10": m["p10"]} for d, m in final_metrics.items()})
    records = [EpochRecord(epoch, loss, bool(np.isfinite(loss)), metrics)
               for epoch, (loss, metrics) in enumerate(zip(losses, scored))]
    return TrainingTrace(records, aborted, directions, supervised, final_metrics)


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
