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

``train_run`` rebinds each encoder's weight and bias to views of one flat
float64 run buffer, so the clip and ``Adam`` act on one gradient buffer and
one parameter buffer, and the child is sent the latter as it is. A step
gathers its batch rows, runs the encoders and writes their parameter
gradients into buffers made once per run; what it allocates is the loss
engine's working set and the clip's squares.
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
from .losses import (LOSS_KINDS, MATCHING_KINDS, MatchStrategy, batch_supports, check_kind,
                     check_paired, direction_label, loss_groups)
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

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The embeddings of the rows of ``x``, written into ``out`` if one is given."""
        out = np.matmul(x, self.weight, out=out)
        out += self.bias
        return out

    def backward(
        self, x: np.ndarray, grad_out: np.ndarray, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray]:
        """Parameter gradients, in the order of :meth:`parameters`, at input ``x``;
        written into the two arrays of ``out`` if they are given."""
        weight, bias = out or (None, None)
        return [np.matmul(x.T, grad_out, out=weight), np.add.reduce(grad_out, axis=0, out=bias)]


class Adam:
    """Adam with bias correction and decoupled weight decay (``ADAM_*``, ``WEIGHT_DECAY``).

    ``params`` is one float64 array, updated in place: ``train_run`` passes its
    flat run buffer, which every encoder's weight and bias view. ``m``, ``v``
    and two scratch arrays of its shape are allocated here, so a step allocates
    no array. The decay term ``lr * wd * p`` is applied after the adaptive step.
    """

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.m, self.v, self._update, self._scratch = np.zeros((4,) + params.shape)
        self.t = 0

    def step(self, grad: np.ndarray, lr_scale: float = 1.0) -> bool:
        """Apply one update; return False, changing no parameter, when a moment
        leaves float range (no finite step exists; the moments are spent). Where
        ``v / bc2`` overflows (gradients near 1e154 in early steps), every root is
        ``sqrt(v) / sqrt(bc2)``, so the step stays finite. A gradient of another
        shape than the parameters raises ``ShapeMismatch``, changing nothing."""
        if np.shape(grad) != self.params.shape:
            raise ShapeMismatch(f"gradient shape {np.shape(grad)} differs from the "
                                f"parameters' {self.params.shape}")
        self.t += 1
        lr = self.learning_rate * lr_scale
        bc1, bc2 = 1.0 - ADAM_BETA1**self.t, 1.0 - ADAM_BETA2**self.t
        m, v, update, scratch = self.m, self.v, self._update, self._scratch
        with np.errstate(over="raise"):
            try:
                m *= ADAM_BETA1
                m += np.multiply(1.0 - ADAM_BETA1, grad, out=scratch)
                v *= ADAM_BETA2
                np.multiply(1.0 - ADAM_BETA2, grad, out=scratch)
                scratch *= grad
                v += scratch
            except FloatingPointError:
                return False
            try:
                np.sqrt(np.divide(v, bc2, out=scratch), out=scratch)
            except FloatingPointError:
                np.sqrt(v, out=scratch)
                scratch /= math.sqrt(bc2)
        scratch += ADAM_EPSILON  # the root becomes the denominator
        np.divide(m, bc1, out=update)
        update *= lr
        update /= scratch
        self.params -= update
        self.params -= np.multiply(lr * WEIGHT_DECAY, self.params, out=update)
        return True


def clip_global_norm(grads: list[np.ndarray], max_norm: float, flat: np.ndarray | None = None):
    """Scale all gradients jointly so their global norm is <= max_norm, and
    return them with that norm; ``max_norm <= 0`` disables clipping. The
    per-array sums of squares are added left to right (the builtin ``sum``
    compensates from Python 3.12, so the norm would depend on the version).
    When their sum overflows, the norm is taken from the gradients divided
    by their largest magnitude, so a finite norm past sqrt(max float) still
    clips.

    In the list form, a clip returns new arrays. With ``flat``, ``grads``
    are views of it that cover it in order (the trainer's flat gradient
    buffer): it is squared once, each array's sum read off its slice of the
    squares, and a clip scales it in place, under the caller's
    ``np.errstate`` (the list form ignores overflow itself)."""
    if flat is None:
        with np.errstate(over="ignore"):
            parts = [float((g * g).sum()) for g in grads]
    else:
        squares, parts, start = flat * flat, [], 0
        for g in grads:
            parts.append(float(squares[start : start + g.size].sum()))
            start += g.size
    total = float(np.sqrt(reduce(add, parts, 0.0)))
    if math.isinf(total):
        peak = max(float(np.abs(g).max(initial=0.0)) for g in grads)
        if math.isfinite(peak):  # the squares overflowed, not the gradients
            scaled = (float(((g / peak) ** 2).sum()) for g in grads)
            total = peak * float(np.sqrt(reduce(add, scaled, 0.0)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        if flat is None:
            grads = [g * scale for g in grads]
        else:
            flat *= scale
    return grads, total


def _views(flat: np.ndarray, encoders: list[Encoder]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of ``flat`` shaped as each encoder's (weight, bias), in order."""
    views, start = [], 0
    for enc in encoders:
        pair = []
        for p in enc.parameters():
            pair.append(flat[start : start + p.size].reshape(p.shape))
            start += p.size
        views.append(tuple(pair))
    return views


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
    From then on the run works on arrays: each step writes the encoder
    outputs into one (M, rows, d) stack and calls ``stack_loss_gradient``
    with the batch's support (``losses.batch_supports``, one sort per
    epoch), which checks its row norms once, and each epoch's end checks
    the held-out stack with ``row_norms`` and scores it as
    ``evaluate_directions`` does, by ``retrieval._evaluate``.

    The encoders' weights and biases are rebound to views of one flat
    float64 run buffer, which ``Adam`` steps in place; their gradients are
    views of another, which ``clip_global_norm`` squares once and scales in
    place. A step gathers its rows, runs the encoders and writes the
    gradients into buffers made once per run, under one ``np.errstate``
    for the forward and one for backward, clip and Adam; the loss engine
    allocates its own working set.
    Each epoch's parameters are scored once: every epoch but the last at
    P@1 / P@10, and the last (or the one that aborts) by the MAP pass of
    ``final_metrics``, whose P@1 and P@10 its record reads.

    Where ``heldout.child_cpus`` allows, a ``heldout.ScoringChild`` forked
    before the first epoch does the P@K scoring: each epoch's end sends it
    the parameter buffer and training goes on while it scores it; the
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

    # The run's buffers: the parameters, which the encoders are rebound to view, their
    # gradients, Adam's moments and scratch, one batch's input rows per modality, and
    # the encoder outputs, whose first M x rows x d entries are a step's (M, rows, d) stack.
    m, d, rows = len(data), encoders[0].weight.shape[1], min(cfg.batch_size, train_idx.size)
    params, grads = np.empty((2, sum(p.size for enc in encoders for p in enc.parameters())))
    param_views, grad_views = _views(params, encoders), _views(grads, encoders)
    for enc, (weight, bias) in zip(encoders, param_views):
        weight[...], bias[...] = enc.weight, enc.bias
        enc.weight, enc.bias = weight, bias
    grad_list = [g for pair in grad_views for g in pair]
    adam = Adam(params, cfg.learning_rate)
    batch_inputs = [np.empty((rows, b.d)) for b in data]
    outputs, test_stack = np.empty(m * rows * d), np.empty((m, n_test, d))
    matching = cfg.loss_kind in MATCHING_KINDS

    def held_out_units() -> np.ndarray | None:
        """The unit held-out embeddings; None where a row is out of range."""
        # encoders that a step sent past float range give non-finite rows, which
        # the row_norms check that follows (here or in the engine) rejects
        with np.errstate(over="ignore", invalid="ignore"):
            for enc, x, out in zip(encoders, test_inputs, test_stack):
                enc.forward(x, out)
        try:
            return test_stack / row_norms(test_stack, "the held-out embeddings")
        except (NonFiniteSimilarity, ZeroNormRow):
            return None

    def train_epoch(epoch: int) -> tuple[float, bool]:
        """One epoch's steps: their mean batch loss, and whether one aborted the run."""
        lr_scale = LR_DECAY_FACTOR ** (epoch // LR_DECAY_EVERY)
        order = train_idx[rng.permutation(train_idx.size)]
        starts = range(0, order.size, cfg.batch_size)
        # the label-free kinds read no support
        supports = (batch_supports(labels[order], cfg.batch_size) if matching
                    else [None] * len(starts))
        batch_losses: list[float] = []  # never empty: the first batch holds 2 rows or more
        for start, support in zip(starts, supports):
            idx = order[start : start + cfg.batch_size]
            if idx.size < 2:
                continue
            # mode="clip" (every index is in range) lets take write to out unbuffered
            inputs = [b.data.take(idx, axis=0, out=x[: idx.size], mode="clip")
                      for b, x in zip(data, batch_inputs)]
            stack = outputs[: m * idx.size * d].reshape(m, idx.size, d)
            with np.errstate(over="ignore", invalid="ignore"):  # as in held_out_units
                for enc, x, out in zip(encoders, inputs, stack):
                    enc.forward(x, out)
            try:
                value, emb_grads = stack_loss_gradient(
                    cfg.loss_kind, stack, support, names, cfg.strategy, cfg.temperature)
            except (NonFiniteSimilarity, ZeroNormRow):
                value = float("nan")  # the last step sent the embeddings out of range
            batch_losses.append(value)
            if not np.isfinite(value):
                return float(np.mean(batch_losses)), True
            # parameters that this step sends past float range fail the next row-norm check
            with np.errstate(over="ignore", invalid="ignore"):
                for enc, x, grad_emb, out in zip(encoders, inputs, emb_grads, grad_views):
                    enc.backward(x, grad_emb, out)
                clip_global_norm(grad_list, cfg.grad_clip_norm, grads)
                if not adam.step(grads, lr_scale):
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
