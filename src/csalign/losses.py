"""Batch-level alignment losses, computed from the logits by one engine.

Two families live here:

* ``bimodal_cmpm_cs``: projection matching for a modality pair. Each
  anchor's association PMF is pulled toward its true-match PMF with the
  CS divergence, averaged over the batch and summed over both
  directions.
* ``gcs_ring_loss``: the M-modality generalization. Modalities are
  arranged on a ring; the clockwise pass projects each modality onto
  its successor, the counterclockwise pass onto its predecessor, and
  each anchor's projection PMFs are aligned *jointly* with the
  true-match PMF through one GCS call per direction of travel (so each
  call sees M+1 distributions and the norm exponent is M+1). The mixed
  strategy sums both passes; the unidirectional strategies keep one.

``pairwise_sum_loss`` is the exhaustive baseline the ring construction
replaces: one directional projection-matching loss per ordered modality
pair, M(M-1) in total versus 2M for the mixed ring.

All of them are thin calls into ``stack_matching_loss``, on the
arguments ``ModalityRing.engine_args`` gives once ``check_kind`` accepts
the kind and tau for the ring's M. ``gradients.loss_gradient`` takes the
same arguments to ``stack_loss_gradient``, which the trainer calls too:
the engine for a kind with edges, the kind's kernel for MMD and CORAL,
which have none. The engine checks the stack's row norms with
``pmf.row_norms`` (an overflowing or zero-norm row raises), evaluates
every pass from its logit matrices ``z_m = cos_m / tau`` in the log
domain and returns the per-sample and per-direction breakdown together
with the embedding gradients. The forward losses here, and the
finite-difference closure in ``gradients``, discard the gradients, so
they ask for values only (``grad=False``): the same report bit for bit,
with no gradient step taken. ``loss_gradient`` and the trainer take the
gradient path. CS and GCS are scale invariant, so the softmax
normalisers cancel and the association PMFs are never formed. For one
pass with M logit matrices (one per edge) and ``c_i`` same-label items
in row i, the GCS of the M projections plus the true-match PMF (exponent
M+1) is

    l_i = (sum_m lse((M+1) z_m,i) + log c_i) / (M+1)
          - lse_{k: y_k = y_i} (sum_m z_m,ik)

with gradient ``dl_i / dz_m,i = softmax((M+1) z_m,i) - w_i``, where
``w_i`` is the softmax of ``sum_m z_m,i`` restricted to row i's label
support and is shared by every edge of the pass. CS is the M = 1 case
(exponent 2): ``bimodal_cs`` and ``pairwise_cs`` are passes with one
edge.

``LOSS_TABLE`` is the one place where a loss kind is described, and
``loss_groups`` turns its edge layout into groups of edges. Every pass
has a reverse over the same matrices transposed (the ring's backward
edges are its forward edges reversed; pair (d, s) is (s, d) reversed),
so the engine evaluates each group, the ring's M edges or a pair's one,
once: one product per edge, each on views of the unit rows. The kind's
kernel, ``gcs_logit_rows`` (CS, GCS) or ``kl_logit_rows``, reads the
group's matrices on the batch's ``label_support`` by rows for one pass
and by columns for the other, gathering and scattering by its pairs'
flat positions; a ``ModalityRing`` builds that support once and the
trainer once per step. A ``powered`` kind (CS, GCS) has the transposed
unit rows scaled by k / tau, k = M + 1 for a group of M edges, so the
product gives ``k z_m`` and the kernel makes no pass of its own to
shift or scale. GCS then takes one exponential per matrix at
every tau: of ``k z`` as it comes up to ``STATIC_SHIFT_LIMIT``, with
the constant shift taken off the log-sums; past it, after one
subtraction of k / tau, floored, with own shifts for the anchors that
need them. Its row and column sums are BLAS products with a ones
vector, and the gradient's ``1/rowsum_i + 1/colsum_j`` is one rank-2
product. KL takes one exponential per reading against one symmetric log
target per call. ``divergence`` is the independent value oracle.

On the gradient path the engine's working set is the (M, n, d) stack,
its unit rows, their scaled transpose, one gradient array, one logit
buffer (M x n x n for the ring, n x n per pair) and one n x n scratch
that every group's kernel reuses, plus the GCS kernel's two rank-2
operands (n x 2 and 2 x n) and the label-support temporaries. Every
group runs edge by edge, forward and backward, so no modality's rows are
gathered. The buffer and the scratch are dropped before the epilogue,
which scales the gradient array in place through one (M, n, d) scratch
array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from itertools import permutations
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .divergence import KlConfig, coral_terms, mmd_kernels
from .errors import ConfigError, ShapeMismatch, TooFewDistributions
from .pmf import AlignConfig, EmbeddingBatch, row_norms

# Normalised association PMFs (one per edge of each pass) evaluated by
# ``matching_loss`` since import; complexity benchmarks and the
# direction-count invariant read deltas of this counter.
_ASSOCIATION_PMF_COUNT = 0


def association_pmf_count() -> int:
    """Return the number of association PMFs evaluated since import.

    ``matching_loss`` adds one per edge of every pass it evaluates, on the
    forward losses and on ``loss_gradient`` alike: 2M for the mixed ring
    and M(M-1) for the pairwise sum. A logit matrix read by rows and by
    columns is two normalised PMFs, so this counts the PMFs, not the
    matrices (M and M(M-1)/2).
    """
    return _ASSOCIATION_PMF_COUNT


def check_kind(loss_kind: str, m: int, tau: float) -> None:
    """Reject an unknown loss kind, fewer than two modalities, a kind not defined for M, or
    a tau below 4 M (M + 1) / DBL_MAX, where the ring's shifted log-sum-exps (down to
    -2 M (M + 1) / tau) could overflow: from it on, every loss reads a finite value or +inf,
    never nan or -inf."""
    if loss_kind not in LOSS_TABLE:
        raise ConfigError(f"unknown loss kind {loss_kind!r}; expected one of {LOSS_KINDS}")
    if m < 2:
        raise ConfigError(f"loss kind {loss_kind!r} needs M >= 2 modalities, got M = {m}")
    if LOSS_TABLE[loss_kind].two_modalities and m != 2:
        raise ConfigError(f"loss kind {loss_kind!r} is defined for exactly two modalities")
    if tau < 4 * m * (m + 1) / np.finfo(float).max:
        raise ConfigError(f"temperature must be >= 4 M (M + 1) / DBL_MAX at M = {m}, got {tau!r}")


class MatchStrategy(Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    MIXED = "mixed"


def check_paired(batches: Sequence[EmbeddingBatch]) -> None:
    """Check that M >= 2 batches share n and labels position by position (row i of
    every modality is the same instance), and have unique names that give each ordered
    pair its own ``direction_label`` (``A2`` -> ``B`` and ``A`` -> ``2B`` would share
    ``A22B``). The CLI's names (``A`` ... ``Z``, then ``mod26``, ...) never collide."""
    if len(batches) < 2:
        raise TooFewDistributions(f"a ring needs M >= 2 modalities, got {len(batches)}")
    first = batches[0]
    for b in batches[1:]:
        if b.n != first.n:
            raise ShapeMismatch(f"all modalities must share n; got {b.n} vs {first.n}")
        if not np.array_equal(b.labels, first.labels):
            raise ShapeMismatch("modalities must carry identical labels position-wise")
    names = [b.modality_name for b in batches]
    if len(set(names)) != len(names):  # two directions would share one label
        raise ConfigError(f"modality names must be unique, got {names}")
    seen: dict[str, tuple[str, str]] = {}
    for pair in permutations(names, 2):
        label = direction_label(*pair)
        if seen.setdefault(label, pair) != pair:
            raise ConfigError(f"modality pairs {seen[label]} and {pair} share the direction "
                              f"label {label!r}")


@dataclass(frozen=True)
class ModalityRing:
    """Ordered cycle of M paired modality batches.

    All batches must agree in n and d and carry identical labels
    position-wise (row i of every modality is the same instance).
    ``strategy`` must be a ``MatchStrategy``.
    """

    batches: tuple[EmbeddingBatch, ...]
    strategy: MatchStrategy = MatchStrategy.MIXED

    def __post_init__(self) -> None:
        batches = tuple(self.batches)
        check_paired(batches)
        ring_passes(self.strategy)  # raises ConfigError unless a MatchStrategy
        if len({b.d for b in batches}) != 1:
            raise ShapeMismatch(f"all ring batches must share d, got {[b.d for b in batches]}")
        object.__setattr__(self, "batches", batches)

    @property
    def m(self) -> int:
        return len(self.batches)

    def engine_args(
        self, kind: str, cfg: AlignConfig | None = None
    ) -> tuple[np.ndarray, LabelSupport | None, list[str], MatchStrategy, float]:
        """The arguments ``stack_loss_gradient`` and ``stack_matching_loss`` take after
        ``kind``, once ``check_kind`` accepts ``kind`` and ``cfg``'s tau (the default
        ``AlignConfig``'s if None) for this ring: the (M, n, d) stack, the ring's
        ``support`` (None for a kind without edges, which reads none), the names,
        the strategy and tau. The stack is built per call, as ``EmbeddingBatch.data``
        may alias an array its caller changes; the labels are read-only copies."""
        tau = (cfg or AlignConfig()).temperature
        check_kind(kind, self.m, tau)
        support = None if LOSS_TABLE[kind].edges is None else self.support
        names = [b.modality_name for b in self.batches]
        return np.stack([b.data for b in self.batches]), support, names, self.strategy, tau

    @property
    def n(self) -> int:
        return self.batches[0].n

    @property
    def labels(self) -> np.ndarray:
        return self.batches[0].labels

    @cached_property
    def support(self) -> LabelSupport:
        """The labels' ``label_support``, built on first use and kept, read-only."""
        support = label_support(self.labels)
        for array in support:
            array.setflags(write=False)
        return support


@dataclass(frozen=True)
class LossReport:
    """Scalar loss with its per-sample and per-direction breakdown."""

    total: float
    per_direction: dict[str, float]
    per_sample: np.ndarray = field(repr=False)
    finite: bool = True


def direction_label(src: str, dst: str) -> str:
    """The name of the pass, or retrieval direction, from modality ``src`` to ``dst``."""
    return f"{src}2{dst}"


def ring_edges(m: int, direction: str) -> list[tuple[int, int]]:
    """Index pairs (src, dst) for one pass around an M-ring.

    ``"forward"`` walks 0 -> 1 -> ... -> M-1 -> 0. ``"backward"``
    reverses every edge, walking 1 -> 0 -> M-1 -> ... -> 1, so the two
    passes together cover both orientations of each ring edge.
    """
    if direction == "forward":
        return [(i, (i + 1) % m) for i in range(m)]
    if direction == "backward":
        path = [(1 - step) % m for step in range(m + 1)]
        return list(zip(path[:-1], path[1:]))
    raise ConfigError(f"direction must be 'forward' or 'backward', got {direction!r}")


def ring_passes(strategy: MatchStrategy) -> list[str]:
    """Ring passes a matching strategy sums, as ``ring_edges`` directions."""
    if not isinstance(strategy, MatchStrategy):
        raise ConfigError(f"strategy must be a MatchStrategy, got {strategy!r}")
    return {
        MatchStrategy.CLOCKWISE: ["forward"],
        MatchStrategy.COUNTERCLOCKWISE: ["backward"],
        MatchStrategy.MIXED: ["forward", "backward"],
    }[strategy]


# ---------------------------------------------------------------------------
# the engine: per-group kernels on the logits

# Largest 2k/tau at which GCS exponentiates k z as it comes. No cosine leaves [-1, 1], so
# every term exp(k z) is then a normal float within exp(+-STATIC_SHIFT_LIMIT / 2), and
# against the static shift exp(k/tau), taken off the log-sums, every anchor's largest term
# is at least exp(-STATIC_SHIFT_LIMIT). Past it, k/tau is subtracted first; the floor
# EXP_FLOOR adds at most n e^-100 to such a sum, and keeps e^EXP_FLOOR / n normal.
STATIC_SHIFT_LIMIT = 580.0
EXP_FLOOR = -680.0


class LabelSupport(NamedTuple):
    """The entries where a batch's true-match PMF is non-zero, row-major.

    ``rows`` / ``pairs`` hold the row i and the flat position ``i n + k``
    of each same-label pair (i, k); ``starts[i]`` is the position of row i's
    first pair; ``log_counts[i]`` is ``log c_i``, the log of row i's same-label
    count. Every row has a pair, itself. ``transpose[p]`` is the position of
    pair (k, i) when pair p is (i, k).
    """

    rows: np.ndarray
    pairs: np.ndarray
    starts: np.ndarray
    log_counts: np.ndarray
    transpose: np.ndarray


def label_support(labels: np.ndarray) -> LabelSupport:
    """The same-label pairs of a batch with the given n >= 1 row labels.

    Built from one stable sort of the rows by label, so row i's pairs list
    its class members in ascending index order without an n x n comparison.
    """
    n = labels.size
    index = np.arange(n)
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    first = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    class_start = np.flatnonzero(first)
    sorted_class = np.cumsum(first) - 1
    cls = np.empty(n, dtype=np.intp)
    cls[order] = sorted_class
    counts = np.bincount(sorted_class)[cls]
    rank = np.empty(n, dtype=np.intp)
    rank[order] = index - class_start[sorted_class]
    starts = np.cumsum(counts) - counts
    rows = np.repeat(index, counts)
    # pair (i, k) lists k from row i's class's run of the sort, at class_start[cls[i]]
    pairs = order[np.repeat(class_start[cls] - starts, counts) + np.arange(rows.size)]
    transpose = starts[pairs] + rank[rows]
    pairs += n * rows  # column k to the flat position i n + k
    return LabelSupport(rows, pairs, starts, np.log(counts), transpose)


def _softmax(z: np.ndarray, axis: int, floor=None) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(z)`` and ``lse(z)`` along ``axis``, shifted by the maxima, with no
    exponent below ``floor`` if one is given; the lse comes from the sums, not the softmax."""
    shift = z.max(axis=axis, keepdims=True)
    e = z - shift
    if floor is not None:
        np.maximum(e, floor, out=e)
    np.exp(e, out=e)
    sums = e.sum(axis=axis, keepdims=True)
    e /= sums
    return e, shift + np.log(sums)


def gcs_logit_rows(
    logits: np.ndarray,
    support: LabelSupport,
    tau: float,
    rows: bool = True,
    cols: bool = True,
    grad: bool = True,
    scratch: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Per-anchor GCS of a group's passes and the gradient of their sum.

    ``logits`` is the M x n x n stack of a group's logit matrices
    ``z_m = cos_m / tau``, each times the power k = M + 1, that is
    ``k z_m``; ``support`` describes the true-match PMF. Read by rows, the
    stack is one pass (anchor i is row i of every ``z_m``); read by
    columns, it is the pass over the same edges reversed (anchor i is
    column i, that is row i of ``z_m^T``). ``rows`` / ``cols`` select the
    readings. Returns the n per-anchor divergences of each selected
    reading, rows first, and the M x n x n stack of the derivative of
    their sum with respect to ``z_m``, written over ``logits``; with
    ``grad`` False, ``None`` in its place, and no step that only the
    gradient needs is taken (the values are the same bits either way).
    ``scratch`` is an n x n array the gradient may overwrite (a new one
    if None), so that one serves every group of an engine call.

    One exponential per matrix, ``E = exp(k z)`` up to a constant shift,
    serves both readings at every temperature: row sums normalise one and
    column sums the other, and the gradient is ``E / rowsum + E / colsum
    - (w + w_rev^T)`` on the same-label pairs, where ``w`` is the softmax
    of ``sum_m z_m`` over each anchor's same-label pairs (``w_rev`` that
    of the reverse reading), evaluated on those pairs only. The row and
    column sums are two BLAS products with a ones vector, and
    ``1/rowsum_i + 1/colsum_j`` is the rank-2 product ``[1/r, 1] @ [1;
    1/c]`` (zeros for the sums of a reading not taken), written into ``scratch``
    and multiplied into E: per matrix, that is the exponential, two
    matrix-vector products, the rank-2 product, one multiply and the
    same-label scatter. No cosine exceeds 1, so every term of ``k z`` lies
    in ``[-k/tau, k/tau]``. Up to ``2k / tau = STATIC_SHIFT_LIMIT``
    (decided from k and tau alone) E is ``exp(k z)`` as it comes, and the
    shift ``k/tau`` of each of the M matrices comes off the log-sums.
    Past it, ``k/tau`` is subtracted first, the exponents of E and ``w``
    are floored at ``EXP_FLOOR``, ``w`` is also shifted by each anchor's
    maximum, and an anchor whose largest term is below
    ``exp(-STATIC_SHIFT_LIMIT)`` takes the ``_softmax`` of a copy of its
    terms for its ``log(rowsum)`` and ``E / rowsum``. So every value is a
    max-subtracted softmax's, finite wherever the divergence is.
    """
    m, n = logits.shape[:2]
    k = m + 1
    joint = np.take(logits.reshape(m, n * n), support.pairs, axis=1).sum(axis=0) / k
    static = 2 * k / tau <= STATIC_SHIFT_LIMIT
    # anchor i of a reading is row i of z (axis 1: the pass) or of z.T (axis 0:
    # the reverse pass); ``order`` lists the pairs grouped by their anchor
    readings = [(axis, order) for axis, order, wanted in (
        (1, slice(None), rows), (0, support.transpose, cols)) if wanted]
    w_lse, w_pairs = [], 0.0
    for axis, order in readings:
        # the values' frame: the static shifts, m/tau here and k/tau per matrix below, cancel
        w = joint[order] - m / tau
        top = 0.0 if static else np.maximum.reduceat(w, support.starts)
        w = np.exp(w if static else np.maximum(w - top[support.rows], EXP_FLOOR))
        total = np.add.reduceat(w, support.starts)
        if grad:
            w /= total[support.rows]
            w_pairs = w_pairs + w[order]
        w_lse.append(top + np.log(total))
    power_lse = [support.log_counts - (m * k / tau if static else 0.0) for _ in readings]
    ones = np.ones(n)
    if grad:
        # the rank-2 operands: a reading's reciprocal sums go in place of its zeros
        left, right = np.zeros((n, 2)), np.zeros((2, n))
        left[:, 1] = right[0] = 1.0
        scratch = np.empty((n, n)) if scratch is None else scratch
    for z in logits:
        if not static:
            z -= k / tau
        # past the limit, an anchor with all terms below exp(-STATIC_SHIFT_LIMIT) is shifted alone
        anchors = [z if axis else z.T for axis, _ in readings]
        low = [np.flatnonzero(a.max(axis=1) < -STATIC_SHIFT_LIMIT) for a in anchors if not static]
        own = [_softmax(a[i], 1, EXP_FLOOR) for a, i in zip(anchors, low)]
        np.exp(z if static else np.maximum(z, EXP_FLOOR, out=z), out=z)
        sums = [z @ ones if axis else ones @ z for axis, _ in readings]
        log_sums = [np.log(reading_sums) for reading_sums in sums]
        for reading_sums, log_sum, i, (_, own_lse) in zip(sums, log_sums, low, own):
            log_sum[i] = own_lse.reshape(-1)
            reading_sums[i] = np.inf  # 1 / sum = 0: the own softmax takes over
        for lse, log_sum in zip(power_lse, log_sums):
            lse += log_sum
        if grad:
            # E / rowsum + E / colsum, plus the own-shifted anchors' softmaxes
            for (axis, _), reading_sums in zip(readings, sums):
                np.divide(1.0, reading_sums, out=left[:, 0] if axis else right[1])
            z *= np.matmul(left, right, out=scratch)
            for a, i, (p, _) in zip(anchors, low, own):
                a[i] += p
            z.reshape(n * n)[support.pairs] -= w_pairs
    values = [lse / k - joint_lse for lse, joint_lse in zip(power_lse, w_lse)]
    return values, logits if grad else None


def kl_log_target(support: LabelSupport) -> np.ndarray:
    """``log(q + KlConfig().epsilon)`` of the true-match PMF q, from its support."""
    eps, n = KlConfig().epsilon, support.starts.size
    log_q = np.full((n, n), np.log(eps))
    q = 1.0 / np.bincount(support.rows, minlength=n)
    log_q.reshape(n * n)[support.pairs] = np.log(q + eps)[support.rows]
    return log_q


def kl_logit_rows(
    logits: np.ndarray,
    log_q: np.ndarray,
    tau: float,
    rows: bool = True,
    cols: bool = True,
    grad: bool = True,
    scratch: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """``gcs_logit_rows`` for the smoothed KL (``tau`` and ``scratch`` unused), on the
    logits ``z_m`` as they are: each reading's n values
    ``sum_m KL(p || q_i)``, p the softmax of row (or column) i of ``z_m``, and the summed
    gradient ``p (log p - log q - KL)`` as a new array (``None`` with ``grad`` False).
    ``log_q`` is ``kl_log_target`` of the batch's support, symmetric, so one array serves
    every reading and group. One exponential per reading."""
    values, grads = [], None
    for axis in [axis for axis, wanted in ((2, rows), (1, cols)) if wanted]:
        p, lse = _softmax(logits, axis)
        diff = logits - lse
        diff -= log_q
        kl = (p * diff).sum(axis=axis, keepdims=True)
        values.append(kl.sum(axis=0).reshape(-1))
        if grad:
            diff -= kl
            diff *= p
            grads = diff if grads is None else np.add(diff, grads, out=diff)
    return values, grads


def mmd_gradient(x: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """The ``mmd`` kernel: ``divergence.mmd_squared`` of two samples at the
    median-heuristic bandwidth, which is held constant, and its gradients
    ``[g_x, g_y]``; the value, bandwidth and kernel blocks come from one
    ``divergence.mmd_kernels`` call, so each pairwise distance is computed once."""
    value, sigma, (k_xx, k_yy, k_xy) = mmd_kernels(x, y)
    n_x, n_y = x.shape[0], y.shape[0]
    coef = 2.0 / (sigma * sigma)
    t_xx = k_xx.sum(axis=1, keepdims=True) * x - k_xx @ x
    t_xy = k_xy.sum(axis=1, keepdims=True) * x - k_xy @ y
    g_x = -coef * (t_xx / n_x**2 - t_xy / (n_x * n_y))
    t_yy = k_yy.sum(axis=1, keepdims=True) * y - k_yy @ y
    t_yx = k_xy.sum(axis=0)[:, None] * y - k_xy.T @ x
    g_y = -coef * (t_yy / n_y**2 - t_yx / (n_x * n_y))
    return value, [g_x, g_y]


def coral_gradient(x: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """The ``coral`` kernel: ``divergence.coral_loss``'s value and its gradients
    ``[g_x, g_y]``, both from one ``divergence.coral_terms`` call."""
    value, xc, yc, diff = coral_terms(x, y)
    d = x.shape[1]
    # columns of xc @ diff have zero mean, so recentring is a no-op
    g_x = xc @ diff / ((x.shape[0] - 1) * d * d)
    g_y = -yc @ diff / ((y.shape[0] - 1) * d * d)
    return value, [g_x, g_y]


class LossKind(NamedTuple):
    """A row of ``LOSS_TABLE``: the kind's edge layout (``"ring"``, ``"pairs"``, or None:
    no edges, no label), its kernel (with edges, a group's logits and true-match argument
    to per-anchor values and logit gradients; without, the two samples to the value and
    their gradients), the builder of the kernel's true-match argument from the
    ``label_support`` (None: the support itself), whether M must be 2 and whether the
    kernel reads each logit matrix times its power k, the edges of a group plus one."""

    edges: str | None
    kernel: Callable
    target: Callable | None
    two_modalities: bool
    powered: bool = False


# the one place where a loss kind is described
LOSS_TABLE: dict[str, LossKind] = {
    "bimodal_cs": LossKind("pairs", gcs_logit_rows, None, two_modalities=True, powered=True),
    "gcs_ring": LossKind("ring", gcs_logit_rows, None, two_modalities=False, powered=True),
    "pairwise_cs": LossKind("pairs", gcs_logit_rows, None, two_modalities=False, powered=True),
    "kl": LossKind("pairs", kl_logit_rows, kl_log_target, two_modalities=False),
    "mmd": LossKind(None, mmd_gradient, None, two_modalities=True),
    "coral": LossKind(None, coral_gradient, None, two_modalities=True),
}
LOSS_KINDS = tuple(LOSS_TABLE)
MATCHING_KINDS = tuple(kind for kind, row in LOSS_TABLE.items() if row.edges is not None)


def loss_groups(kind: str, names: Sequence[str], strategy: MatchStrategy) -> tuple:
    """The passes ``kind`` sums over ``names``, in summation order, each with its edges
    (src, dst), and the groups of edges that evaluate them, as ``(edges, rows, cols)``:
    read by rows, a group's matrices are the pass ``rows``, by columns the pass ``cols``
    over the same edges reversed. Pair passes are keyed by direction label, source-major.
    Built once per kind, names and strategy in a process and shared by every caller, so
    both are read-only: a mapping proxy of tuples and a tuple."""
    return _loss_groups(kind, tuple(names), strategy)


@cache
def _loss_groups(kind: str, names: tuple[str, ...], strategy: MatchStrategy) -> tuple:
    layout, m = LOSS_TABLE[kind].edges, len(names)
    passes, groups = {}, ()
    if layout == "ring":
        passes = {name: tuple(ring_edges(m, name)) for name in ring_passes(strategy)}
        groups = ((tuple(ring_edges(m, "forward")), "forward", "backward"),)
    if layout == "pairs":
        label = lambda s, d: direction_label(names[s], names[d])
        passes = {label(s, d): ((s, d),) for s in range(m) for d in range(m) if s != d}
        groups = tuple((((s, d),), label(s, d), label(d, s))
                       for s in range(m) for d in range(s + 1, m))
    return MappingProxyType(passes), groups


def matching_loss(
    kind: str, ring: ModalityRing, cfg: AlignConfig | None = None, *, grad: bool = True
) -> tuple[LossReport, list[np.ndarray] | None]:
    """Projection-matching loss of one kind, with its embedding gradients.

    ``kind`` is one of ``MATCHING_KINDS``, checked against the ring's M
    by ``check_kind``; it sums the passes ``loss_groups`` gives it, keyed
    by pass name (``kl`` smoothed by ``KlConfig().epsilon``). ``total`` is
    the sum of the per-pass batch means in that order, ``per_direction``
    holds those means and ``per_sample`` the per-row sums over passes.
    The gradients are one n x d matrix per ring modality, index-aligned
    with ``ring.batches``; with ``grad`` False they are not computed and
    ``None`` comes in their place, next to the same report bit for bit.

    The ring validates the input; ``stack_matching_loss`` does the work.
    """
    return stack_matching_loss(kind, *ring.engine_args(kind, cfg), grad=grad)


def stack_loss_gradient(
    kind: str,
    stack: np.ndarray,
    support: LabelSupport | None,
    names: Sequence[str],
    strategy: MatchStrategy,
    tau: float,
) -> tuple[float, list[np.ndarray]]:
    """``gradients.loss_gradient`` on the arguments of ``stack_matching_loss``: the
    value and one n x d gradient per modality. A kind with edges returns the engine's
    total and gradients; one without reads no ``support`` (it may be None) and returns
    its kernel's on the two modalities. The stack's row norms are checked once per
    call (``row_norms``): by the engine, or here for a kind without edges."""
    spec = LOSS_TABLE.get(kind)
    if spec is not None and spec.edges is None:
        row_norms(stack, "the embeddings")
        return spec.kernel(stack[0], stack[1])
    report, grads = stack_matching_loss(kind, stack, support, names, strategy, tau)
    return report.total, grads


def stack_matching_loss(
    kind: str,
    stack: np.ndarray,
    support: LabelSupport,
    names: Sequence[str],
    strategy: MatchStrategy,
    tau: float,
    *,
    grad: bool = True,
) -> tuple[LossReport, list[np.ndarray] | None]:
    """``matching_loss`` on unchecked arrays: the (M, n, d) ``stack``, the
    ``label_support`` of the n labels all modalities share and M unique
    ``names`` (for the direction labels). The stack's row norms are checked
    here, by ``row_norms``.

    The passes come in the groups of ``loss_groups``, each evaluated once
    by the kind's kernel: edge (s, d) has the matrix ``z = U_s U_d^T /
    tau``, read by rows for one pass and by columns for the other; for a
    ``powered`` kind, ``k z`` with k the edges of a group plus one, from
    the transposed unit rows scaled by k / tau. Each
    group costs one matmul per edge, one kernel call and, with ``grad``,
    one pair of matmuls per edge back to the embeddings, all on views, so
    no modality's rows are gathered; without ``grad``, the kernel returns
    values only and no gradient is formed.

    Working set with ``grad``: the stack, ``units``, ``scaled_t``,
    ``g_units`` (each M x n x d), the logit buffer, which the kernel
    spends in place for its gradient, and one n x n scratch, which every
    group's kernel may overwrite. Both are dropped once the
    last group's backward is done; the radial projection, ``1/(n tau)``
    and ``/norms`` then act in place on ``g_units`` through one M x n x d
    scratch array, and the returned gradients are views of ``g_units``,
    fresh per call.
    """
    global _ASSOCIATION_PMF_COUNT
    if kind not in MATCHING_KINDS:
        raise ConfigError(f"unknown matching loss {kind!r}; expected one of {MATCHING_KINDS}")
    n = stack.shape[1]
    order, groups = loss_groups(kind, names, strategy)
    spec = LOSS_TABLE[kind]
    target = support if spec.target is None else spec.target(support)

    norms = row_norms(stack, "the embeddings")
    units = stack / norms
    edge_count = len(groups[0][0])
    # a powered kernel reads k z, k = edges + 1: the product gives it, with no pass of its own
    scaled_t = units.transpose(0, 2, 1) / (tau / (edge_count + 1) if spec.powered else tau)
    g_units = np.zeros_like(units) if grad else None
    # one logit buffer per call, a matrix per edge of a group, which the kernel may
    # spend, and one n x n scratch for the kernel's gradient
    buffer = np.empty((edge_count, n, n))
    scratch = np.empty((n, n)) if grad else None
    values: dict[str, np.ndarray] = {}
    for edges, row_name, col_name in groups:
        passes = [name for name in (row_name, col_name) if name in order]
        for i, (s, d) in enumerate(edges):
            np.matmul(units[s], scaled_t[d], out=buffer[i])
        group_values, grads = spec.kernel(
            buffer, target, tau, row_name in order, col_name in order, grad, scratch)
        values.update(zip(passes, group_values))
        _ASSOCIATION_PMF_COUNT += len(edges) * len(passes)
        if grad:
            for i, (s, d) in enumerate(edges):
                g_units[s] += grads[i] @ units[d]
                g_units[d] += grads[i].T @ units[s]
    # the logit stack is spent: drop it before the epilogue
    del buffer, scratch, grads
    total = 0.0
    per_sample = np.zeros(n)
    per_direction: dict[str, float] = {}
    for name in order:
        per_direction[name] = float(values[name].mean())
        total += per_direction[name]
        per_sample += values[name]
    # a non-finite pass mean makes the total non-finite as well
    finite = bool(np.isfinite(total) and np.all(np.isfinite(per_sample)))
    report = LossReport(total, per_direction, per_sample, finite)
    if not grad:
        return report, None
    # the batch mean and dz/dcos = 1/tau scale every logit gradient alike;
    # d(a/||a||)/da removes the radial component and divides by the norm
    radial = g_units * units
    np.multiply(radial.sum(axis=2, keepdims=True), units, out=radial)
    g_units -= radial
    g_units *= 1.0 / (n * tau)
    g_units /= norms
    return report, list(g_units)


# ---------------------------------------------------------------------------
# forward losses

def bimodal_cmpm_cs(
    a: EmbeddingBatch, b: EmbeddingBatch, cfg: AlignConfig | None = None
) -> LossReport:
    """Bidirectional projection-matching loss for a modality pair.

    Per direction, the loss is the batch mean of the CS divergence
    between each anchor's association PMF and its true-match PMF; the
    total sums both directions. Non-finite values are flagged in the
    report, never raised.
    """
    return matching_loss("bimodal_cs", ModalityRing((a, b)), cfg, grad=False)[0]


def gcs_ring_loss(ring: ModalityRing, cfg: AlignConfig | None = None) -> LossReport:
    """Circular multi-modal alignment loss.

    For each included pass (clockwise and/or counterclockwise per the
    ring's strategy) and each anchor i, one GCS divergence is taken
    over the M projection PMFs of that pass plus the true-match PMF --
    M+1 distributions, norm exponent M+1. The total is the batch mean
    of the per-anchor sums; ``per_direction`` holds the forward and
    backward components.
    """
    return matching_loss("gcs_ring", ring, cfg, grad=False)[0]


def pairwise_sum_loss(ring: ModalityRing, cfg: AlignConfig | None = None) -> LossReport:
    """Exhaustive pairwise baseline: one directional projection-matching
    CS loss per ordered modality pair, summed over all M(M-1) pairs.
    ``matching_loss("kl", ring)`` is the same sum with the smoothed KL
    divergence per row.
    """
    return matching_loss("pairwise_cs", ring, cfg, grad=False)[0]
