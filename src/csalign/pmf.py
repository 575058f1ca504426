"""Embedding batches, the row-norm rule and the softmax temperature.

An anchor's *association* PMF is the row softmax of its cosine
similarities over the other modality's batch at ``temperature``; its
*true-match* PMF is its label-match indicator normalized over the row.
The alignment losses (``losses.stack_matching_loss``) evaluate their
divergences straight from the logits ``cos / temperature`` and the
labels, so neither PMF is ever built as a matrix.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteSimilarity, NotAPmf, ShapeMismatch, ZeroNormRow

# Rows with Euclidean norm below this are rejected (see ``row_norms``).
MIN_ROW_NORM = 1e-30
# Entries (256 KiB of float64) in one chunk of a loop that bounds its
# temporaries: whole rows, as many as fit (``chunk_rows``). No value
# depends on it.
CHUNK_ENTRIES = 1 << 15


def chunk_rows(width: int) -> int:
    """Rows of ``width`` entries in one chunk: at least one."""
    return max(1, CHUNK_ENTRIES // max(1, width))


def row_norms(data: np.ndarray, what: str) -> np.ndarray:
    """Euclidean norms of the rows (last axis) of ``data``, keepdims.

    A nan or inf entry, or a row too large to square, raises
    ``NonFiniteSimilarity``; a norm below ``MIN_ROW_NORM`` (zero, or so
    small that the squares underflow) raises ``ZeroNormRow``. The rows,
    viewed as ``(-1, d)``, are normed ``chunk_rows(d)`` at a time (a small
    input is one chunk, returned as ``np.linalg.norm`` gives it), so the
    squares never take the data's size; each row's norm is the one
    ``np.linalg.norm`` gives.
    """
    data = np.asarray(data)
    rows = data.reshape(math.prod(data.shape[:-1]), data.shape[-1])
    step = chunk_rows(rows.shape[1])
    with np.errstate(over="ignore"):
        # one pass even for no rows, so empty input gives (..., 1) norms
        parts = [np.linalg.norm(rows[start : start + step], axis=-1, keepdims=True)
                 for start in range(0, max(len(rows), 1), step)]
    norms = (parts[0] if len(parts) == 1 else np.concatenate(parts)).reshape(data.shape[:-1] + (1,))
    if not np.all(np.isfinite(norms)):
        raise NonFiniteSimilarity(f"{what} contains non-finite values or a row whose norm overflows")
    if np.any(norms < MIN_ROW_NORM):
        raise ZeroNormRow(f"{what} has a row whose norm is below MIN_ROW_NORM = {MIN_ROW_NORM:g}")
    return norms


def check_integer(name: str, value) -> int:
    """``value`` as an int; ``ConfigError`` unless it is an int or numpy integer (not ``4.0``)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def check_float(name: str, value) -> float:
    """``value`` as a float; ``ConfigError`` unless it is a real number in float range,
    such as an int or numpy float (not ``"0.1"`` or ``None``)."""
    try:
        if isinstance(value, numbers.Real):
            return float(value)
    except OverflowError:
        pass
    raise ConfigError(f"{name} must be a number in float range, got {value!r}")


@dataclass(frozen=True)
class AlignConfig:
    """Softmax settings for association-PMF construction.

    Parameters
    ----------
    temperature : float
        Softmax temperature. The default of 1.0 reproduces the plain
        ``softmax(cos)`` projection; smaller values sharpen the rows.
    """

    temperature: float = 1.0

    def __post_init__(self) -> None:
        # below 1/DBL_MAX the scaled embeddings, and with them the logits, overflow
        tau = check_float("temperature", self.temperature)
        if not (0.0 < tau < np.inf and 1.0 / tau < np.inf):
            raise ConfigError(
                f"temperature must be positive with a finite 1/temperature, got {self.temperature}")


@dataclass(frozen=True)
class EmbeddingBatch:
    """One modality's mini-batch: an n x d matrix plus class labels.

    Invariants enforced at construction: n >= 2, d >= 1, one label per
    row, each a non-negative integer value (``1.0`` passes, ``0.5`` and
    nan do not), and every row's Euclidean norm finite and at least
    ``MIN_ROW_NORM`` (see ``row_norms``). ``labels`` is a read-only int64 copy.
    """

    data: np.ndarray
    labels: np.ndarray
    modality_name: str = "mod"

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        labels = np.asarray(self.labels)
        if data.ndim != 2:
            raise ShapeMismatch(f"embedding data must be 2-D, got shape {data.shape}")
        n, d = data.shape
        if n < 2 or d < 1:
            raise ShapeMismatch(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        if labels.shape != (n,):
            raise ShapeMismatch(f"labels must have shape ({n},), got {labels.shape}")
        # nan, inf and 1e30 cast to some int64 that differs from them
        with np.errstate(invalid="ignore"):
            as_int = labels.astype(np.int64) if labels.dtype.kind in "biuf" else None
        if as_int is None or np.any(as_int < 0) or np.any(as_int != labels):
            raise NotAPmf("class labels must be non-negative integers")
        row_norms(data, f"batch '{self.modality_name}'")
        as_int.setflags(write=False)  # a ring's cached label support stays valid
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", as_int)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]
