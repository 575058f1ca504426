"""Cross-modal retrieval: ranking, top-k hits, average precision, and
P@1 / P@10 / MAP for every ordered pair of paired modalities.

Queries of one modality are ranked against the gallery of another by
descending cosine, ties by ascending gallery index; an item is *relevant*
to a query iff their labels agree. ``rank_scores``, ``top_k_hits`` and
``average_precisions`` rank and score one block, as their docstrings state.

``evaluate_directions`` checks and normalises its batches, and
``_evaluate``, which the trainer calls each epoch, scores them. Queries
are scored in blocks of rows from row 0, every direction's block in turn,
each multiplied ``_PRODUCT_ROWS`` rows at a time. One worker takes blocks
of ``SCORE_BLOCK_ROWS`` rows. Where ``_worker_count`` finds that several
workers' blocks would each still hold ``_THREAD_MIN_SCORES`` scores,
worker w takes every workers-th block of ``_block_rows`` rows from block
w, on a thread pool joined before a worker's first error propagates. The
scores go to one ``(workers, block rows, n)`` float64 buffer, at most
``SCORE_BLOCK_ROWS x n``, where each worker writes its own slab; every
other temporary is a chunk of rows or a boolean array of a block's shape.
The P@K pass builds each block's relevance mask from the one label vector
once, for every direction, and counts hits with ``top_k_hits``. The MAP
pass ranks each block in its own memory, writes the ranked labels over the
ranking, and reads P@1, P@10 and the average precisions off them. Hit
counts are integer sums and each average precision lands in its query's
row, so every value equals the one read off a stable argsort of the same
scores exactly, on any number of threads.
"""

from __future__ import annotations

import os
from itertools import permutations

import numpy as np

from .errors import BadK, NoRelevantItems
from .losses import ModalityRing, direction_label
from .pmf import EmbeddingBatch, row_norms

# Query rows of one block, or of all workers' blocks together: bounds an
# evaluation's score buffer to SCORE_BLOCK_ROWS x gallery size.
SCORE_BLOCK_ROWS = 256
# Query rows of one score product at any worker count: a BLAS product over
# another number of rows may round differently, reordering near-ties.
_PRODUCT_ROWS = SCORE_BLOCK_ROWS // 4
# Fewest scores in one worker's block for an evaluation to use threads:
# below it, thread start-up and GIL hand-offs cost more than a core gains.
_THREAD_MIN_SCORES = 100_000
# Score rows ``rank_scores`` keys and sorts at a time.
_KEY_ROWS = 32
# Entries (256 KiB of float64) that ``top_k_hits`` and
# ``average_precisions`` take at a time: whole rows, as many as fit, so
# their temporaries stay this size at any gallery width while narrow
# blocks are not cut into many small chunks.
_CHUNK_SCORES = 1 << 15


def rank_scores(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column indices of each row of ``scores``, best first: descending
    score, ties in ascending index (``-0.0`` ties with ``0.0``), the
    order of a stable argsort of ``-scores``. Scores must not hold nan.
    The ranking is written to ``out``, an int64 array of the scores'
    shape, which may be the scores' own memory viewed as int64.

    Each ``-score`` becomes an int64 key that rises with its value (its
    float bits, all but the sign flipped when the sign is set), and the
    column index overwrites the key's low ``w`` bits. One sort then ranks
    the row, equal scores in index order, and the low bits read the
    ranking back. Distinct scores that agree above bit ``w`` rank by index
    too, so the scores of sorted neighbours whose keys agree above bit
    ``w`` are compared, and a row where a score follows a lower one is
    ranked again by a stable argsort; only those neighbours' scores are
    gathered. Rows are keyed ``_KEY_ROWS`` at a time in one chunk-sized
    buffer, and a chunk's rows of ``out`` are written only after its
    scores are read, so ``out`` may alias ``scores`` and the temporaries
    stay a fraction of the block.
    """
    scores = np.asarray(scores)
    rows, n = scores.shape
    if out is None:
        out = np.empty((rows, n), dtype=np.int64)
    w = max(1, (n - 1).bit_length())
    columns, chunk = np.arange(n), np.empty((min(rows, _KEY_ROWS), n), dtype=np.int64)
    for start in range(0, rows, _KEY_ROWS):
        block = scores[start : start + _KEY_ROWS]
        keys = chunk[: len(block)]
        np.subtract(0.0, block, out=keys.view(np.float64))  # -0.0 ties 0.0
        keys ^= (keys >> 63) & 0x7FFF_FFFF_FFFF_FFFF
        keys &= -1 << w
        keys |= columns
        keys.sort(axis=1)
        # neighbours whose keys agree above bit w: equal scores, or distinct
        # ones that the sort left in index order
        agree = np.bitwise_xor(keys[:, 1:], keys[:, :-1]).view(np.uint64) < 1 << w
        keys &= (1 << w) - 1
        pairs = np.flatnonzero(agree)
        if pairs.size:
            pairs += pairs // (n - 1)  # flat positions in ``keys``
            offsets = pairs - pairs % n  # flat positions of their rows
            higher = block.take(offsets + keys.take(pairs + 1))
            rises = higher > block.take(offsets + keys.take(pairs))
            if rises.any():
                clash = np.unique(offsets[rises] // n)
                keys[clash] = np.argsort(-block[clash], axis=1, kind="stable")
        out[start : start + _KEY_ROWS] = keys
    return out


def top_k_hits(scores: np.ndarray, relevant: np.ndarray, k: int) -> int:
    """Relevant items among each query's top k, summed over queries;
    ``relevant[i, j]`` says whether gallery item j is relevant to query i.

    The top k is that of ``rank_scores`` (descending score, then
    ascending gallery index), found without sorting: every item scoring
    above the k-th largest score is in it, and the remaining slots go to
    the items tied at that score in ascending index order. Every row has
    at least k items at or above its k-th score, so only a block with
    more than k per row in all can need that tie repair. The k-th scores
    are selected a chunk of rows (``_CHUNK_SCORES`` entries) at a time
    from one chunk-sized copy, and rows are repaired as many at a time,
    so the largest temporary besides the block is a boolean one of its
    shape.
    """
    scores = np.asarray(scores)
    rows, n = scores.shape
    if not (1 <= k <= n):
        raise BadK(f"k must be in [1, {n}], got {k}")
    if k == 1:
        best = np.argmax(scores, axis=1)  # the first maximum: lowest index wins ties
        return int(np.count_nonzero(relevant[np.arange(rows), best]))
    kth, step = np.empty((rows, 1), dtype=scores.dtype), max(1, _CHUNK_SCORES // n)
    chunk = np.empty((min(rows, step), n), dtype=scores.dtype)
    for start in range(0, rows, step):
        part = chunk[: min(step, rows - start)]
        np.copyto(part, scores[start : start + step])
        part.partition(n - k, axis=1)
        kth[start : start + step] = part[:, n - k, None]
    top = scores >= kth
    crowded = np.count_nonzero(top) > k * rows
    over = np.flatnonzero(np.count_nonzero(top, axis=1) > k) if crowded else ()
    top &= relevant
    hits = np.count_nonzero(top)
    for start in range(0, len(over), step):
        # more items tie at the k-th score than there are slots left:
        # drop the ties past the first ``need`` by index
        tie_rows = over[start : start + step]
        tied = scores[tie_rows] == kth[tie_rows]
        need = k - np.count_nonzero(scores[tie_rows] > kth[tie_rows], axis=1)
        dropped = tied & (np.cumsum(tied, axis=1) > need[:, None])
        hits -= np.count_nonzero(dropped & relevant[tie_rows])
    return int(hits)


def average_precisions(relevant: np.ndarray) -> list[float]:
    """Average precision of each ranked query, in query order, where
    ``relevant[i, r]`` says whether query i's item at rank r + 1 is
    relevant to it.

    AP for one query is ``(1/R) * sum over relevant ranks r of
    (relevant hits at or before r) / r``. Queries with the same R are
    scored together: their relevant ranks form one ``(queries, R)``
    array, and summing its rows adds each query's terms in the order
    and grouping of a one-query sum. So that these arrays stay
    chunk-sized however large R is, a group is scored
    ``_CHUNK_SCORES // R`` queries (at least one) at a time.
    """
    totals = np.count_nonzero(relevant, axis=1)
    if not totals.all():
        raise NoRelevantItems(f"query {np.argmin(totals)} has no relevant gallery item")
    width = relevant.shape[1]
    ap_values = np.empty(relevant.shape[0])
    for total in np.unique(totals):
        group, step = np.flatnonzero(totals == total), max(1, _CHUNK_SCORES // total)
        for start in range(0, group.size, step):
            rows = group[start : start + step]
            flat = np.flatnonzero(relevant[rows]).reshape(rows.size, total)
            positions = flat - np.arange(0, rows.size * width, width)[:, None] + 1
            ap_values[rows] = (np.arange(1, total + 1) / positions).sum(axis=1) / total
    return ap_values.tolist()


def _ranked_block(scores, query_labels, gallery_labels, k: int):
    """Top-1 hits, top-k hits and average precisions of one score block,
    ranked in its own memory ("clip" writes to ``out`` directly, where
    "raise" would buffer a block-sized copy)."""
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


def _worker_count(n: int) -> int:
    """Threads that score n queries against n gallery items: at most one
    per available CPU and per product of a full block, and no more than
    keep each worker's block at ``_THREAD_MIN_SCORES`` scores. Such a
    block leaves each worker one, as ``_THREAD_MIN_SCORES >= SCORE_BLOCK_ROWS ** 2``."""
    workers = 1
    for more in range(2, min(_available_cpus(), SCORE_BLOCK_ROWS // _PRODUCT_ROWS) + 1):
        if _block_rows(more) * n < _THREAD_MIN_SCORES:
            break
        workers = more
    return workers


def _evaluate(units, names: list[str], labels, with_map: bool):
    """``evaluate_directions`` on checked arrays: ``units[m]`` holds the
    unit rows of modality m, and ``labels`` the int64 labels that row i
    of every modality carries. The blocks, workers and passes are those
    of the module docstring."""
    pairs = list(permutations(range(len(units)), 2))
    n, k = len(labels), min(10, len(labels))
    workers = _worker_count(n)
    step = _block_rows(workers)
    buffer = np.empty((workers, min(n, step), n))
    hits = np.zeros((workers, len(pairs), 2), dtype=np.int64)  # top-1 and top-k hits
    ap_values = np.empty((len(pairs), n)) if with_map else None

    def score_blocks(w: int) -> None:
        for start in range(w * step, n, workers * step):
            rows, mask = slice(start, start + step), None  # drop the last block's mask first
            if not with_map:
                mask = labels == labels[rows, None]
            for j, (qi, gi) in enumerate(pairs):
                query = units[qi][rows]
                scores = buffer[w, : len(query)]
                for lo in range(0, len(query), _PRODUCT_ROWS):
                    part = slice(lo, lo + _PRODUCT_ROWS)
                    np.matmul(query[part], units[gi].T, out=scores[part])
                if with_map:
                    hit_1, hit_k, ap_values[j, rows] = _ranked_block(
                        scores, labels[rows], labels, k)
                else:
                    hit_1, hit_k = top_k_hits(scores, mask, 1), top_k_hits(scores, mask, k)
                hits[w, j] += hit_1, hit_k

    if workers == 1:
        score_blocks(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded by threaded calls only

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(score_blocks, range(workers)))  # raises a worker's first error
    metrics: dict[str, dict[str, float]] = {}
    for j, (qi, gi) in enumerate(pairs):
        hit_1, hit_k = hits[:, j].sum(axis=0).tolist()
        entry = {"p1": hit_1 / n, "p10": hit_k / (n * k)}
        if with_map:
            entry["map"] = float(np.mean(ap_values[j]))
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
    to it. Each modality is normalised once and scored as the module
    docstring states.
    """
    ring = ModalityRing(tuple(batches))
    names = [b.modality_name for b in ring.batches]
    units = [b.data / row_norms(b.data, f"batch '{b.modality_name}'") for b in ring.batches]
    return _evaluate(units, names, ring.labels, with_map)
