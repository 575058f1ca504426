"""Cross-modal retrieval scoring: ranking, top-k hits and average precision.

Queries from one modality are ranked against a gallery from another by
descending cosine similarity, ties broken by ascending gallery index so
rankings are deterministic; ``train._evaluate`` computes those scores in
blocks of query rows that together hold at most ``SCORE_BLOCK_ROWS`` rows:
one block at a time, or, for a gallery large enough, one block at a
time on each of several worker threads, with the same values.
``rank_scores`` builds every ranking with one sort of int64 keys per
row, a score's float bits above and its column index in the low bits;
the rare row whose distinct scores share a key's high bits is ranked
again by a stable argsort, so every ranking is exact. It may write the
ranking over the block's own scores. A gallery item is *relevant* to a
query iff their class labels agree. ``top_k_hits`` counts the relevant
items in each top k straight from the scores, by top-k selection under
the same tie rule. ``average_precisions`` scores all queries with the
same number of relevant items in one vectorised sum. Both take a
boolean relevance mask of the block's shape. ``train._evaluate`` scores
paired modalities, which carry one label vector, so it builds each
block's mask once for every direction.
Every temporary is a chunk of rows or a boolean array of the block's
shape, so evaluation memory stays one float64 block of
``SCORE_BLOCK_ROWS`` rows, however many threads share it.
"""

from __future__ import annotations

import numpy as np

from .errors import BadK, NoRelevantItems

# Query rows scored per block: bounds the temporaries of an evaluation
# to O(SCORE_BLOCK_ROWS x gallery size), one float64 score block shared by
# every direction and every worker, plus boolean arrays of its shape and
# chunk-sized ones per worker.
SCORE_BLOCK_ROWS = 256
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
