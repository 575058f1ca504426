"""Cross-modal retrieval scoring: ranking, top-k hits and average precision.

Queries from one modality are ranked against a gallery from another by
descending cosine similarity, ties broken by ascending gallery index so
rankings are deterministic; ``train._evaluate`` computes those scores in
blocks of ``SCORE_BLOCK_ROWS`` query rows. ``rank_scores`` builds every
ranking with one sort of int64 keys per row, a score's float bits above
and its column index in the low bits; the rare row whose distinct scores
share a key's high bits is ranked again by a stable argsort, so every
ranking is exact. A gallery item is *relevant* to a query iff their
class labels agree. ``top_k_hits`` counts the relevant items in each
top k straight from the scores, by top-k selection under the same tie
rule. ``average_precisions`` scores all queries with the same number
of relevant items in one vectorised sum. Both take a boolean relevance
mask, so a caller that scores many blocks against one label layout
builds it once.
"""

from __future__ import annotations

import numpy as np

from .errors import BadK, NoRelevantItems

# Query rows scored per block: bounds the temporaries of one retrieval
# direction to O(SCORE_BLOCK_ROWS x gallery size).
SCORE_BLOCK_ROWS = 256
# Score rows ``rank_scores`` keys and sorts at a time.
_KEY_ROWS = 32


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Column indices of each row of ``scores``, best first: descending
    score, ties in ascending index (``-0.0`` ties with ``0.0``), the
    order of a stable argsort of ``-scores``. Scores must not hold nan.

    Each ``-score`` becomes an int64 key that rises with its value (its
    float bits, all but the sign flipped when the sign is set), and the
    column index overwrites the key's low ``w`` bits. One sort then ranks
    the row, equal scores in index order, and the low bits read the
    ranking back. Distinct scores that agree above bit ``w`` rank by index
    too, so a row where a score follows a lower one is ranked again by a
    stable argsort. Rows are keyed ``_KEY_ROWS`` at a time, so the
    temporaries stay a fraction of the block.
    """
    scores = np.asarray(scores)
    n = scores.shape[1]
    w = max(1, (n - 1).bit_length())
    columns, offsets = np.arange(n), np.arange(0, _KEY_ROWS * n, n)[:, None]
    keys = np.subtract(0.0, scores, dtype=np.float64).view(np.int64)  # -0.0 ties 0.0
    for start in range(0, len(keys), _KEY_ROWS):
        part, block = keys[start : start + _KEY_ROWS], scores[start : start + _KEY_ROWS]
        part ^= (part >> 63) & 0x7FFF_FFFF_FFFF_FFFF
        part &= -1 << w
        part |= columns
        part.sort(axis=1)
        part &= (1 << w) - 1
        part += offsets[: len(part)]  # flat positions in ``block``
        ranked = np.take(block.ravel(), part, mode="clip")
        part -= offsets[: len(part)]
        clash = start + np.flatnonzero((ranked[:, 1:] > ranked[:, :-1]).any(axis=1))
        if clash.size:
            keys[clash] = np.argsort(-scores[clash], axis=1, kind="stable")
    return keys


def top_k_hits(scores: np.ndarray, relevant: np.ndarray, k: int) -> int:
    """Relevant items among each query's top k, summed over queries;
    ``relevant[i, j]`` says whether gallery item j is relevant to query i.

    The top k is that of ``rank_scores`` (descending score, then
    ascending gallery index), found without sorting: every item scoring
    above the k-th largest score is in it, and the remaining slots go to
    the items tied at that score in ascending index order. Every row has
    at least k items at or above its k-th score, so only a block with
    more than k per row in all can need that tie repair.
    """
    scores = np.asarray(scores)
    rows, n = scores.shape
    if not (1 <= k <= n):
        raise BadK(f"k must be in [1, {n}], got {k}")
    if k == 1:
        best = np.argmax(scores, axis=1)  # the first maximum: lowest index wins ties
        return int(np.count_nonzero(relevant[np.arange(rows), best]))
    kth = np.partition(scores, n - k, axis=1)[:, n - k, None]
    top = scores >= kth
    crowded = np.count_nonzero(top) > k * rows
    over = np.flatnonzero(np.count_nonzero(top, axis=1) > k) if crowded else ()
    top &= relevant
    hits = np.count_nonzero(top)
    if crowded:
        # more items tie at the k-th score than there are slots left:
        # drop the ties past the first ``need`` by index
        tied = scores[over] == kth[over]
        need = k - np.count_nonzero(scores[over] > kth[over], axis=1)
        dropped = tied & (np.cumsum(tied, axis=1) > need[:, None])
        hits -= np.count_nonzero(dropped & relevant[over])
    return int(hits)


def average_precisions(relevant: np.ndarray) -> list[float]:
    """Average precision of each ranked query, in query order, where
    ``relevant[i, r]`` says whether query i's item at rank r + 1 is
    relevant to it.

    AP for one query is ``(1/R) * sum over relevant ranks r of
    (relevant hits at or before r) / r``. Queries with the same R are
    scored together: their relevant ranks form one ``(queries, R)``
    array, and summing its rows adds each query's terms in the order
    and grouping of a one-query sum.
    """
    totals = np.count_nonzero(relevant, axis=1)
    if not totals.all():
        raise NoRelevantItems(f"query {np.argmin(totals)} has no relevant gallery item")
    width = relevant.shape[1]
    ap_values = np.empty(relevant.shape[0])
    for total in np.unique(totals):
        rows = np.flatnonzero(totals == total)
        flat = np.flatnonzero(relevant[rows]).reshape(rows.size, total)
        positions = flat - np.arange(0, rows.size * width, width)[:, None] + 1
        ap_values[rows] = (np.arange(1, total + 1) / positions).sum(axis=1) / total
    return ap_values.tolist()
