"""Cross-modal retrieval scoring: ranking, top-k hits and average precision.

Queries from one modality are ranked against a gallery from another by
descending cosine similarity, ties broken by ascending gallery index so
rankings are deterministic; ``train._evaluate`` computes those scores in
blocks of ``SCORE_BLOCK_ROWS`` query rows. ``rank_scores`` builds every
ranking: one unstable sort of the scores, then a sort of integer keys
that puts each run of tied scores in index order. A gallery item is
*relevant* to a query iff their class labels agree. ``top_k_hits``
counts the relevant items in each top k straight from the scores, by
top-k selection under the same tie rule. ``average_precisions`` scores
all queries with the same number of relevant items in one vectorised
sum. Both take a boolean relevance mask, so a caller that scores many
blocks against one label layout builds it once.
"""

from __future__ import annotations

import numpy as np

from .errors import BadK, NoRelevantItems

# Query rows scored per block: bounds the temporaries of one retrieval
# direction to O(SCORE_BLOCK_ROWS x gallery size).
SCORE_BLOCK_ROWS = 256


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Column indices of each row of ``scores``, best first: descending
    score, ties in ascending index (``-0.0`` ties with ``0.0``), the
    order of a stable argsort of ``-scores``. Scores must not hold nan.

    One unstable argsort orders each row; the runs of equal scores along
    the sorted row are numbered, and sorting the distinct keys
    ``run * n + index`` (``n`` columns) puts every run in index order
    without moving it, so subtracting ``run * n`` leaves the indices.
    """
    scores = np.asarray(scores)
    n = scores.shape[1]
    order = np.argsort(-scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    new_run = ranked[:, 1:] != ranked[:, :-1]
    del ranked  # free it before the run numbers take the same room
    run_base = np.zeros(scores.shape, dtype=np.intp)
    run_base[:, 1:] = new_run
    np.cumsum(run_base, axis=1, out=run_base)
    run_base *= n
    keys = order
    keys += run_base
    keys.sort(axis=1)
    keys -= run_base
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
