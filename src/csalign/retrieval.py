"""Cross-modal retrieval evaluation: ranking, P@K, and MAP.

Queries from one modality are ranked against a gallery from another by
descending cosine similarity (ties broken by ascending gallery index,
so rankings are deterministic). ``rank_scores`` builds every ranking:
one unstable sort of the scores, then a sort of integer keys that puts
each run of tied scores in index order. A gallery item is *relevant* to
a query iff their class labels agree. P@K is computed either from a
ranking (``precision_at_k``) or straight from the scores by top-k
selection under the same tie rule (``top_k_hits``); the two agree
exactly. ``average_precisions`` scores all queries with the same number
of relevant items in one vectorised sum. ``top_k_hits`` and
``average_precisions`` take a boolean relevance mask, so a caller that
scores many blocks against one label layout builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadK, NoRelevantItems, ShapeMismatch
from .losses import direction_label
from .pmf import EmbeddingBatch, row_norms

# Query rows scored per block: bounds the temporaries of one retrieval
# direction to O(SCORE_BLOCK_ROWS x gallery size).
SCORE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class RetrievalMetrics:
    """P@K values and MAP for one retrieval direction."""

    direction: str
    p_at: dict[int, float]
    map_score: float


def _as_data(x: EmbeddingBatch | np.ndarray) -> np.ndarray:
    data = x.data if isinstance(x, EmbeddingBatch) else np.asarray(x, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeMismatch(f"expected an (n, d) matrix, got shape {data.shape}")
    return data


def cosine_scores(
    query: EmbeddingBatch | np.ndarray, gallery: EmbeddingBatch | np.ndarray
) -> np.ndarray:
    """Cosine similarity of every query row with every gallery row.

    Query rows are scored in fixed blocks of ``SCORE_BLOCK_ROWS`` counted
    from row 0, so scoring the rows ``[s, s + SCORE_BLOCK_ROWS)`` for ``s``
    a multiple of the block gives the same bits as the matching rows of
    the whole matrix. (A BLAS product over a different number of rows
    may round differently in the last place, which could reorder
    near-ties.) A row whose norm is below ``MIN_ROW_NORM`` raises
    ``ZeroNormRow``; a row whose norm is not finite (it overflows, or
    holds nan) raises ``NonFiniteSimilarity`` (see ``row_norms``).
    """
    q = _as_data(query)
    g = _as_data(gallery)
    if q.shape[1] != g.shape[1]:
        raise ShapeMismatch(f"feature dims differ: {q.shape[1]} vs {g.shape[1]}")
    unit_q, unit_g = q / row_norms(q, "the query rows"), (g / row_norms(g, "the gallery rows")).T
    scores = np.empty((q.shape[0], g.shape[0]))
    for start in range(0, q.shape[0], SCORE_BLOCK_ROWS):
        rows = slice(start, start + SCORE_BLOCK_ROWS)
        np.matmul(unit_q[rows], unit_g, out=scores[rows])
    return scores


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


def rank_gallery(
    query: EmbeddingBatch | np.ndarray, gallery: EmbeddingBatch | np.ndarray
) -> np.ndarray:
    """Gallery indices per query, best match first: ``rank_scores`` of the
    cosine scores (descending similarity, ties by ascending gallery
    index)."""
    return rank_scores(cosine_scores(query, gallery))


def precision_at_k(
    ranked: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    k: int,
) -> float:
    """Mean over queries of (same-label items in the top k) / k."""
    ranked = np.asarray(ranked)
    query_labels = np.asarray(query_labels)
    gallery_labels = np.asarray(gallery_labels)
    if not (1 <= k <= ranked.shape[1]):
        raise BadK(f"k must be in [1, {ranked.shape[1]}], got {k}")
    hits = gallery_labels[ranked[:, :k]] == query_labels[:, None]
    return float(hits.mean())


def top_k_hits(scores: np.ndarray, relevant: np.ndarray, k: int) -> int:
    """Relevant items among each query's top k, summed over queries;
    ``relevant[i, j]`` says whether gallery item j is relevant to query i.

    The top k is that of ``rank_gallery`` (descending score, then
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


def precision_at_k_scores(
    scores: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray, k: int
) -> float:
    """``precision_at_k`` of the ranking ``rank_gallery`` would give for
    these scores, computed by top-k selection (``top_k_hits``)."""
    relevant = np.asarray(gallery_labels) == np.asarray(query_labels)[:, None]
    return top_k_hits(scores, relevant, k) / (np.shape(scores)[0] * k)


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


def mean_average_precision(
    ranked: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray
) -> float:
    """Mean over queries of average precision over all relevant items
    (see ``average_precisions``)."""
    relevant = np.asarray(gallery_labels)[np.asarray(ranked)] == np.asarray(query_labels)[:, None]
    return float(np.mean(average_precisions(relevant)))


def evaluate_retrieval(
    query: EmbeddingBatch, gallery: EmbeddingBatch, ks: tuple[int, ...] = (1, 10)
) -> RetrievalMetrics:
    """Rank, then report P@K for each requested K (capped at the gallery
    size) and MAP, labelled ``<query>2<gallery>``."""
    ranked = rank_gallery(query, gallery)
    p_at = {k: precision_at_k(ranked, query.labels, gallery.labels, min(k, gallery.n)) for k in ks}
    map_score = mean_average_precision(ranked, query.labels, gallery.labels)
    return RetrievalMetrics(direction_label(query.modality_name, gallery.modality_name), p_at, map_score)
