"""Retrieval computed the plain way, as the reference the library is
checked against: a stable argsort for the ranking, a count over the top k
for P@K, and one query at a time for average precision.

``csalign.retrieval`` ranks by one sort of packed int64 keys and scores
AP for whole groups of queries at once; nothing here calls those
routines. The cosine scores are multiplied in the query products the
library multiplies in (``_PRODUCT_ROWS`` rows counted from row 0): a BLAS
product over a different number of rows may round differently in the
last place, which could reorder near-ties.
"""

import numpy as np

from csalign.train import _PRODUCT_ROWS


def cosine_scores(query, gallery):
    """Cosine of every query row with every gallery row: unit rows, one
    product per ``_PRODUCT_ROWS`` query rows."""
    q, g = np.asarray(query, dtype=np.float64), np.asarray(gallery, dtype=np.float64)
    unit_q = q / np.linalg.norm(q, axis=1, keepdims=True)
    unit_g = (g / np.linalg.norm(g, axis=1, keepdims=True)).T
    return np.vstack([
        unit_q[start : start + _PRODUCT_ROWS] @ unit_g
        for start in range(0, q.shape[0], _PRODUCT_ROWS)
    ])


def stable_ranking(scores):
    """Column indices per row, descending score, ties by ascending index."""
    return np.argsort(-np.asarray(scores), axis=1, kind="stable")


def precision_at_k(ranked, query_labels, gallery_labels, k):
    """Mean over queries of (same-label items in the top k) / k."""
    hits = np.asarray(gallery_labels)[ranked[:, :k]] == np.asarray(query_labels)[:, None]
    return float(hits.mean())


def average_precisions(ranked, query_labels, gallery_labels):
    """AP of each query, one query at a time; ``None`` for a query with
    no relevant item."""
    gallery_labels = np.asarray(gallery_labels)
    ap_values = []
    for row, label in zip(ranked, query_labels):
        relevant = gallery_labels[row] == label
        total = int(relevant.sum())
        if total == 0:
            ap_values.append(None)
            continue
        positions = np.nonzero(relevant)[0] + 1
        hits = np.arange(1, total + 1)
        ap_values.append(float((hits / positions).sum() / total))
    return ap_values


def direction_metrics(batches):
    """P@1, P@10 and MAP of every ordered pair of batches, from the stable
    ranking of the blocked cosine scores."""
    out = {}
    for query in batches:
        for gallery in batches:
            if query is gallery:
                continue
            ranked = stable_ranking(cosine_scores(query.data, gallery.data))
            k = min(10, gallery.n)
            out[f"{query.modality_name}2{gallery.modality_name}"] = {
                "p1": precision_at_k(ranked, query.labels, gallery.labels, 1),
                "p10": precision_at_k(ranked, query.labels, gallery.labels, k),
                "map": float(np.mean(average_precisions(ranked, query.labels, gallery.labels))),
            }
    return out
