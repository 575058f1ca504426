"""Output checks, each against a computation made apart from the program.

* Loss values are rebuilt from the scalar reference divergences
  (``cs_divergence``, ``gcs_divergence``, ``kl_alignment``, ``mmd_squared``,
  ``coral_loss``) on a plain numpy cosine + softmax written here.
* Analytic gradients are compared with ``central_difference`` applied to
  those rebuilt losses.
* Retrieval metrics are compared with a ranking built here: a lexicographic
  sort on (descending similarity, ascending gallery index), itself checked
  against Python's ``sorted`` on sampled queries.
* Training runs are held to the desk-scale criterion: finite losses, last
  below first, minimum final P@1 >= 0.9 over all M(M-1) directions.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from csalign import (
    KlConfig,
    MmdConfig,
    central_difference,
    coral_loss,
    cs_divergence,
    gcs_divergence,
    kl_alignment,
    median_bandwidth,
    mmd_squared,
)

VALUE_RTOL = 1e-9
GRAD_RTOL = 1e-5
METRIC_ATOL = 1e-12
MIN_FINAL_P1 = 0.9


# ---------------------------------------------------------------------------
# reference losses

def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def reference_assoc(src: np.ndarray, dst: np.ndarray, tau: float) -> np.ndarray:
    """Row softmax of cosine similarity over temperature."""
    z = (_unit_rows(src) @ _unit_rows(dst).T) / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_match(labels: np.ndarray) -> np.ndarray:
    y = (labels[:, None] == labels[None, :]).astype(np.float64)
    return y / y.sum(axis=1, keepdims=True)


def reference_loss(kind: str, arrays, labels, tau: float = 1.0, sigma: float | None = None) -> float:
    """The loss ``loss_gradient(kind, ...)`` computes, from scalar divergences."""
    m = len(arrays)
    n = len(labels)
    if kind == "mmd":
        return mmd_squared(arrays[0], arrays[1], MmdConfig(sigma) if sigma else None)
    if kind == "coral":
        return coral_loss(arrays[0], arrays[1])
    q = reference_match(np.asarray(labels))
    pairs = [(s, d) for s in range(m) for d in range(m) if s != d]
    total = 0.0
    if kind in ("bimodal_cs", "pairwise_cs"):
        for s, d in pairs:
            p = reference_assoc(arrays[s], arrays[d], tau)
            total += np.mean([cs_divergence(p[i], q[i]).value for i in range(n)])
    elif kind == "kl":
        for s, d in pairs:
            total += kl_alignment(reference_assoc(arrays[s], arrays[d], tau), q, KlConfig()) / n
    elif kind == "gcs_ring":
        # mixed strategy: one GCS over the M edges of each orientation plus q
        clockwise = [(i, (i + 1) % m) for i in range(m)]
        counter = [((i + 1) % m, i) for i in range(m)]
        for edges in (clockwise, counter):
            ps = [reference_assoc(arrays[s], arrays[d], tau) for s, d in edges]
            total += np.mean([gcs_divergence([p[i] for p in ps] + [q[i]]).value for i in range(n)])
    else:
        raise ValueError(f"no reference for loss kind {kind!r}")
    return float(total)


def reference_gradient(kind: str, arrays, labels, tau: float = 1.0) -> list[np.ndarray]:
    """Central differences of ``reference_loss``; the MMD bandwidth is frozen
    at the evaluation point, as the analytic gradient treats it."""
    sigma = median_bandwidth(arrays[0], arrays[1]) if kind == "mmd" else None
    return central_difference(
        lambda a: reference_loss(kind, a, labels, tau, sigma), [np.asarray(x) for x in arrays]
    )


# ---------------------------------------------------------------------------
# checks

def check_value(label: str, value: float, reference: float) -> list[str]:
    if not (np.isfinite(value) and abs(value - reference) <= VALUE_RTOL * max(1.0, abs(reference))):
        return [f"{label}: loss {value!r} differs from reference {reference!r}"]
    return []


def check_gradient(label: str, analytic, numeric) -> list[str]:
    """Each modality's gradient within GRAD_RTOL of the finite differences,
    relative to the largest finite-difference entry of that modality."""
    problems = []
    for i, (a, b) in enumerate(zip(analytic, numeric)):
        a = np.asarray(a)
        scale = float(np.abs(b).max())
        err = float(np.abs(a - b).max()) if np.all(np.isfinite(a)) else np.inf
        if not err <= GRAD_RTOL * scale + 1e-9:
            problems.append(f"{label}: modality {i} gradient off by {err:.3g} (scale {scale:.3g})")
    return problems


def check_count(label: str, got: int, expected: int) -> list[str]:
    return [] if got == expected else [f"{label}: {got} association PMFs, expected {expected}"]


def reference_retrieval(batches, sample_rows: np.ndarray):
    """P@1, P@10 and MAP for every ordered pair, from a ranking built here.

    Returns the metrics and the problems found when the lexsort ranking of
    the sampled queries is compared with Python's ``sorted`` on the key
    (-similarity, gallery index).
    """
    out, problems = {}, []
    for query in batches:
        for gallery in batches:
            if query is gallery:
                continue
            direction = f"{query.modality_name}2{gallery.modality_name}"
            sim = _unit_rows(query.data) @ _unit_rows(gallery.data).T
            n_g = sim.shape[1]
            order = np.lexsort((np.broadcast_to(np.arange(n_g), sim.shape), -sim), axis=1)
            for qi in sample_rows:
                if order[qi].tolist() != sorted(range(n_g), key=lambda j: (-sim[qi, j], j)):
                    problems.append(f"{direction}: reference ranking of query {qi} is not the plain sort")
            rel = gallery.labels[order] == query.labels[:, None]
            hits = np.cumsum(rel, axis=1)
            ap = (rel * hits / np.arange(1, n_g + 1)).sum(axis=1) / rel.sum(axis=1)
            out[direction] = {
                "p1": float(rel[:, 0].mean()),
                "p10": float(rel[:, : min(10, n_g)].mean()),
                "map": float(ap.mean()),
            }
    return out, problems


def check_retrieval(label: str, metrics, reference, keys=("p1", "p10")) -> list[str]:
    problems = []
    if set(metrics) != set(reference):
        return [f"{label}: directions {sorted(metrics)} != {sorted(reference)}"]
    for direction, entry in metrics.items():
        for key in keys:
            got, want = entry.get(key), reference[direction][key]
            if got is None or not abs(got - want) <= METRIC_ATOL:
                problems.append(f"{label}: {direction} {key} {got!r} != reference {want!r}")
    return problems


def check_training(label: str, trace, num_directions: int) -> list[str]:
    """The desk-scale criterion on one finished training run."""
    problems = []
    losses = trace.losses
    p1 = [m["p1"] for m in trace.final_metrics.values()]
    if trace.aborted or not losses or not all(np.isfinite(v) for v in losses):
        problems.append(f"{label}: non-finite loss or aborted run")
    elif not losses[-1] < losses[0]:
        problems.append(f"{label}: loss did not fall ({losses[0]!r} -> {losses[-1]!r})")
    if len(p1) != num_directions:
        problems.append(f"{label}: {len(p1)} directions evaluated, expected {num_directions}")
    elif not min(p1) >= MIN_FINAL_P1:
        problems.append(f"{label}: minimum final P@1 {min(p1)!r} below {MIN_FINAL_P1}")
    return problems
