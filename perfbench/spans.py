"""In-memory span tracing around calls into csalign's public names.

A span is (name, start, end, parent, attr). Spans are kept in a list while
the traced rounds run and written out once, at the end of the run. Tracing
is done from outside the program: ``instrument`` swaps the public names that
``csalign.train.train_run`` (and the forward losses) look up for wrappers
that open a span, and puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

import csalign.gradients
import csalign.losses
import csalign.train
from csalign.train import Adam, Encoder

_clock = time.perf_counter


class Tracer:
    """Collects spans; ``span`` and ``wrap`` record one per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, attr]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, attr: str | None = None):
        sid = len(self.spans)
        record = [name, _clock(), 0.0, self._stack[-1] if self._stack else -1, attr]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[2] = _clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def summary(self) -> dict[tuple[str, str | None], dict[str, float]]:
        """Per (name, attr): call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because the process runs one call
        stack.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, _, attr) in enumerate(self.spans):
            entry = out[(name, attr)]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[sid]
        return dict(out)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, attr) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "attr": attr}) + "\n")


# (owner, attribute, span name) for every public name that is wrapped
TARGETS = [
    (csalign.train, "loss_gradient", "gradients.loss_gradient"),
    (csalign.train, "evaluate_directions", "train.evaluate"),
    (csalign.train, "rank_gallery", "retrieval.rank_gallery"),
    (csalign.train, "precision_at_k", "retrieval.precision_at_k"),
    (csalign.train, "mean_average_precision", "retrieval.map"),
    (csalign.train, "clip_global_norm", "train.clip"),
    (csalign.train, "EmbeddingBatch", "pmf.batch_construct"),
    (csalign.train, "ModalityRing", "losses.ring_construct"),
    (Encoder, "forward", "train.encoder_forward"),
    (Encoder, "backward", "train.encoder_backward"),
    (Adam, "step", "train.adam"),
    (csalign.gradients, "resolve_bandwidth", "divergence.resolve_bandwidth"),
    (csalign.losses, "cosine_similarity_matrix", "pmf.cosine"),
    (csalign.losses, "association_pmf", "pmf.softmax"),
]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it.

    A name the program no longer has is skipped; its layer then reads 0.
    """
    saved = []
    try:
        for owner, attr, name in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
