"""Seeded synthetic multimodal benchmark data.

Each class gets, per modality, a random unit direction scaled by
``class_sep`` as its mean; samples are that mean plus isotropic
Gaussian noise. Labels are position-aligned across modalities, so row i
of every modality is the same underlying instance. Everything is drawn
from one seeded generator, making repeated calls bit-identical.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .pmf import EmbeddingBatch, check_float, check_integer


@dataclass(frozen=True)
class SynthConfig:
    """Shape and geometry of the synthetic benchmark.

    ``embed_dim`` is not used by the generator itself; it is carried
    here so one config object describes a full experiment (encoders
    project ``input_dims[m] -> embed_dim``).
    """

    num_classes: int = 8
    per_class: int = 200
    input_dims: tuple[int, ...] = (64, 64, 64)
    embed_dim: int = 16
    class_sep: float = 6.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "int":
                check_integer(f.name, getattr(self, f.name))
        if not np.iterable(self.input_dims):
            raise ConfigError(f"input_dims must be a sequence of integers, got {self.input_dims!r}")
        dims = tuple(check_integer("every input_dims entry", v) for v in self.input_dims)
        object.__setattr__(self, "input_dims", dims)
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.per_class < 2:
            raise ConfigError(f"need at least 2 instances per class, got {self.per_class}")
        if any(dim < 1 for dim in self.input_dims) or not self.input_dims:
            raise ConfigError(f"input_dims must be positive, got {self.input_dims}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be positive, got {self.embed_dim}")
        # numpy refuses an array of 2**63 bytes or more; the largest here are the
        # n x input_dims data and the input_dims x embed_dim encoder weights
        rows = max(int(self.num_classes) * int(self.per_class), int(self.embed_dim))
        if 8 * rows * max(self.input_dims) >= 2**63:
            raise ConfigError(f"num_classes * per_class, input_dims and embed_dim ask for an array "
                              f"of 2**63 bytes or more ({rows} x {max(self.input_dims)} float64)")
        for name in ("class_sep", "noise_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(check_float(name, value)) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")

    @property
    def num_modalities(self) -> int:
        return len(self.input_dims)

    @property
    def num_instances(self) -> int:
        return self.num_classes * self.per_class


def modality_names(m: int) -> list[str]:
    """Short stable names: A, B, C, ... falling back to mod### past Z."""
    letters = string.ascii_uppercase
    return [letters[i] if i < len(letters) else f"mod{i}" for i in range(m)]


def generate_synthetic(cfg: SynthConfig) -> list[EmbeddingBatch]:
    """Raw-feature batches for each modality, deterministic in the seed."""
    rng = np.random.default_rng(cfg.seed)
    labels = np.repeat(np.arange(cfg.num_classes), cfg.per_class)
    names = modality_names(cfg.num_modalities)
    batches = []
    for name, dim in zip(names, cfg.input_dims):
        directions = rng.normal(size=(cfg.num_classes, dim))
        means = cfg.class_sep * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        # in place, class block by class block (labels repeat each class
        # per_class times): the sum of means[labels] + noise, bit for bit
        data = rng.normal(size=(cfg.num_instances, dim))
        data *= cfg.noise_sigma
        data.reshape(cfg.num_classes, cfg.per_class, dim)[...] += means[:, None, :]
        batches.append(EmbeddingBatch(data, labels, name))
    return batches


def nearest_centroid_accuracy(batch: EmbeddingBatch) -> float:
    """Fraction of rows whose nearest per-class centroid has their label.

    Separability oracle for generated data: near 1.0 means the classes
    are linearly recoverable from raw features.
    """
    centroids = np.stack(
        [batch.data[batch.labels == c].mean(axis=0) for c in np.unique(batch.labels)]
    )
    classes = np.unique(batch.labels)
    dist = ((batch.data[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
    predicted = classes[np.argmin(dist, axis=1)]
    return float((predicted == batch.labels).mean())
