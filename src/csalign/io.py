"""File formats for the CLI and experiment harness.

* Embedding matrices: numeric CSV (one row per instance, optional
  integer label column chosen by index), or the EMB1 binary format --
  a 16-byte little-endian header ``magic "EMB1", u32 n, u32 d, u32
  reserved`` followed by n*d float64 values, row major.
* PMF vectors: a single CSV line of non-negative floats.
* Config files: flat ``key=value`` lines with ``#`` comments. The keys
  are exactly the SynthConfig / TrainConfig field names plus
  ``data_seed``, and each value is parsed by its field's type.
* JSON reports: floats serialized with 17 significant digits so values
  round-trip exactly; non-finite floats become the strings "inf",
  "-inf", "nan" (strict JSON has no literals for them).

Parse failures raise :class:`ConfigError` (CLI exit code 2); domain
validation failures keep their own error types (exit code 3).
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .losses import MatchStrategy
from .synth import SynthConfig
from .train import TrainConfig

EMB1_MAGIC = b"EMB1"
_EMB1_HEADER = struct.Struct("<4sIII")


def read_embedding_csv(path: str | Path, label_col: int | None = None):
    """Parse a numeric CSV into (data, labels or None)."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append([float(tok) for tok in line.split(",")])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{line_no}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: ragged rows (widths {sorted(widths)})")
    data = np.asarray(rows, dtype=np.float64)
    if label_col is None:
        return data, None
    cols = data.shape[1]
    if not (-cols <= label_col < cols):
        raise ConfigError(f"{path}: label column {label_col} out of range for {cols} columns")
    labels = data[:, label_col]
    # integral floats below 2**63 cast to int64 exactly; nan fails every test
    bad = ~((labels >= 0) & (labels < 2.0**63) & (labels == np.round(labels)))
    if np.any(bad):
        raise ConfigError(
            f"{path}: label column {label_col} holds {float(labels[bad][0])!r}; "
            "labels must be non-negative integers below 2**63"
        )
    keep = [c for c in range(cols) if c != label_col % cols]
    return data[:, keep], labels.astype(np.int64)


def write_embedding_csv(path: str | Path, data: np.ndarray, labels=None) -> None:
    data = np.asarray(data, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as handle:
        for i, row in enumerate(data):
            cells = [format(v, ".17g") for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            handle.write(",".join(cells) + "\n")


def read_emb1(path: str | Path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _EMB1_HEADER.size:
        raise ConfigError(f"{path}: truncated EMB1 header")
    magic, n, d, _reserved = _EMB1_HEADER.unpack_from(raw)
    if magic != EMB1_MAGIC:
        raise ConfigError(f"{path}: bad magic {magic!r}")
    expected = _EMB1_HEADER.size + 8 * n * d
    if len(raw) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes for {n}x{d}, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_EMB1_HEADER.size)
    return data.reshape(n, d).astype(np.float64)


def write_emb1(path: str | Path, data: np.ndarray) -> None:
    data = np.ascontiguousarray(np.asarray(data, dtype="<f8"))
    if data.ndim != 2:
        raise ConfigError(f"EMB1 stores 2-D matrices, got shape {data.shape}")
    header = _EMB1_HEADER.pack(EMB1_MAGIC, data.shape[0], data.shape[1], 0)
    Path(path).write_bytes(header + data.tobytes())


def read_embeddings(path: str | Path, label_col: int | None = None):
    """Dispatch on the EMB1 magic; fall back to CSV."""
    try:
        with open(path, "rb") as handle:
            magic = handle.read(4)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if magic == EMB1_MAGIC:
        return read_emb1(path), None
    return read_embedding_csv(path, label_col)


def read_pmf_vector(path: str | Path) -> np.ndarray:
    data, _ = read_embedding_csv(path)
    if data.shape[0] != 1:
        raise ConfigError(f"{path}: a PMF file holds exactly one CSV line, got {data.shape[0]}")
    return data[0]


# ---------------------------------------------------------------------------
# key=value configs

def parse_kv_config(text: str, source: str = "<config>") -> dict[str, str]:
    mapping: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def read_kv_config(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_kv_config(text, str(path))


# one parser per field annotation string (the configs' modules postpone
# annotations, so ``Field.type`` is the string as written)
_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda value: tuple(int(tok) for tok in value.split(",") if tok.strip()),
    "MatchStrategy": MatchStrategy,
}
_KEY_TYPES = {
    f.name: f.type for config in (SynthConfig, TrainConfig) for f in fields(config)
} | {"data_seed": "int"}


def _parse_value(key: str, value: str):
    try:
        return _PARSERS[_KEY_TYPES[key]](value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def experiment_configs(mapping: dict[str, str]):
    """Split one flat mapping into (SynthConfig, TrainConfig).

    ``seed`` applies to both the generator and the trainer unless a
    separate ``data_seed`` is given.
    """
    unknown = set(mapping) - set(_KEY_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {k: _parse_value(k, v) for k, v in mapping.items()}

    synth_names = {f.name for f in fields(SynthConfig)}
    train_names = {f.name for f in fields(TrainConfig)}
    synth_kwargs = {k: v for k, v in values.items() if k in synth_names}
    train_kwargs = {k: v for k, v in values.items() if k in train_names}
    if "data_seed" in values:
        if values["data_seed"] < 0:
            raise ConfigError(f"data_seed must be non-negative, got {values['data_seed']}")
        synth_kwargs["seed"] = values["data_seed"]
    synth = SynthConfig(**synth_kwargs)
    train = TrainConfig(**train_kwargs)
    return synth, train


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats

def _json_fragment(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if np.isnan(value):
            return '"nan"'
        if np.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)  # the stdlib's escaping, non-ASCII as \uXXXX
    if isinstance(obj, dict):
        items = ", ".join(f"{_json_fragment(str(k))}: {_json_fragment(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_json_fragment(v) for v in seq) + "]"
    raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")


def json_dumps(obj) -> str:
    """Serialize to JSON with every float at 17 significant digits."""
    return _json_fragment(obj)
