"""File formats for the CLI and experiment harness.

* Embedding matrices: numeric CSV (one row per instance, optional
  integer label column chosen by index), or the EMB1 binary format --
  a 16-byte little-endian header ``magic "EMB1", u32 n, u32 d, u32
  reserved`` followed by n*d float64 values, row major.
* PMF vectors: a single CSV line of non-negative floats summing to 1,
  checked by ``validate_pmf_row`` under the file's name.
* Config files: flat ``key=value`` lines with ``#`` comments. The keys
  are exactly the SynthConfig / TrainConfig field names plus
  ``data_seed``, and each value is parsed by its field's type; integers
  must lie below 2**63.
* JSON reports: floats serialized with 17 significant digits so values
  round-trip exactly; non-finite floats become the strings "inf",
  "-inf", "nan" (strict JSON has no literals for them).

Every input file is read by ``_read``, as UTF-8 text (a byte-order mark
is kept) or as bytes. A file that cannot be opened, read or decoded raises
:class:`ConfigError` naming it, as parse failures do (CLI exit code 2);
domain validation failures keep their own error types (exit code 3).
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .divergence import validate_pmf_row
from .errors import ConfigError
from .losses import MatchStrategy, check_kind
from .synth import SynthConfig
from .train import TrainConfig

EMB1_MAGIC = b"EMB1"
_EMB1_HEADER = struct.Struct("<4sIII")


def _read(path: str | Path, size: int = -1, text: bool = True):
    """The one reader of input files: the first ``size`` bytes of ``path`` (all by
    default), decoded with ``text`` as UTF-8 with CRLF and CR read as LF, as a
    text-mode file reads them. ConfigError if it cannot be opened, read or decoded."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read(size)
        return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n") if text else raw
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def read_embedding_csv(path: str | Path, label_col: int | None = None):
    """Parse a numeric CSV into (data, labels or None)."""
    rows = []
    for line_no, line in enumerate(_read(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from exc
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


def cell_text(value) -> str:
    """``value`` as every output file writes it: a float at 17 significant
    digits, so that it reads back as the same float, anything else by ``str``."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_csv(path: str | Path, rows) -> None:
    """Write ``rows`` as CSV lines, each cell as ``cell_text`` gives it."""
    Path(path).write_text("".join(",".join(map(cell_text, row)) + "\n" for row in rows), "utf-8")


def write_embedding_csv(path: str | Path, data: np.ndarray, labels=None) -> None:
    rows = np.asarray(data, dtype=np.float64).tolist()
    write_csv(path, rows if labels is None else [row + [int(y)] for row, y in zip(rows, labels, strict=True)])


def read_emb1(path: str | Path) -> np.ndarray:
    raw = _read(path, text=False)
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
    """Dispatch on the EMB1 magic; fall back to CSV. EMB1 holds no labels,
    so a ``label_col`` asked of one raises ``ConfigError``."""
    if _read(path, len(EMB1_MAGIC), text=False) == EMB1_MAGIC:
        if label_col is not None:
            raise ConfigError(f"{path}: an EMB1 file has no label column, got {label_col}")
        return read_emb1(path), None
    return read_embedding_csv(path, label_col)


def read_pmf_vector(path: str | Path) -> np.ndarray:
    """The one CSV line of a PMF file, checked as a PMF named by ``path``."""
    data, _ = read_embedding_csv(path)
    if data.shape[0] != 1:
        raise ConfigError(f"{path}: a PMF file holds exactly one CSV line, got {data.shape[0]}")
    return validate_pmf_row(data[0], str(path))


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
    return parse_kv_config(_read(path), str(path))


def _int(text: str) -> int:
    """An integer below 2**63, as CSV labels must be: no larger one fits numpy's int64."""
    value = int(text)
    if value >= 2**63:
        raise ValueError(f"{value} is not below 2**63")
    return value


# one parser per field annotation string (the configs' modules postpone
# annotations, so ``Field.type`` is the string as written); a tuple may end
# in one comma, but an empty token elsewhere is an error, not a dropped entry
_PARSERS = {
    "int": _int,
    "float": float,
    "str": str,
    "tuple[int, ...]": lambda value: tuple(map(_int, value.strip().removesuffix(",").split(","))),
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
    separate ``data_seed`` is given. The loss kind and temperature are
    checked against the number of modalities by ``check_kind``.
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
    check_kind(train.loss_kind, synth.num_modalities, train.temperature)
    return synth, train


# ---------------------------------------------------------------------------
# JSON with 17-significant-digit floats

def json_dumps(obj) -> str:
    """Serialize to JSON with every float at 17 significant digits."""
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
        return cell_text(value)
    if isinstance(obj, str):
        return json.dumps(obj)  # the stdlib's escaping, non-ASCII as \uXXXX
    if isinstance(obj, dict):
        items = ", ".join(f"{json_dumps(str(k))}: {json_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(json_dumps(v) for v in seq) + "]"
    raise ConfigError(f"cannot serialize {type(obj).__name__} to JSON")
