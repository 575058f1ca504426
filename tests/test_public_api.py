"""The names other code imports from csalign: the package's ``__all__``
and what the benchmark harness in ``perfbench/`` loads.

Deleting a name the benchmark imports breaks it only when it runs; these
tests make such a deletion fail with the unit tests instead.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import csalign
import csalign.gradients
import csalign.losses
import csalign.train
from csalign.train import Adam, Encoder

ROOT = Path(__file__).resolve().parents[1]

# the attributes the benchmark reads or wraps while it runs; its tracer
# skips a missing one without a word, and that layer's metric then reads 0
LIVE_LOOKUPS = [
    (csalign.train, ["train_run", "evaluate_directions", "clip_global_norm"]),
    (csalign.gradients, ["loss_gradient", "resolve_bandwidth"]),
    (csalign.losses, ["gcs_ring_loss", "pairwise_sum_loss"]),
    (Encoder, ["forward", "backward"]),
    (Adam, ["step"]),
]


def test_every_exported_name_resolves_once():
    assert [name for name, count in Counter(csalign.__all__).items() if count > 1] == []
    assert [name for name in csalign.__all__ if not hasattr(csalign, name)] == []


def test_benchmark_modules_import():
    # a fresh interpreter: the benchmark imports csalign from src/ and its
    # own modules from perfbench/, as perfbench/run.py arranges
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    perfbench = str(ROOT / "perfbench")
    code = f"import sys; sys.path.insert(0, {perfbench!r}); import workloads, checks, spans"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_names_the_benchmark_looks_up_at_run_time_exist():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attrs in LIVE_LOOKUPS
        for attr in attrs
        if attr not in vars(owner)
    ]
    assert missing == []
