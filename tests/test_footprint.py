"""What a fresh process loads: numpy only, whatever it computes.

Each test starts a new interpreter with ``PYTHONPATH=src`` so that the
modules the test process has already imported (pytest, hypothesis,
scipy through other packages) cannot hide an import that csalign makes.
The MMD runs block scipy's import outright and must still return the
values of an in-process call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from csalign import EmbeddingBatch, ModalityRing, finite_diff_gradient, loss_gradient, mmd_squared
from csalign.cli import main
from csalign.io import write_embedding_csv

from test_cli import SMALL_CONFIG

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``python -m csalign.cli <argv>`` in this process, then prints the
# exit code and every loaded scipy module as the last line of stdout.
RUN_CLI = """
import json, runpy, sys
if sys.argv[1] == "block-scipy":
    sys.modules["scipy"] = None
sys.argv = ["csalign", *sys.argv[2:]]
try:
    runpy.run_module("csalign.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m, mod in sys.modules.items() if mod is not None and m.startswith("scipy"))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def run_fresh(code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv, cwd, block_scipy=False):
    return run_fresh(RUN_CLI, "block-scipy" if block_scipy else "-", *argv, cwd=cwd)


def train_argv(tmp_path, outdir):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    return ["train", "--config", cfg, "--outdir", tmp_path / outdir]


def test_import_loads_no_scipy(tmp_path):
    code = "import csalign, json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    assert run_fresh(code, cwd=tmp_path) == []


def test_version_loads_no_scipy(tmp_path):
    assert run_cli("--version", cwd=tmp_path) == {"code": 0, "scipy": []}


def test_gcs_ring_training_loads_no_scipy(tmp_path):
    assert run_cli(*train_argv(tmp_path, "run"), cwd=tmp_path) == {"code": 0, "scipy": []}


def test_training_with_scipy_blocked_writes_the_same_bytes(tmp_path, capsys):
    blocked = run_cli(*train_argv(tmp_path, "blocked"), cwd=tmp_path, block_scipy=True)
    assert blocked == {"code": 0, "scipy": []}
    assert main([str(a) for a in train_argv(tmp_path, "open")]) == 0
    capsys.readouterr()
    for name in ("trace.csv", "metrics.json"):
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()


MMD_VALUES = """
import json, sys
if sys.argv[1] == "block-scipy":
    sys.modules["scipy"] = None
import numpy as np
from csalign import LOSS_KINDS, EmbeddingBatch, ModalityRing, finite_diff_gradient, loss_gradient, mmd_squared
x, y = np.load(sys.argv[2]), np.load(sys.argv[3])
labels = np.arange(x.shape[0]) % 3
ring = ModalityRing((EmbeddingBatch(x, labels, "A"), EmbeddingBatch(y, labels, "B")))
triple = ModalityRing(ring.batches + (EmbeddingBatch(x[::-1], labels, "C"),))
value, grads = loss_gradient("mmd", ring)
for kind in LOSS_KINDS:
    loss_gradient(kind, triple if kind in ("gcs_ring", "pairwise_cs") else ring)
print(json.dumps({
    "scipy": sorted(m for m, mod in sys.modules.items() if mod is not None and m.startswith("scipy")),
    "mmd": mmd_squared(x, y),
    "loss": value,
    "grads": [g.tolist() for g in grads],
    "fd": [g.tolist() for g in finite_diff_gradient("mmd", ring)],
}))
"""


def mmd_samples(tmp_path):
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(7, 3)), rng.normal(size=(7, 3)) + 0.5
    np.save(tmp_path / "x.npy", x)
    np.save(tmp_path / "y.npy", y)
    return x, y


def test_mmd_in_a_fresh_process_equals_an_in_process_call(tmp_path):
    x, y = mmd_samples(tmp_path)
    labels = np.arange(x.shape[0]) % 3
    ring = ModalityRing((EmbeddingBatch(x, labels, "A"), EmbeddingBatch(y, labels, "B")))
    value, grads = loss_gradient("mmd", ring)
    here = {
        "scipy": [],
        "mmd": mmd_squared(x, y),
        "loss": value,
        "grads": [g.tolist() for g in grads],
        "fd": [g.tolist() for g in finite_diff_gradient("mmd", ring)],
    }
    for block in ("block-scipy", "-"):
        assert run_fresh(MMD_VALUES, block, tmp_path / "x.npy", tmp_path / "y.npy", cwd=tmp_path) == here


def test_mmd_command_in_a_fresh_process(tmp_path, capsys):
    x, y = mmd_samples(tmp_path)
    write_embedding_csv(tmp_path / "x.csv", x)
    write_embedding_csv(tmp_path / "y.csv", y)

    def argv(out):
        return ["divergence", "--measure", "mmd", tmp_path / "x.csv", tmp_path / "y.csv", "--out", tmp_path / out]

    assert main([str(a) for a in argv("here.json")]) == 0
    capsys.readouterr()
    value = json.loads((tmp_path / "here.json").read_text())["value"]
    assert value == mmd_squared(x, y)
    for block_scipy in (True, False):
        assert run_cli(*argv("fresh.json"), cwd=tmp_path, block_scipy=block_scipy) == {"code": 0, "scipy": []}
        assert json.loads((tmp_path / "fresh.json").read_text())["value"] == value
