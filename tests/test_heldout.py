"""The held-out scoring child: same values as in-process scoring, no
process left behind on any exit path, and used only where the rule allows.

Each test starts ``child_runs.py`` in a fresh interpreter with one
OpenBLAS thread, the one condition of the rule that a test process with
BLAS threads running cannot meet.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from csalign.cli import main

from test_cli import SMALL_CONFIG

HERE = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), OPENBLAS_NUM_THREADS="1")


def child_runs(scenario, timeout=120):
    proc = subprocess.run([sys.executable, str(HERE / "child_runs.py"), scenario], env=ENV,
                          capture_output=True, text=True, timeout=timeout, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def equal_runs():
    return child_runs("equal")


@pytest.mark.parametrize("case", ["gcs_ring", "gcs_ring_m8_sharp", "pairwise_cs", "kl", "mmd",
                                  "clockwise", "diverging"])
def test_child_scores_equal_in_process_scores(equal_runs, case):
    # records, final metrics, aborted and the trained parameters
    assert equal_runs[case] == {"equal": True, "forks": 1, "clean": True}


def test_run_aborted_midway_equals_in_process_run():
    assert child_runs("aborted midway") == {"equal": True, "aborted": True, "forks": 1,
                                            "clean": True}


def test_exception_and_killed_child_raise_and_leave_no_process():
    out = child_runs("faults")
    assert out["exception"] == {"raised": "RuntimeError: planted", "clean": True}
    # killed in epoch 1: whether it had scored epoch 0 by then is a race
    assert re.fullmatch("ChildProcessError: the held-out scoring process was killed by signal 9 "
                        "before scoring epoch [01]", out["killed child"]["raised"])
    assert out["killed child"]["clean"]


def test_results_past_a_pipe_buffer_do_not_block():
    # M = 8: each task (66,560 bytes) fills a 64 KiB pipe, and 150 epochs'
    # results (134 KB) would fill the other if nobody read them during the run
    assert child_runs("long m8", timeout=60) == {"equal": True, "forks": 1, "clean": True}


def test_fork_only_where_every_condition_holds():
    assert child_runs("selection") == {"all hold": 1, "one CPU": 0, "below the constant": 0,
                                       "a second thread": 0, "clean": True}


def test_child_exits_when_the_trainer_is_killed():
    proc = subprocess.Popen([sys.executable, str(HERE / "child_runs.py"), "orphan"], env=ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        pid = int(proc.stdout.readline())
        time.sleep(0.2)  # the child is scoring or waiting for its next task
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return  # exited and reaped
        if state in "ZX":
            return  # exited, not yet reaped by its new parent
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    pytest.fail("the scoring child outlived its trainer")


def test_failed_child_exits_2(tmp_path, capsys, monkeypatch):
    import csalign.cli as cli_mod

    def failing(data, encoders, cfg):
        raise ChildProcessError("the held-out scoring process was killed by signal 9 "
                                "before scoring epoch 3")

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    monkeypatch.setattr(cli_mod, "train_run", failing)
    assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: the held-out scoring process was killed")
    assert not (tmp_path / "run").exists()
