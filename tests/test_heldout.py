"""The held-out scoring child: same values as in-process scoring, no
process left behind on any exit path, and used only where the rule allows.

Each test starts ``child_runs.py`` in a fresh interpreter with one
OpenBLAS thread, the one condition of the rule that a test process with
BLAS threads running cannot meet.
"""

import json
import os
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


def run_scenario(scenario, timeout=120):
    proc = subprocess.run([sys.executable, str(HERE / "child_runs.py"), scenario], env=ENV,
                          capture_output=True, text=True, timeout=timeout, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc


def child_runs(scenario, timeout=120):
    return json.loads(run_scenario(scenario, timeout).stdout.splitlines()[-1])


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
    proc = run_scenario("faults")
    out = json.loads(proc.stdout.splitlines()[-1])
    killed = ("ChildProcessError: the held-out scoring process was killed by signal 9 "
              "before returning its scores")
    assert out["exception"] == {"raised": "RuntimeError: planted", "in": [], "clean": True}
    # killed in epoch 1: the next submit or collect finds it, whichever runs first after it died
    assert out["killed child"]["raised"] == killed
    assert out["killed child"]["clean"]
    # killed after the last submit: only collect is left to find it
    assert out["killed after the last task"] == {"raised": killed, "in": ["collect", "_failed"],
                                                 "clean": True}
    assert out["exception in the child"]["raised"] == (
        "ChildProcessError: the held-out scoring process exited with status 1 "
        "before returning its scores")
    assert out["exception in the child"]["clean"]
    assert "Traceback" in proc.stderr
    assert "RuntimeError: planted in the child" in proc.stderr


def test_results_past_a_pipe_buffer_do_not_block():
    # M = 8: each task (66,560 bytes) fills a 64 KiB pipe, and 149 epochs'
    # results (267,663 bytes pickled) fill the other; the child writes them
    # only after the trainer's last task, so the two sides never write at once
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
                                "before returning its scores")

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    monkeypatch.setattr(cli_mod, "train_run", failing)
    assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: the held-out scoring process was killed")
    assert not (tmp_path / "run").exists()
