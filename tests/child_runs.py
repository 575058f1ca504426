"""Training runs with and without a held-out scoring child, in a fresh process.

``test_heldout.py`` runs ``python child_runs.py SCENARIO`` with
``PYTHONPATH=src`` and ``OPENBLAS_NUM_THREADS=1`` (one OS thread, so a fork
is safe), and reads one JSON object off the last line of stdout. Every
``os.fork`` is counted. ``with_child`` forces the child on (any run size,
any CPU count) or off by patching ``train.child_cpus``; the ``selection``
scenario keeps the real rule.
"""

import json
import os
import signal
import sys
import threading
import traceback

import csalign.train as train
from csalign import MatchStrategy, SynthConfig, TrainConfig, build_encoders, generate_synthetic
from csalign.heldout import CHILD_MIN_SCORES

FORKS = []
_fork = os.fork


def _counted_fork():
    pid = _fork()
    if pid:
        FORKS.append(pid)
        if sys.argv[1] == "orphan":
            print(pid, flush=True)
    return pid


os.fork = _counted_fork


def setup(m=3, per_class=12, dim=10, **overrides):
    synth = SynthConfig(num_classes=3, per_class=per_class, input_dims=(dim,) * m, embed_dim=6,
                        class_sep=8.0, noise_sigma=0.5, seed=3)
    cfg = TrainConfig(**{"max_epochs": 6, "batch_size": 8, "seed": 3, **overrides})
    return generate_synthetic(synth), synth, cfg


def with_child(child, data, synth, cfg):
    """The trace and final parameters of one run, its child forced on or off."""
    train.child_cpus = (lambda scores: os.sched_getaffinity(0)) if child else (lambda scores: None)
    encoders = build_encoders(synth.input_dims, synth.embed_dim, cfg)
    trace = train.train_run(data, encoders, cfg)
    return repr(trace), [p.tobytes().hex() for enc in encoders for p in enc.parameters()]


def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def planted(at_call, fault):
    """Make the ``at_call``-th ``stack_loss_gradient`` call pass its value
    through ``fault``; return the real function."""
    real, calls = train.stack_loss_gradient, []

    def step(*args):
        calls.append(1)
        value, grads = real(*args)
        return (fault(value) if len(calls) == at_call else value), grads

    train.stack_loss_gradient = step
    return real


def equal():
    cases = {
        "gcs_ring": setup(),
        "gcs_ring_m8_sharp": setup(m=8, temperature=0.01),
        "pairwise_cs": setup(loss_kind="pairwise_cs"),
        "kl": setup(loss_kind="kl"),
        "mmd": setup(m=2, loss_kind="mmd"),
        "clockwise": setup(strategy=MatchStrategy.CLOCKWISE),
        "diverging": setup(learning_rate=1e300),
    }
    out = {}
    for name, case in cases.items():
        forks = len(FORKS)
        alone, child = with_child(False, *case), with_child(True, *case)
        out[name] = {"equal": alone == child, "forks": len(FORKS) - forks, "clean": no_child_left()}
    return out


def aborted_midway():
    # 4 steps an epoch: the 14th step's loss is nan, in epoch 3, after the
    # child was sent epochs 0 to 2
    case, runs = setup(), []
    for child in (False, True):
        real = planted(14, lambda value: float("nan"))
        runs.append(with_child(child, *case))
        train.stack_loss_gradient = real
    return {"equal": runs[0] == runs[1], "aborted": "aborted=True" in runs[1][0],
            "forks": len(FORKS), "clean": no_child_left()}


def _raise(value):
    raise RuntimeError("planted")


def _kill_child(value):
    os.kill(FORKS[-1], signal.SIGKILL)
    return value


def outcome():
    """How a run with the child forced on ends: what it raised, the
    ``ScoringChild`` methods that the error left through, and whether a
    process was left."""
    try:
        with_child(True, *setup())
        raised, methods = None, []
    except Exception as exc:
        raised = f"{type(exc).__name__}: {exc}"
        methods = [frame.name for frame in traceback.extract_tb(exc.__traceback__)
                   if frame.filename.endswith("heldout.py")]
    return {"raised": raised, "in": methods, "clean": no_child_left()}


def faults():
    out = {}
    # 4 steps an epoch over 6 epochs: step 6 is in epoch 1, after epoch 0
    # was sent; step 22 is in epoch 5, after the last task was sent
    for name, at_call, fault in [("exception", 6, _raise), ("killed child", 6, _kill_child),
                                 ("killed after the last task", 22, _kill_child)]:
        real = planted(at_call, fault)
        out[name] = outcome()
        train.stack_loss_gradient = real
    trainer, real = os.getpid(), train._evaluate

    def evaluate(*args):
        if os.getpid() != trainer:
            raise RuntimeError("planted in the child")
        return real(*args)

    train._evaluate = evaluate
    out["exception in the child"] = outcome()
    train._evaluate = real
    return out


def long_m8():
    case = setup(m=8, dim=64, max_epochs=150, per_class=4)
    alone, child = with_child(False, *case), with_child(True, *case)
    return {"equal": alone == child, "forks": len(FORKS), "clean": no_child_left()}


def selection():
    # 29 scored epochs x 80^2 held-out pairs x 6 directions: just above the constant
    above = setup(per_class=134, dim=8, max_epochs=30, batch_size=128)
    n_test = round(0.2 * 3 * 134)
    assert 29 * n_test**2 * 6 >= CHILD_MIN_SCORES
    below = setup()
    out = {}

    def forks(label, case):
        start = len(FORKS)
        train.train_run(case[0], build_encoders(case[1].input_dims, case[1].embed_dim, case[2]),
                        case[2])
        out[label] = len(FORKS) - start

    forks("all hold", above)  # under this process's own affinity: two CPUs or more
    real = os.sched_getaffinity
    os.sched_getaffinity = lambda pid: {min(real(pid))}
    forks("one CPU", above)
    os.sched_getaffinity = real
    forks("below the constant", below)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        forks("a second thread", above)
    finally:
        stop.set()
        waiter.join()
    out["clean"] = no_child_left()
    return out


def orphan():
    with_child(True, *setup(per_class=200, dim=64, max_epochs=100_000))


SCENARIOS = {"equal": equal, "aborted midway": aborted_midway, "faults": faults,
             "long m8": long_m8, "selection": selection, "orphan": orphan}

if __name__ == "__main__":
    print(json.dumps(SCENARIOS[sys.argv[1]]()))
