"""Per-epoch held-out scoring in a forked child, overlapped with training.

``train_run`` scores its held-out split after every epoch. Where
``child_cpus`` finds that a second process pays and is safe, it forks one
``ScoringChild`` before the first epoch: at each epoch's end the trainer
sends it its flat parameter buffer and trains on, while the child reads
it into its own (forked) copy of that buffer, which its encoders view,
and scores them with the trainer's own scoring function, so its metrics
equal an in-process evaluation's exactly. It keeps each epoch's metrics
dicts and writes them back as one pickled list after the last epoch is
sent, so only one side writes at a time and neither waits on a full pipe.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

import numpy as np

# Fewest held-out scores, (epochs the child scores) x n_test^2 x M(M-1),
# for a run to fork a scoring child. Below it, the fork and the
# copy-on-write faults that follow it (about 5 ms on a 45 MB process)
# cost more than the overlap saves: on a 2-core x86_64 VM, M = 3 runs
# took 1.04x as long with a child at 0.54 M and 0.78 M scores, and
# 0.965x at 1.1 M.
CHILD_MIN_SCORES = 1_000_000


def child_cpus(scores: int) -> set[int] | None:
    """The CPUs a scoring child should run on, or None to score in this
    process. A child is used only where ``os.fork`` and
    ``os.sched_setaffinity`` exist, ``/proc/self/stat`` shows this process
    running one OS thread (a fork beside BLAS or other threads can leave
    the child a lock that no thread will release), its affinity mask
    allows two CPUs or more, and the run scores at least
    ``CHILD_MIN_SCORES``. The child gets every allowed CPU but the one
    this process last ran on; left to the scheduler, both often share one
    CPU."""
    if scores < CHILD_MIN_SCORES or not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return None
    try:
        with open("/proc/self/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return None
    # fields 20 (threads) and 39 (the CPU last run on), counted past the
    # parenthesised command name, which may itself hold spaces
    fields = stat[stat.rindex(b")") + 2 :].split()
    allowed = os.sched_getaffinity(0)
    if int(fields[17]) != 1 or len(allowed) < 2:
        return None
    return allowed - {int(fields[36])} or allowed


class ScoringChild:
    """A forked process that scores the parameters it is sent.

    ``params`` is the C-contiguous array the trainer updates in place (its
    flat run buffer), ``score`` maps its current values to a picklable
    result, and the child is pinned to ``cpus``. Entering the ``with``
    block forks the child. ``submit`` sends it the buffer as it is, one
    message, a blocking write that the child drains as it scores; the
    child reads each message into its copy of the buffer. ``collect``
    closes the task pipe and unpickles the list of results, in the order
    sent, that the child writes on that EOF. A child that dies before that
    list is read whole, one result per task, raises ``ChildProcessError``.
    The child also stops on EOF when the trainer dies, and leaves through
    ``os._exit``. Leaving the ``with`` block reaps it, killing it first
    when an exception is on its way out.
    """

    def __init__(self, params: np.ndarray, score, cpus: set[int]):
        self.params, self.score, self.cpus = params, score, cpus
        self.sent = 0

    def __enter__(self) -> ScoringChild:
        task_in, task_out = os.pipe()
        result_in, result_out = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (task_in, task_out, result_in, result_out):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(task_out)
            os.close(result_in)
            self._serve(task_in, result_out)
        os.close(task_in)
        os.close(result_out)
        self.tasks = open(task_out, "wb", buffering=0)  # closing flushes nothing into a dead child
        self.results = open(result_in, "rb")
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.tasks.close()  # EOF: the child's loop ends
        self.results.close()
        if self.pid is not None:
            if exc_type is not None:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)

    def _serve(self, tasks: int, results: int):
        """The child's loop: score each message until EOF, then write every
        result and exit."""
        status = 1
        try:
            os.sched_setaffinity(0, self.cpus)
            task = memoryview(self.params).cast("B")
            scored = []
            with open(tasks, "rb") as reader, open(results, "wb") as writer:
                while reader.readinto(task) == task.nbytes:
                    scored.append(self.score())
                pickle.dump(scored, writer)
            status = 0
        except BrokenPipeError:
            pass  # the trainer is gone
        except Exception:
            sys.excepthook(*sys.exc_info())
        finally:
            os._exit(status)

    def submit(self) -> None:
        """Send the current parameters to be scored."""
        task = memoryview(self.params).cast("B")
        self.sent += 1
        try:
            while task:
                task = task[self.tasks.write(task) :]
        except BrokenPipeError:
            self._failed()

    def collect(self) -> list:
        """Every submitted epoch's result, in the order sent."""
        self.tasks.close()  # EOF: the child writes its results and exits
        try:
            scored = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            scored = None  # the child died before writing them all
        if scored is None or len(scored) != self.sent:
            self._failed()
        return scored

    def _failed(self):
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"the held-out scoring process {how} before returning its scores")
