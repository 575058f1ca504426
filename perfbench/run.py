"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload train-c7 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: csalign is imported from ``src/``
there and nowhere else. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the environment manifest. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` half the time runs untraced and half
traced, and the metrics are the per-layer ones. Each run also writes its
result (and, when traced, its spans) under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is one closed-loop process, and on a
# shared 2-core box a second BLAS thread adds contention, not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 21


def _import_program():
    """Import csalign from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "csalign" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import csalign

    if not Path(csalign.__file__).resolve().is_relative_to(SRC):
        return None
    return csalign


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Threads of the OpenBLAS that numpy ships, asked of the library itself."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def manifest(args, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(workload, seconds: float, tracer=None) -> list:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(tracer))
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_program() is None:
        print(f"csalign sources not found under {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, instrument
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    workload = WORKLOADS[args.workload](seed)

    setup_s, synth_s = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        parts = workload.setup()
        setup_s.append(time.perf_counter() - start)
        synth_s.append(parts.get("synth.generate", 0.0))
    workload.warmup()

    traced, tracer = [], None
    if args.trace:
        untraced = measure(workload, args.seconds / 2)
        tracer = Tracer()
        with instrument(tracer):
            traced = measure(workload, args.seconds / 2, tracer)
    else:
        untraced = measure(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = untraced + traced
    problems = [p for r in rounds for p in r.problems] + workload.verify(rounds)

    # The fastest round: on a shared box the CPU alternates between a fast
    # and a slower state every few seconds, so the median round moves with
    # the share of slow time in a run; the fastest does not.
    round_s = min(r.seconds for r in untraced)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        values = workload.layer_metrics(untraced, traced, tracer.summary())
        values["synth.generate_s"] = statistics.median(synth_s)
        values["trace.overhead_s"] = min(r.seconds for r in traced) - round_s
        # a layer this workload does not run reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb, "round_s": round_s}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    env = manifest(args, seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": env, "result": result, "rounds": len(untraced), "traced_rounds": len(traced),
              "problems": problems}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"manifest": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
