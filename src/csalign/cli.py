"""Command-line interface.

Subcommands::

    divergence   compute cs/gcs/kl/mmd/coral on user files
    props        run the randomized property suites
    train        synthetic-data training run with per-epoch trace
    ablate       clockwise / counterclockwise / mixed comparison
    bench        2M vs M(M-1) complexity counts and wall-clock

Exit codes: 0 success, 1 property failure, 2 parse/config error (a
size that cannot be allocated included) or OS error (a held-out scoring
child that died mid-run included), 3 validation error, 4 numeric
abort (a non-finite loss, embeddings that a training step sent past
float range, or Adam moments that left it). Only a run that exits 0 or
4 creates its ``--outdir``.
"""

from __future__ import annotations

import argparse
import ctypes
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .divergence import (
    KlConfig,
    MmdConfig,
    coral_loss,
    cs_divergence,
    gcs_divergence,
    kl_alignment,
    mmd_squared,
)
from .errors import ConfigError, CsAlignError
from .io import (
    json_dumps,
    read_embeddings,
    read_kv_config,
    read_pmf_vector,
    write_csv,
    experiment_configs,
)
from .gradients import loss_gradient
from .losses import MatchStrategy, ModalityRing, association_pmf_count
from .pmf import EmbeddingBatch
from .props import run_property_suite
from .synth import generate_synthetic, modality_names
from .train import ablation_run, build_encoders, train_run

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC_ABORT = 4


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _openblas() -> tuple[str | None, int | None]:
    """The core kernel and thread count of the OpenBLAS that numpy ships,
    asked of the library through ctypes; ``None`` for what it cannot tell."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for pattern in ("scipy_openblas_get_{}64_", "openblas_get_{}64_", "openblas_get_{}"):
            core, threads = (getattr(lib, pattern.format(name), None)
                             for name in ("corename", "num_threads"))
            if core is not None and threads is not None:
                core.restype, core.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                return core().decode(), int(threads())
    return None, None


def _environment() -> dict:
    """What the numbers of a run depend on beyond its config: byte-identical
    artifacts hold per BLAS kernel, not across CPUs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 only prints its config
        blas = {}
    core, threads = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core,
        "blas_threads": threads,
    }


def _manifest(command: str, config: dict, seed, started: str, outputs: list[str]) -> dict:
    return {
        "command": command,
        "artifact_version": __version__,
        "seed": seed,
        "config": config,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
        "environment": _environment(),
    }


def _emit(args, report: dict, config: dict, seed, started: str) -> None:
    """Write ``report`` with its manifest last to ``--out``, then print it, so
    that an ``--out`` that cannot be written leaves stdout empty."""
    report["manifest"] = _manifest(args.command, config, seed, started, [args.out] if args.out else [])
    text = json_dumps(report)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


# ---------------------------------------------------------------------------
# divergence

def cmd_divergence(args) -> int:
    started = _now()
    measure = args.measure
    paths = args.files
    if measure in ("cs", "kl", "mmd", "coral") and len(paths) != 2:
        raise ConfigError(f"measure {measure!r} takes exactly 2 input files, got {len(paths)}")
    if len(paths) < 2:
        raise ConfigError("need at least 2 input files")
    try:
        kl_cfg = KlConfig(args.epsilon)
    except ConfigError as exc:
        raise ConfigError(f"--epsilon: {exc}") from exc
    try:
        mmd_cfg = MmdConfig("median" if args.bandwidth == "median" else float(args.bandwidth))
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"--bandwidth must be a positive number or 'median', got {args.bandwidth!r}") from exc

    # in file order, so the first faulty file decides the exit code
    pmfs = measure in ("cs", "gcs", "kl")
    if pmfs and args.label_col is not None:
        raise ConfigError(f"--label-col applies to mmd and coral, not to measure {measure!r}")
    inputs = [read_pmf_vector(p) if pmfs else read_embeddings(p, args.label_col)[0] for p in paths]
    numerator = denominator = None
    if measure in ("cs", "gcs"):
        result = cs_divergence(*inputs) if measure == "cs" else gcs_divergence(inputs)
        value, numerator, denominator = result.value, result.numerator, result.denominator
    elif measure == "kl":
        value = kl_alignment(inputs[0][None, :], inputs[1][None, :], kl_cfg)
    elif measure == "mmd":
        value = mmd_squared(*inputs, mmd_cfg)
    else:  # coral
        value = coral_loss(*inputs)

    report = {
        "measure": measure,
        "value": value,
        "numerator": numerator,
        "denominator": denominator,
        "inputs": [str(p) for p in paths],
    }
    _emit(args, report, {"measure": measure, "files": [str(p) for p in paths]}, None, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# props

def cmd_props(args) -> int:
    started = _now()
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    results = run_property_suite(trials=args.trials, seed=args.seed, gcs_fn=gcs_divergence)
    failures = sum(r.failures for r in results)
    report = {
        "trials": args.trials,
        "seed": args.seed,
        "properties": [
            {"name": r.name, "trials": r.trials, "failures": r.failures, "worst": r.worst}
            for r in results
        ],
        "failures_total": failures,
        "passed": failures == 0,
    }
    config = {"trials": args.trials}
    _emit(args, report, config, args.seed, started)
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# train / ablate

def _experiment(args):
    """The config file's mapping, its data, SynthConfig and TrainConfig; ``--seed``
    enters as the config's own ``seed`` key, so ``data_seed`` still overrides it."""
    mapping = read_kv_config(args.config)
    seed = {} if args.seed is None else {"seed": str(args.seed)}
    synth_cfg, train_cfg = experiment_configs({**mapping, **seed})
    return mapping, generate_synthetic(synth_cfg), synth_cfg, train_cfg


def _write_run(args, mapping, seed, started: str, csv_name: str, table, metrics: dict,
               aborted: bool) -> int:
    """Write ``table`` (header first) as ``csv_name``, ``metrics.json`` and
    ``manifest.json`` into ``--outdir``, the one place that creates it; print
    the metrics. An aborted run says so on stderr and exits 4."""
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path, metrics_path = outdir / csv_name, outdir / "metrics.json"
    write_csv(csv_path, table)
    metrics_path.write_text(json_dumps(metrics) + "\n", encoding="utf-8")
    manifest = _manifest(args.command, dict(mapping), seed, started, [str(csv_path), str(metrics_path)])
    (outdir / "manifest.json").write_text(json_dumps(manifest) + "\n", encoding="utf-8")
    print(json_dumps(metrics))
    if aborted:
        print("training aborted: non-finite loss or embeddings, or Adam moments past float range",
              file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    return EXIT_OK


def cmd_train(args) -> int:
    started = _now()
    mapping, data, synth_cfg, train_cfg = _experiment(args)
    encoders = build_encoders(synth_cfg.input_dims, synth_cfg.embed_dim, train_cfg)
    trace = train_run(data, encoders, train_cfg)

    columns = [(d, p) for d in sorted(trace.directions) for p in ("p1", "p10")]
    table = [["epoch", "loss"] + [f"{p}_{d}" for d, p in columns]]
    table += [[r.epoch, r.loss] + [r.metrics[d][p] for d, p in columns] for r in trace.records]
    metrics = {
        "final": trace.final_metrics,
        "supervised": trace.supervised,
        "aborted": trace.aborted,
        "epochs_run": len(trace.records),
        "first_loss": trace.losses[0] if trace.records else None,
        "final_loss": trace.losses[-1] if trace.records else None,
    }
    return _write_run(args, mapping, train_cfg.seed, started, "trace.csv", table, metrics, trace.aborted)


def cmd_ablate(args) -> int:
    started = _now()
    mapping, data, synth_cfg, train_cfg = _experiment(args)
    arms = ablation_run(data, train_cfg, embed_dim=synth_cfg.embed_dim)

    directions = sorted(arms[0].trace.directions)
    table = [["strategy", "avg_p1", "avg_p10"]
             + [f"{col}_{d}" for d in directions for col in ("p10", "supervised")]]
    for arm in arms:
        row = [arm.strategy, arm.avg_p1, arm.avg_p10]
        for d in directions:
            row += [arm.trace.final_metrics[d]["p10"], int(arm.trace.supervised[d])]
        table.append(row)
    metrics = {
        arm.strategy: {
            "avg_p1": arm.avg_p1,
            "avg_p10": arm.avg_p10,
            "final": arm.trace.final_metrics,
            "supervised": arm.trace.supervised,
            "aborted": arm.trace.aborted,
        }
        for arm in arms
    }
    aborted = any(arm.trace.aborted for arm in arms)
    return _write_run(args, mapping, train_cfg.seed, started, "ablation.csv", table, metrics, aborted)


# ---------------------------------------------------------------------------
# bench

def _bench_ring(m: int, n: int, d: int, seed: int) -> ModalityRing:
    rng = np.random.default_rng(seed)
    classes = max(2, min(8, n // 2))
    labels = np.sort(rng.integers(0, classes, size=n))
    names = modality_names(m)
    batches = tuple(
        EmbeddingBatch(rng.normal(size=(n, d)), labels, names[i]) for i in range(m)
    )
    return ModalityRing(batches, MatchStrategy.MIXED)


def _best_time(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cmd_bench(args) -> int:
    started = _now()
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    if not 2 <= args.m_min <= args.m_max:
        raise ConfigError(f"need 2 <= --m-min <= --m-max, got {args.m_min} and {args.m_max}")
    if args.batch < 2 or args.dim < 1:
        raise ConfigError(f"need --batch >= 2 and --dim >= 1, got {args.batch} and {args.dim}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    rows = []
    for m in range(args.m_min, args.m_max + 1):
        ring = _bench_ring(m, args.batch, args.dim, args.seed)
        # value plus gradient, the call a training step makes
        counts, seconds = {}, {}
        for kind in ("gcs_ring", "pairwise_cs"):
            before = association_pmf_count()
            loss_gradient(kind, ring)
            counts[kind] = association_pmf_count() - before
            seconds[kind] = _best_time(lambda: loss_gradient(kind, ring), args.repeats)
        rows.append(
            {
                "m": m,
                "circular_pmf_count": counts["gcs_ring"],
                "pairwise_pmf_count": counts["pairwise_cs"],
                "circular_seconds": seconds["gcs_ring"],
                "pairwise_seconds": seconds["pairwise_cs"],
                "pairwise_over_circular": seconds["pairwise_cs"] / seconds["gcs_ring"],
            }
        )
    report = {"batch": args.batch, "dim": args.dim, "rows": rows}
    config = {"m_min": args.m_min, "m_max": args.m_max, "batch": args.batch, "dim": args.dim}
    _emit(args, report, config, args.seed, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csalign",
        description="Cross-modal alignment with CS/GCS divergences",
    )
    parser.add_argument("--version", action="version", version=f"csalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_div = sub.add_parser("divergence", help="compute a divergence on input files")
    p_div.add_argument("--measure", required=True, choices=["cs", "gcs", "kl", "mmd", "coral"])
    p_div.add_argument("files", nargs="+", help="2..M PMF vectors or embedding matrices")
    p_div.add_argument("--epsilon", type=float, default=1e-8, help="KL smoothing constant")
    p_div.add_argument("--bandwidth", default="median", help="MMD sigma or 'median'")
    p_div.add_argument("--label-col", type=int, default=None, help="CSV label column index")
    p_div.add_argument("--out", default=None, help="also write the JSON report here")
    p_div.set_defaults(func=cmd_divergence)

    p_props = sub.add_parser("props", help="run the randomized property suites")
    p_props.add_argument("--trials", type=int, default=200)
    p_props.add_argument("--seed", type=int, default=0)
    p_props.add_argument("--out", default=None)
    p_props.set_defaults(func=cmd_props)

    p_train = sub.add_parser("train", help="synthetic-data training run")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--outdir", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.set_defaults(func=cmd_train)

    p_ablate = sub.add_parser("ablate", help="matching-strategy ablation")
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--outdir", required=True)
    p_ablate.add_argument("--seed", type=int, default=None)
    p_ablate.set_defaults(func=cmd_ablate)

    p_bench = sub.add_parser("bench", help="circular vs pairwise complexity")
    p_bench.add_argument("--m-min", type=int, default=2)
    p_bench.add_argument("--m-max", type=int, default=8)
    p_bench.add_argument("--batch", type=int, default=128)
    p_bench.add_argument("--dim", type=int, default=32)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CsAlignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size that no machine can hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
