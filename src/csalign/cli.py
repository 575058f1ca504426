"""Command-line interface.

Subcommands::

    divergence   compute cs/gcs/kl/mmd/coral on user files
    props        run the randomized property suites
    train        synthetic-data training run with per-epoch trace
    ablate       clockwise / counterclockwise / mixed comparison
    bench        2M vs M(M-1) complexity counts and wall-clock

Exit codes: 0 success, 1 property failure, 2 parse/config error,
3 validation error, 4 non-finite loss abort.
"""

from __future__ import annotations

import argparse
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
    validate_pmf_row,
)
from .errors import ConfigError, CsAlignError
from .io import (
    json_dumps,
    read_embeddings,
    read_kv_config,
    read_pmf_vector,
    experiment_configs,
)
from .losses import MatchStrategy, ModalityRing, association_pmf_count, gcs_ring_loss, pairwise_sum_loss
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


def _manifest(command: str, config: dict, seed, started: str, outputs: list[str]) -> dict:
    return {
        "command": command,
        "artifact_version": __version__,
        "seed": seed,
        "config": config,
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }


def _emit(report: dict, out: str | None) -> None:
    text = json_dumps(report)
    print(text)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")


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

    numerator = denominator = None
    if measure == "cs":
        result = cs_divergence(read_pmf_vector(paths[0]), read_pmf_vector(paths[1]))
        value, numerator, denominator = result.value, result.numerator, result.denominator
    elif measure == "gcs":
        result = gcs_divergence([read_pmf_vector(p) for p in paths])
        value, numerator, denominator = result.value, result.numerator, result.denominator
    elif measure == "kl":
        p = validate_pmf_row(read_pmf_vector(paths[0]), paths[0])[None, :]
        q = validate_pmf_row(read_pmf_vector(paths[1]), paths[1])[None, :]
        value = kl_alignment(p, q, KlConfig(args.epsilon))
    elif measure == "mmd":
        cfg = MmdConfig("median" if args.bandwidth == "median" else float(args.bandwidth))
        x, _ = read_embeddings(paths[0], args.label_col)
        y, _ = read_embeddings(paths[1], args.label_col)
        value = mmd_squared(x, y, cfg)
    else:  # coral
        x, _ = read_embeddings(paths[0], args.label_col)
        y, _ = read_embeddings(paths[1], args.label_col)
        value = coral_loss(x, y)

    report = {
        "measure": measure,
        "value": value,
        "numerator": numerator,
        "denominator": denominator,
        "inputs": [str(p) for p in paths],
        "manifest": _manifest(
            "divergence", {"measure": measure, "files": [str(p) for p in paths]},
            None, started, [args.out] if args.out else [],
        ),
    }
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# props

def cmd_props(args) -> int:
    started = _now()
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    gcs_fn = gcs_divergence
    if args.flip_gcs_sign:
        # fault-injection hook: prove the suite catches a broken GCS
        def gcs_fn(pmfs):
            result = gcs_divergence(pmfs)
            return type(result)(-result.value, result.numerator, result.denominator)

    results = run_property_suite(trials=args.trials, seed=args.seed, gcs_fn=gcs_fn)
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
        "manifest": _manifest(
            "props", {"trials": args.trials, "flip_gcs_sign": bool(args.flip_gcs_sign)},
            args.seed, started, [args.out] if args.out else [],
        ),
    }
    _emit(report, args.out)
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# train / ablate

def _direction_columns(directions: list[str]) -> list[str]:
    cols = []
    for d in sorted(directions):
        cols.extend([f"p1_{d}", f"p10_{d}"])
    return cols


def _write_trace_csv(path: Path, trace) -> None:
    directions = sorted(trace.directions)
    header = ["epoch", "loss"] + _direction_columns(directions)
    lines = [",".join(header)]
    for record in trace.records:
        cells = [str(record.epoch), format(record.loss, ".17g")]
        for d in directions:
            cells.append(format(record.metrics[d]["p1"], ".17g"))
            cells.append(format(record.metrics[d]["p10"], ".17g"))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _train_setup(args):
    mapping = read_kv_config(args.config)
    synth_cfg, train_cfg, align_cfg = experiment_configs(mapping)
    if args.seed is not None:
        from dataclasses import replace

        train_cfg = replace(train_cfg, seed=args.seed)
        synth_cfg = replace(synth_cfg, seed=args.seed if "data_seed" not in mapping else synth_cfg.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return mapping, synth_cfg, train_cfg, align_cfg, outdir


def cmd_train(args) -> int:
    started = _now()
    mapping, synth_cfg, train_cfg, _, outdir = _train_setup(args)
    data = generate_synthetic(synth_cfg)
    encoders = build_encoders(synth_cfg.input_dims, synth_cfg.embed_dim, train_cfg)
    trace = train_run(data, encoders, train_cfg)

    trace_path = outdir / "trace.csv"
    metrics_path = outdir / "metrics.json"
    manifest_path = outdir / "manifest.json"
    _write_trace_csv(trace_path, trace)
    metrics = {
        "final": trace.final_metrics,
        "supervised": trace.supervised,
        "aborted": trace.aborted,
        "epochs_run": len(trace.records),
        "first_loss": trace.losses[0] if trace.records else None,
        "final_loss": trace.losses[-1] if trace.records else None,
    }
    metrics_path.write_text(json_dumps(metrics) + "\n", encoding="utf-8")
    manifest = _manifest(
        "train", dict(mapping), train_cfg.seed, started,
        [str(trace_path), str(metrics_path)],
    )
    manifest_path.write_text(json_dumps(manifest) + "\n", encoding="utf-8")
    print(json_dumps(metrics))
    if trace.aborted:
        print("training aborted on non-finite loss", file=sys.stderr)
        return EXIT_NUMERIC_ABORT
    return EXIT_OK


def cmd_ablate(args) -> int:
    started = _now()
    mapping, synth_cfg, train_cfg, _, outdir = _train_setup(args)
    data = generate_synthetic(synth_cfg)
    arms = ablation_run(data, train_cfg, embed_dim=synth_cfg.embed_dim)

    directions = sorted(arms[0].trace.directions)
    header = ["strategy", "avg_p1", "avg_p10"]
    for d in directions:
        header.extend([f"p10_{d}", f"supervised_{d}"])
    lines = [",".join(header)]
    for arm in arms:
        cells = [arm.strategy, format(arm.avg_p1, ".17g"), format(arm.avg_p10, ".17g")]
        for d in directions:
            cells.append(format(arm.trace.final_metrics[d]["p10"], ".17g"))
            cells.append("1" if arm.trace.supervised[d] else "0")
        lines.append(",".join(cells))
    csv_path = outdir / "ablation.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

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
    metrics_path = outdir / "metrics.json"
    metrics_path.write_text(json_dumps(metrics) + "\n", encoding="utf-8")
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(
        json_dumps(
            _manifest("ablate", dict(mapping), train_cfg.seed, started,
                      [str(csv_path), str(metrics_path)])
        )
        + "\n",
        encoding="utf-8",
    )
    print(json_dumps(metrics))
    if any(arm.trace.aborted for arm in arms):
        return EXIT_NUMERIC_ABORT
    return EXIT_OK


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
    rows = []
    for m in range(args.m_min, args.m_max + 1):
        ring = _bench_ring(m, args.batch, args.dim, args.seed)
        before = association_pmf_count()
        gcs_ring_loss(ring)
        circular_count = association_pmf_count() - before
        before = association_pmf_count()
        pairwise_sum_loss(ring)
        pairwise_count = association_pmf_count() - before
        circular_time = _best_time(lambda: gcs_ring_loss(ring), args.repeats)
        pairwise_time = _best_time(lambda: pairwise_sum_loss(ring), args.repeats)
        rows.append(
            {
                "m": m,
                "circular_pmf_count": circular_count,
                "pairwise_pmf_count": pairwise_count,
                "circular_seconds": circular_time,
                "pairwise_seconds": pairwise_time,
                "pairwise_over_circular": pairwise_time / circular_time,
            }
        )
    report = {
        "batch": args.batch,
        "dim": args.dim,
        "rows": rows,
        "manifest": _manifest(
            "bench",
            {"m_min": args.m_min, "m_max": args.m_max, "batch": args.batch, "dim": args.dim},
            args.seed, started, [args.out] if args.out else [],
        ),
    }
    _emit(report, args.out)
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
    p_props.add_argument(
        "--flip-gcs-sign", action="store_true",
        help="fault-injection hook: negate GCS inside the suite",
    )
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


if __name__ == "__main__":
    sys.exit(main())
