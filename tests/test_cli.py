import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from csalign.cli import main
from csalign.divergence import gcs_divergence
from csalign.io import write_emb1, write_embedding_csv
from csalign.props import run_property_suite

SMALL_CONFIG = """
num_classes = 3
per_class = 12
input_dims = 10,10,10
embed_dim = 6
class_sep = 8.0
noise_sigma = 0.5
seed = 3
max_epochs = 4
batch_size = 8
loss_kind = gcs_ring
strategy = mixed
"""


@pytest.fixture
def pmf_files(tmp_path):
    onehot = tmp_path / "onehot.csv"
    uniform = tmp_path / "uniform.csv"
    onehot.write_text("1,0\n")
    uniform.write_text("0.5,0.5\n")
    return onehot, uniform


class TestDivergenceCommand:
    def test_cs_identical_pmfs(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        p.write_text("0.5,0.5\n")
        q = tmp_path / "q.csv"
        q.write_text("0.5,0.5\n")
        assert main(["divergence", "--measure", "cs", str(p), str(q)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(0.0, abs=1e-12)

    def test_cs_hand_value(self, pmf_files, capsys):
        onehot, uniform = pmf_files
        assert main(["divergence", "--measure", "cs", str(onehot), str(uniform)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(0.3465736, abs=1e-6)
        assert report["measure"] == "cs"
        assert {"measure", "value", "numerator", "denominator"} <= set(report)

    def test_gcs_three_identical(self, tmp_path, capsys):
        paths = []
        for i in range(3):
            p = tmp_path / f"p{i}.csv"
            p.write_text("0.25,0.25,0.25,0.25\n")
            paths.append(str(p))
        assert main(["divergence", "--measure", "gcs", *paths]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.0, abs=1e-12)

    def test_gcs_of_pmfs_whose_products_underflow(self, tmp_path, capsys):
        # 200 uniform 64-point PMFs: every product and power sum underflows
        paths = []
        for i in range(200):
            p = tmp_path / f"p{i}.csv"
            p.write_text(",".join(["0.015625"] * 64) + "\n")
            paths.append(str(p))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["divergence", "--measure", "gcs", *paths]) == 0
        assert caught == []
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.0, abs=1e-12)

    def test_mmd_on_embedding_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = tmp_path / "x.csv"
        y = tmp_path / "y.bin"
        data = rng.normal(size=(6, 3))
        write_embedding_csv(x, data)
        write_emb1(y, data)
        code = main(["divergence", "--measure", "mmd", str(x), str(y), "--bandwidth", "1.0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.0, abs=1e-12)

    def test_bad_bandwidth_exit_2(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        write_embedding_csv(x, np.eye(3))
        assert main(["divergence", "--measure", "mmd", str(x), str(x), "--bandwidth", "abc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --bandwidth")

    @pytest.mark.parametrize("measure", ["cs", "gcs", "kl", "mmd", "coral"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--bandwidth", "abc"), ("--bandwidth", "-1"), ("--bandwidth", "nan"),
         ("--epsilon", "-5"), ("--epsilon", "inf")],
    )
    def test_bad_flag_exit_2_before_any_file_is_read(self, measure, flag, value, tmp_path, capsys):
        # the files do not exist: an error naming the flag shows it was checked first
        missing = str(tmp_path / "missing.csv")
        assert main(["divergence", "--measure", measure, missing, missing, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}")

    def test_bad_bandwidth_and_epsilon_on_cs_exit_2(self, pmf_files, capsys):
        onehot, uniform = pmf_files
        argv = ["divergence", "--measure", "cs", str(onehot), str(uniform), "--bandwidth", "abc", "--epsilon", "-5"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flags", [[], ["--epsilon", "0"], ["--bandwidth", "median"], ["--bandwidth", "0.5"]])
    def test_valid_flags_pass_on_kl(self, pmf_files, flags, capsys):
        onehot, uniform = pmf_files
        assert main(["divergence", "--measure", "kl", str(onehot), str(uniform), *flags]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["value"])

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,numbers\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("0.5,0.5\n")
        assert main(["divergence", "--measure", "cs", str(bad), str(ok)]) == 2

    def test_validation_error_exit_3(self, tmp_path, capsys):
        notpmf = tmp_path / "notpmf.csv"
        notpmf.write_text("0.9,0.9\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("0.5,0.5\n")
        assert main(["divergence", "--measure", "cs", str(notpmf), str(ok)]) == 3

    @pytest.mark.parametrize("label", ["1e30", "inf", "-1"])
    def test_bad_label_exit_2_without_a_warning(self, label, tmp_path):
        # a fresh interpreter, so that a numpy warning would reach stderr
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        x.write_text(f"0.1,0.2,{label}\n0.3,0.4,1\n0.5,0.1,2\n")
        y.write_text("0.1,0.2,1\n0.3,0.9,1\n0.5,0.1,2\n")
        argv = ["divergence", "--measure", "mmd", str(x), str(y), "--label-col", "2"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "csalign.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: {x}: label column 2 holds {float(label)!r}")
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("measure", ["mmd", "coral"])
    def test_non_finite_sample_exit_3(self, measure, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.1,0.2\nnan,0.5\n0.3,0.4\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("0.1,0.2\n0.2,0.5\n0.3,0.4\n")
        assert main(["divergence", "--measure", measure, str(bad), str(ok), "--bandwidth", "1.0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err

    @pytest.mark.parametrize("measure", ["mmd", "coral"])
    def test_finite_sample_that_overflows_exit_3(self, measure, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("1e200,-1e200,0.5\n-1e200,1e200,0.25\n1e200,1e200,-1e200\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("0.1,0.2,0.3\n0.4,-0.5,0.6\n-0.7,0.8,0.9\n1.0,1.1,-1.2\n")
        assert main(["divergence", "--measure", measure, str(big), str(ok)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "float range" in captured.err

    @pytest.mark.parametrize("measure, shape", [("mmd", (0, 3)), ("coral", (4, 0))])
    def test_empty_emb1_sample_exit_3(self, measure, shape, tmp_path, capsys):
        empty, other = tmp_path / "empty.emb1", tmp_path / "other.emb1"
        write_emb1(empty, np.zeros(shape))
        write_emb1(other, np.arange(5 * shape[1], dtype=float).reshape(5, shape[1]))
        assert main(["divergence", "--measure", measure, str(empty), str(other)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-empty" in captured.err

    def test_out_file_written(self, pmf_files, tmp_path, capsys):
        onehot, uniform = pmf_files
        out = tmp_path / "report.json"
        main(["divergence", "--measure", "cs", str(onehot), str(uniform), "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["value"] == pytest.approx(0.3465736, abs=1e-6)


def flipped_gcs(pmfs):
    result = gcs_divergence(pmfs)
    return type(result)(-result.value, result.numerator, result.denominator)


# (name, trials, failures, worst) of run_property_suite(trials=20, seed=0),
# pinned so that a change to any property's rng stream shows
SUITE_20_0 = [
    ("non_negativity", 20, 0, 0.18516989428603559),
    ("identity_zero", 20, 0, 1.7763568394002505e-15),
    ("perturbation_detected", 20, 0, 0.000714693576625347),
    ("symmetry", 10, 0, 1.7763568394002505e-15),
    ("scale_invariance", 20, 0, 1.807533020452033e-14),
    ("m2_reduction", 20, 0, 6.106226635438361e-16),
    ("power_sum_bounds", 20, 0, 1.9870350059730528e-07),
    ("holder_inequality", 20, 0, -2.216833729549019),
]
SUITE_20_0_FLIPPED = [
    ("non_negativity", 20, 20, -1.7779943786013632),
    ("identity_zero", 20, 0, 1.7763568394002505e-15),
    ("perturbation_detected", 20, 20, -0.01805295729760914),
    ("symmetry", 10, 0, 1.7763568394002505e-15),
    ("scale_invariance", 20, 0, 1.807533020452033e-14),
    ("m2_reduction", 20, 20, 0.6223243240685634),
    ("power_sum_bounds", 20, 0, 1.9870350059730528e-07),
    ("holder_inequality", 20, 0, -2.216833729549019),
]


@pytest.mark.parametrize(
    "gcs_fn, expected", [(gcs_divergence, SUITE_20_0), (flipped_gcs, SUITE_20_0_FLIPPED)]
)
def test_property_suite_values_are_pinned(gcs_fn, expected):
    results = run_property_suite(trials=20, seed=0, gcs_fn=gcs_fn)
    assert [(r.name, r.trials, r.failures, r.worst) for r in results] == expected


def nan_gcs(pmfs):
    result = gcs_divergence(pmfs)
    return type(result)(float("nan"), result.numerator, result.denominator)


def test_property_suite_fails_a_nan_divergence():
    results = {r.name: r for r in run_property_suite(trials=20, seed=0, gcs_fn=nan_gcs)}
    for name in ("non_negativity", "identity_zero", "symmetry", "m2_reduction"):
        assert results[name].failures == results[name].trials
        assert np.isnan(results[name].worst)


class TestPropsCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["props", "--trials", "60"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["failures_total"] == 0
        assert len(report["properties"]) == 8

    def test_fault_injection_fails_with_exit_1(self, capsys, monkeypatch):
        import csalign.cli as cli_mod

        monkeypatch.setattr(cli_mod, "gcs_divergence", flipped_gcs)
        assert main(["props", "--trials", "30"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False


class TestTrainCommand:
    def test_deterministic_trace_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", str(cfg), "--outdir", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--outdir", str(out2)]) == 0
        capsys.readouterr()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["command"] == "train" and manifest["seed"] == 3
        metrics = json.loads((out1 / "metrics.json").read_text())
        assert set(metrics["final"]) == {"A2B", "A2C", "B2A", "B2C", "C2A", "C2B"}

    def test_trace_has_expected_columns(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--outdir", str(out)])
        capsys.readouterr()
        header = (out / "trace.csv").read_text().splitlines()[0].split(",")
        assert header[:2] == ["epoch", "loss"]
        assert "p1_A2B" in header and "p10_C2B" in header

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense_key = 5\n")
        assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "grad_clip_norm = nan", "learning_rate = nan", "temperature = inf",
            "temperature = 0", "seed = -2", "data_seed = -2",
            # a temperature whose reciprocal overflows, one below 4 M (M + 1) / DBL_MAX
            # at M = 3, and a hold-out share past [0, 1)
            "temperature = 1e-320", "temperature = 1e-308", "holdout_fraction = 1.5",
        ],
    )
    def test_bad_train_field_is_a_config_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace(line.split()[0] + " =", "# was") + line + "\n")
        assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]} must be")
        assert not (tmp_path / "run").exists()

    # settings the trainer fixes (ADAM_*, WEIGHT_DECAY, the LR_DECAY_*
    # schedule, linear encoders drawn at INIT_SCALE)
    @pytest.mark.parametrize(
        "key",
        ["adam_beta1", "adam_beta2", "adam_epsilon", "weight_decay", "lr_decay_factor",
         "lr_decay_every", "hidden_dim", "init_scale"],
    )
    def test_removed_train_key_is_unknown(self, key, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG + f"{key} = 1\n")
        assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown config keys: [{key!r}]")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line", ["class_sep = inf", "noise_sigma = inf"])
    def test_infinite_synth_scale_is_a_config_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace(line.split()[0] + " =", "# was") + line + "\n")
        assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]} must be finite")
        assert not (tmp_path / "run").exists()

    def test_aborted_run_exit_4(self, tmp_path, capsys, monkeypatch):
        import csalign.cli as cli_mod

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        real = cli_mod.train_run

        def aborting(data, encoders, train_cfg):
            trace = real(data, encoders, train_cfg)
            object.__setattr__(trace, "aborted", True)
            return trace

        monkeypatch.setattr(cli_mod, "train_run", aborting)
        code = main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")])
        capsys.readouterr()
        assert code == 4


    @pytest.mark.parametrize("rate", ["1e100", "1e150", "1e300"])
    def test_diverging_run_exit_4_and_keeps_the_trace(self, rate, tmp_path, capsys):
        # the first step's update overflows the encoders, so the next
        # step's embeddings are non-finite
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG + f"learning_rate = {rate}\n")
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(cfg), "--outdir", str(out)])
        assert code == 4
        assert capsys.readouterr().err.startswith("training aborted: non-finite loss or embeddings")
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[:3] == ["0", "nan", "nan"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["aborted"] is True and metrics["epochs_run"] == 1
        assert {v for m in metrics["final"].values() for v in m.values()} == {"nan"}


    def test_adam_overflow_exit_4_and_keeps_the_trace(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG + "temperature = 1e-200\ngrad_clip_norm = 0\n")
        out = tmp_path / "run"
        with np.errstate(over="raise"):  # the abort takes no overflowing step
            code = main(["train", "--config", str(cfg), "--outdir", str(out)])
        assert code == 4
        assert "Adam moments" in capsys.readouterr().err
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 2 and float(rows[1].split(",")[1]) > 1e199
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["aborted"] is True and metrics["epochs_run"] == 1

    def test_manifest_records_the_environment(self, tmp_path, capsys):
        import platform

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace("max_epochs = 4", "max_epochs = 1"))
        assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        env = json.loads((tmp_path / "run" / "manifest.json").read_text())["environment"]
        assert set(env) == {"python", "numpy", "blas", "blas_version", "blas_core", "blas_threads"}
        assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (env["blas"], env["blas_version"]) == (blas.get("name"), blas.get("version"))
        assert env["blas_core"] is None or isinstance(env["blas_core"], str)
        assert env["blas_threads"] is None or env["blas_threads"] >= 1


class TestAblateCommand:
    def test_rows_and_flags(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(cfg), "--outdir", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 4  # header + three strategies
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"clockwise", "counterclockwise", "mixed"}
        assert all(metrics["mixed"]["supervised"].values())
        assert sum(1 for v in metrics["clockwise"]["supervised"].values() if not v) == 3


class TestBenchCommand:
    def test_counts_match_complexity_claim(self, capsys):
        code = main(
            ["bench", "--m-min", "2", "--m-max", "5", "--batch", "32", "--dim", "8",
             "--repeats", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for row in report["rows"]:
            m = row["m"]
            assert row["circular_pmf_count"] == 2 * m
            assert row["pairwise_pmf_count"] == m * (m - 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--repeats", "0"],
        ["bench", "--m-min", "4", "--m-max", "3"],
        ["bench", "--m-min", "1", "--m-max", "2"],
        ["props", "--trials", "0"],
        ["props", "--trials", "-3"],
        ["bench", "--batch", "-5"],
        ["bench", "--batch", "1"],
        ["bench", "--dim", "-1"],
        ["bench", "--dim", "0"],
    ],
)
def test_empty_or_invalid_run_is_config_error(argv, capsys):
    assert main(argv + ["--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert argv[1] in captured.err


@pytest.mark.parametrize("command", ["props", "bench", "train", "ablate"])
def test_negative_seed_is_a_config_error(command, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG)
    argv = [command, "--seed", "-1"]
    if command in ("train", "ablate"):
        argv += ["--config", str(cfg), "--outdir", str(tmp_path / "run")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "seed must be non-negative" in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, kind",
    [("train", "gcs_ring"), ("train", "pairwise_cs"), ("train", "kl"), ("ablate", "gcs_ring")],
)
def test_one_modality_is_a_config_error(command, kind, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace("input_dims = 10,10,10", "input_dims = 10")
                   .replace("loss_kind = gcs_ring", f"loss_kind = {kind}"))
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: loss kind {kind!r} needs M >= 2 modalities, got M = 1")
    assert not (tmp_path / "run").exists()
