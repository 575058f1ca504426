import json
import math
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

    def test_label_column_out_of_range_exit_2(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        x.write_text("0.1,0.2,0\n0.3,0.4,1\n0.5,0.1,2\n")
        assert main(["divergence", "--measure", "mmd", str(x), str(x), "--label-col", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {x}: label column 5 out of range for 3 columns")

    def test_label_column_of_an_emb1_file_exit_2(self, tmp_path, capsys):
        # EMB1 holds no labels, so the column is refused, not ignored
        x, y = tmp_path / "x.emb1", tmp_path / "y.emb1"
        write_emb1(x, np.eye(3))
        write_emb1(y, np.eye(3)[::-1])
        assert main(["divergence", "--measure", "mmd", str(x), str(y), "--label-col", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {x}: an EMB1 file has no label column, got 7")

    @pytest.mark.parametrize("measure", ["cs", "gcs", "kl"])
    def test_label_column_of_a_pmf_measure_exit_2(self, measure, tmp_path, capsys):
        # PMF files hold no labels: the flag is refused before any file is
        # read, so a missing file is not what the error names
        missing = str(tmp_path / "missing.csv")
        argv = ["divergence", "--measure", measure, missing, missing, "--label-col", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: --label-col applies to mmd and coral, not to measure '{measure}'")

    @pytest.mark.parametrize("measure, count, message", [
        ("cs", 3, "measure 'cs' takes exactly 2 input files, got 3"),
        ("gcs", 1, "need at least 2 input files"),
    ])
    def test_file_count_exit_2_without_output(self, measure, count, message, pmf_files, tmp_path,
                                              capsys):
        out = tmp_path / "out.json"
        files = [str(pmf_files[1])] * count
        assert main(["divergence", "--measure", measure, *files, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "measure, message",
        [("mmd", "error: MMD kernel scale 1/(2 sigma^2) leaves float range at sigma = inf"),
         ("coral", "error: CORAL loss overflows float range (nan)")],
    )
    def test_sample_near_the_float_limit_exit_3_without_a_warning(self, measure, message,
                                                                  tmp_path, capsys):
        # row differences and column sums past float range: the recompute in
        # sq_distances and the column means of coral_terms
        big = tmp_path / "big.csv"
        big.write_text("1e308,-1e308,5e307\n1e308,-1e308,-5e307\n5e307,1e308,1e308\n")
        ok = tmp_path / "ok.csv"
        ok.write_text("0.6,0.1,-0.2\n0.3,0.9,0.5\n-0.4,0.2,1.3\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["divergence", "--measure", measure, str(big), str(ok)]) == 3
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    @pytest.mark.parametrize("measure, shape", [("mmd", (0, 3)), ("coral", (4, 0))])
    def test_empty_emb1_sample_exit_3(self, measure, shape, tmp_path, capsys):
        empty, other = tmp_path / "empty.emb1", tmp_path / "other.emb1"
        write_emb1(empty, np.zeros(shape))
        write_emb1(other, np.arange(5 * shape[1], dtype=float).reshape(5, shape[1]))
        assert main(["divergence", "--measure", measure, str(empty), str(other)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-empty" in captured.err

    @pytest.mark.parametrize("measure", ["cs", "gcs", "kl"])
    def test_pmf_that_fails_validation_is_named_by_file(self, measure, pmf_files, tmp_path, capsys):
        notpmf = tmp_path / "notpmf.csv"
        notpmf.write_text("0.9,0.9\n")
        onehot, _ = pmf_files
        assert main(["divergence", "--measure", measure, str(onehot), str(notpmf)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {notpmf} sums to 1.8, outside 1 +/- 1e-06\n"

    @pytest.mark.parametrize("measure", ["cs", "gcs", "kl"])
    def test_pmf_entries_near_float_max_exit_3_without_a_warning(self, measure, pmf_files, tmp_path,
                                                                 capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("1e308,1e308\n")
        _, uniform = pmf_files
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["divergence", "--measure", measure, str(huge), str(uniform)]) == 3
        assert caught == []
        assert capsys.readouterr().err == f"error: {huge} sums to inf, outside 1 +/- 1e-06\n"

    def test_first_faulty_file_decides_the_exit_code(self, tmp_path, capsys):
        notpmf = tmp_path / "notpmf.csv"
        notpmf.write_text("0.9,0.9\n")
        assert main(["divergence", "--measure", "cs", str(notpmf), str(tmp_path / "absent.csv")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {notpmf} sums to")

    @pytest.mark.parametrize(
        "measure, name, content",
        [("cs", "p.csv", b"0.5,0.5\xe9\n"),
         ("gcs", "p.csv", b"\xff0.5,0.5\n"),
         ("mmd", "x.csv", b"0.1,0.2\n0.3,0.4\xe9\n"),
         ("coral", "x.csv", b"0.1,0.2\n\xe90.3,0.4\n"),
         ("cs", "p.emb1", None),
         ("gcs", "p.emb1", None),
         ("kl", "p.emb1", None),
         ("kl", "absent.csv", "missing"),
         ("mmd", "folder", "directory")],
    )
    def test_unreadable_input_exit_2_with_one_error_line(self, measure, name, content, tmp_path, capsys):
        bad = tmp_path / name
        if content is None:
            write_emb1(bad, np.array([[0.5, 0.5]]))
        elif content == "directory":
            bad.mkdir()
        elif content != "missing":
            bad.write_bytes(content)
        ok = tmp_path / "ok.csv"
        ok.write_text("0.5,0.5\n" if measure in ("cs", "gcs", "kl") else "0.1,0.2\n0.5,0.1\n0.3,0.9\n")
        out = tmp_path / "report.json"
        assert main(["divergence", "--measure", measure, str(bad), str(ok), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"error: cannot read {bad}: ") and captured.err.count("\n") == 1

    def test_cs_of_overlapping_pmfs_whose_product_underflows(self, tmp_path, capsys):
        p = tmp_path / "p.csv"
        p.write_text("1e-170,1,0\n")
        q = tmp_path / "q.csv"
        q.write_text("1e-170,0,1\n")
        values = {}
        for measure in ("cs", "gcs"):
            assert main(["divergence", "--measure", measure, str(p), str(q)]) == 0
            values[measure] = json.loads(capsys.readouterr().out)["value"]
        assert values["cs"] == pytest.approx(340 * math.log(10), rel=1e-12)
        assert values["cs"] == values["gcs"]

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
    ("identity_zero", 20, 0, 0.0),
    ("perturbation_detected", 20, 0, 0.000714693576624903),
    ("symmetry", 10, 0, 4.440892098500626e-16),
    ("scale_invariance", 20, 0, 1.5662760423788641e-15),
    ("m2_reduction", 20, 0, 1.0547118733938987e-15),
    ("power_sum_bounds", 20, 0, 1.9870350059730528e-07),
    ("holder_inequality", 20, 0, -2.216833729549019),
]
SUITE_20_0_FLIPPED = [
    ("non_negativity", 20, 20, -1.7779943786013623),
    ("identity_zero", 20, 0, 0.0),
    ("perturbation_detected", 20, 20, -0.018052957297607364),
    ("symmetry", 10, 0, 4.440892098500626e-16),
    ("scale_invariance", 20, 0, 1.5662760423788641e-15),
    ("m2_reduction", 20, 20, 0.6223243240685639),
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


    @pytest.mark.parametrize("rate", ["1e100", "1e150", "1e300", "1e308"])
    def test_diverging_run_exit_4_and_keeps_the_trace(self, rate, tmp_path, capsys):
        # the first step's update overflows the encoders, so the next
        # step's embeddings are non-finite; no RuntimeWarning on the way
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG + f"learning_rate = {rate}\n")
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", str(cfg), "--outdir", str(out)])
        assert caught == []
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
    def test_diverging_run_exit_4_and_says_why(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG.replace("max_epochs = 4", "max_epochs = 2") + "learning_rate = 1e300\n")
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(cfg), "--outdir", str(out)]) == 4
        assert capsys.readouterr().err == (
            "training aborted: non-finite loss or embeddings, or Adam moments past float range\n")
        metrics = json.loads((out / "metrics.json").read_text())
        assert any(arm["aborted"] for arm in metrics.values())

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


# a step that diverges in the one batch of an epoch, and a weight decay of
# lr * 1e-5 = 1 that sets every parameter to 0
@pytest.mark.parametrize("command, output", [("train", "trace.csv"), ("ablate", "ablation.csv")])
@pytest.mark.parametrize("lines", ["batch_size = 64\nlearning_rate = 1e300\n", "learning_rate = 1e5\n"],
                         ids=["one_batch_diverges", "decay_zeroes"])
def test_rows_a_step_sends_out_of_range_exit_4_and_keep_the_output(command, output, lines,
                                                                     tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace("batch_size = 8\n", "") + lines)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--outdir", str(out)]) == 4
    assert capsys.readouterr().err == (
        "training aborted: non-finite loss or embeddings, or Adam moments past float range\n")
    assert len((out / output).read_text().splitlines()) >= 2
    metrics = json.loads((out / "metrics.json").read_text())
    runs = metrics.values() if command == "ablate" else [metrics]
    assert all(run["aborted"] is True for run in runs)
    assert {v for run in runs for m in run["final"].values() for v in m.values()} == {"nan"}


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
        ["divergence", "--measure", "cs", "{p}", "{p}"],
        ["props", "--trials", "2"],
        ["bench", "--m-min", "2", "--m-max", "2", "--batch", "4", "--dim", "2", "--repeats", "1"],
    ],
)
def test_unwritable_out_exits_2_with_nothing_on_stdout(argv, tmp_path, capsys):
    pmf = tmp_path / "p.csv"
    pmf.write_text("0.5,0.5\n")
    out = tmp_path / "absent" / "report.json"
    assert main([arg.format(p=pmf) for arg in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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


# sizes past the 47-bit address space, so no overcommit setting can grant
# them: numpy's allocation fails, its byte count overflows an index, or the
# integer does not fit int64
@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize(
    "line, named",
    [("per_class = 1000000000000000", "out of memory: Unable to allocate"),
     ("embed_dim = 1000000000000000", "out of memory: Unable to allocate"),
     ("per_class = 3000000000000000000", "2**63 bytes"),
     ("per_class = 10000000000000000000", "bad value for per_class")],
)
def test_size_no_machine_can_hold_is_a_config_error(command, line, named, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace(line.split()[0] + " =", "# was") + line + "\n")
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("dims", ["10,,10", ",10,10", "10,10,,"])
def test_empty_input_dims_token_is_a_config_error(command, dims, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace("input_dims = 10,10,10", f"input_dims = {dims}"))
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad value for input_dims: {dims!r}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_undecodable_config_is_a_config_error(command, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(SMALL_CONFIG.encode().replace(b"seed = 3", b"seed = 3\xff"))
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {cfg}: 'utf-8' codec can't decode byte 0xff")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_outdir_below_a_file_exit_2(command, tmp_path, capsys):
    # the run directory is made when the artifacts are written, after training
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG.replace("max_epochs = 4", "max_epochs = 1"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([command, "--config", str(cfg), "--outdir", str(blocker / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command, csv_name", [("train", "trace.csv"), ("ablate", "ablation.csv")])
@pytest.mark.parametrize("data_seed", ["", "data_seed = 11\n"])
def test_seed_flag_is_the_config_seed(command, csv_name, data_seed, tmp_path, capsys):
    # --seed 7 runs what `seed = 7` in the file runs: data_seed, when given,
    # still draws the data; the manifest keeps the file's own mapping
    small = SMALL_CONFIG.replace("max_epochs = 4", "max_epochs = 2") + data_seed
    flagged, written = tmp_path / "flagged.cfg", tmp_path / "written.cfg"
    flagged.write_text(small)
    written.write_text(small.replace("seed = 3", "seed = 7"))
    assert main([command, "--config", str(flagged), "--outdir", str(tmp_path / "a"), "--seed", "7"]) == 0
    assert main([command, "--config", str(written), "--outdir", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in (csv_name, "metrics.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["config"]["seed"] == "3"
