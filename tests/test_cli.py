import json

import numpy as np
import pytest

from csalign.cli import main
from csalign.io import write_emb1, write_embedding_csv

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

    def test_out_file_written(self, pmf_files, tmp_path, capsys):
        onehot, uniform = pmf_files
        out = tmp_path / "report.json"
        main(["divergence", "--measure", "cs", str(onehot), str(uniform), "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["value"] == pytest.approx(0.3465736, abs=1e-6)


class TestPropsCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["props", "--trials", "60"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["failures_total"] == 0
        assert len(report["properties"]) == 8

    def test_fault_injection_fails_with_exit_1(self, capsys):
        assert main(["props", "--trials", "30", "--flip-gcs-sign"]) == 1
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
        "line", ["lr_decay_every = 0", "grad_clip_norm = nan", "learning_rate = nan", "temperature = inf"]
    )
    def test_bad_train_field_is_a_config_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG + line + "\n")
        assert main(["train", "--config", str(cfg), "--outdir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]} must be")
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
    ],
)
def test_empty_or_invalid_run_is_config_error(argv, capsys):
    assert main(argv + ["--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
