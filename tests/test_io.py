import re
from dataclasses import fields

import numpy as np
import pytest

from csalign.errors import ConfigError, NotAPmf
from csalign.io import (
    _KEY_TYPES,
    experiment_configs,
    json_dumps,
    parse_kv_config,
    read_embedding_csv,
    read_embeddings,
    read_emb1,
    read_kv_config,
    read_pmf_vector,
    write_emb1,
    write_embedding_csv,
)
from csalign.losses import MatchStrategy
from csalign.synth import SynthConfig
from csalign.train import TrainConfig


class TestEmbeddingCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3))
        path = tmp_path / "emb.csv"
        write_embedding_csv(path, data)
        loaded, labels = read_embedding_csv(path)
        assert labels is None
        assert np.array_equal(loaded, data)  # 17 significant digits round-trip

    def test_label_column_extraction(self, tmp_path):
        path = tmp_path / "emb.csv"
        write_embedding_csv(path, np.array([[1.5, 2.5], [3.5, 4.5]]), labels=[7, 9])
        data, labels = read_embedding_csv(path, label_col=-1)
        assert data.shape == (2, 2)
        assert labels.tolist() == [7, 9]

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_embedding_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,two\n")
        with pytest.raises(ConfigError):
            read_embedding_csv(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            read_embedding_csv(tmp_path / "absent.csv")


class TestEmb1Binary:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(4, 6))
        path = tmp_path / "emb.bin"
        write_emb1(path, data)
        assert np.array_equal(read_emb1(path), data)
        assert path.read_bytes()[:4] == b"EMB1"
        assert len(path.read_bytes()) == 16 + 8 * 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ConfigError):
            read_emb1(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        write_emb1(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError):
            read_emb1(path)

    def test_one_dimensional_array_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="EMB1 stores 2-D matrices, got shape \\(3,\\)"):
            write_emb1(tmp_path / "a.bin", np.ones(3))
        assert not (tmp_path / "a.bin").exists()

    def test_dispatch_by_magic(self, tmp_path):
        binary = tmp_path / "a.bin"
        write_emb1(binary, np.ones((2, 2)))
        csv = tmp_path / "a.csv"
        write_embedding_csv(csv, np.ones((2, 2)))
        assert np.array_equal(read_embeddings(binary)[0], read_embeddings(csv)[0])


class TestPmfVector:
    def test_single_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.25,0.75\n")
        assert read_pmf_vector(path).tolist() == [0.25, 0.75]

    def test_multiline_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.5,0.5\n0.5,0.5\n")
        with pytest.raises(ConfigError):
            read_pmf_vector(path)

    @pytest.mark.parametrize("line, fault", [("0.9,0.9", "sums to 1.8"), ("1.5,-0.5", "negative entry"),
                                             ("0.5,nan", "non-finite"), ("1e308,1e308", "sums to inf")])
    def test_row_that_is_no_pmf_names_the_file(self, line, fault, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(line + "\n")
        with pytest.raises(NotAPmf, match=f"^{re.escape(str(path))}.*{fault}"):
            read_pmf_vector(path)


READERS = {
    "csv": read_embedding_csv,
    "pmf": read_pmf_vector,
    "embeddings": read_embeddings,
    "emb1": read_emb1,
    "config": read_kv_config,
}


class TestOneReader:
    """Every reader opens its file through one function, with one error rule."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("fault", ["missing", "directory"])
    def test_unreadable_file_is_a_config_error(self, reader, fault, tmp_path):
        path = tmp_path / "input"
        if fault == "directory":
            path.mkdir()
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: "):
            READERS[reader](path)

    @pytest.mark.parametrize("reader", ["csv", "pmf", "embeddings", "config"])
    @pytest.mark.parametrize("raw", [b"0.5,0.5\xe9\n", b"seed = 1\n\xff\n"])
    def test_undecodable_bytes_are_a_config_error(self, reader, raw, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec"):
            READERS[reader](path)

    def test_undecodable_byte_is_named_by_its_file_offset(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_bytes(b"0.5,0.5\n" * 2500 + b"0.5,0.5\xe9\n")  # past one 8 KiB read
        with pytest.raises(ConfigError, match="can't decode byte 0xe9 in position 20007:"):
            read_embedding_csv(path)

    def test_emb1_matrix_is_no_pmf_file(self, tmp_path):
        path = tmp_path / "p.emb1"
        write_emb1(path, np.array([[0.5, 0.5]]))
        with pytest.raises(ConfigError, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec"):
            read_pmf_vector(path)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_endings_comments_and_line_numbers(self, ending, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_bytes(ending.join(["# head", "1,2", "", "3,4", ""]).encode())
        data, _ = read_embedding_csv(path)
        assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        path.write_bytes(ending.join(["# head", "1,2", "x,4", ""]).encode())
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: could not convert"):
            read_embedding_csv(path)
        config = tmp_path / "exp.cfg"
        config.write_bytes(ending.join(["# head", "a = 1", "b = 2 # note", ""]).encode())
        assert read_kv_config(config) == {"a": "1", "b": "2"}
        config.write_bytes(ending.join(["a = 1", "", "just words"]).encode())
        with pytest.raises(ConfigError, match=f"^{re.escape(str(config))}:3: expected key=value"):
            read_kv_config(config)

    def test_byte_order_mark_is_not_stripped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbf0.5,0.5\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: could not convert string to float"):
            read_pmf_vector(path)
        config = tmp_path / "exp.cfg"
        config.write_bytes(b"\xef\xbb\xbfseed = 1\n")
        assert read_kv_config(config) == {"\ufeffseed": "1"}


class TestKvConfig:
    def test_comments_and_blanks(self):
        mapping = parse_kv_config("# header\n\na = 1 # trailing\nb=two\n")
        assert mapping == {"a": "1", "b": "two"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_config("a=1\na=2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_config("just words\n")

    def test_experiment_configs_split(self):
        mapping = parse_kv_config(
            "num_classes=4\nper_class=10\ninput_dims=8,8\nembed_dim=4\n"
            "class_sep=5\nnoise_sigma=0.5\nseed=9\nmax_epochs=3\nbatch_size=8\n"
            "strategy=clockwise\ntemperature=0.5\n"
        )
        synth, train = experiment_configs(mapping)
        assert synth.num_classes == 4 and synth.seed == 9
        assert train.seed == 9 and train.strategy is MatchStrategy.CLOCKWISE
        assert train.temperature == 0.5

    def test_data_seed_overrides_generator_only(self):
        mapping = parse_kv_config("seed=1\ndata_seed=2\n")
        synth, train = experiment_configs(mapping)
        assert synth.seed == 2 and train.seed == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            experiment_configs({"learning_rat": "0.1"})

    def test_strategy_of_a_kind_off_the_ring_rejected(self):
        with pytest.raises(ConfigError, match="^loss kind 'kl' reads no matching strategy, got 'clockwise'$"):
            experiment_configs({"loss_kind": "kl", "strategy": "clockwise"})


# the keys a config file accepts, pinned so that adding, renaming or
# dropping a config field shows here
ACCEPTED_KEYS = {
    "num_classes", "per_class", "embed_dim", "max_epochs", "batch_size", "seed", "data_seed",
    "class_sep", "noise_sigma", "learning_rate", "grad_clip_norm", "temperature",
    "holdout_fraction", "loss_kind", "strategy", "input_dims",
}

# every config field: its string form and the value (and type) that form parses to
FIELD_CASES = [
    ("num_classes", "4", 4),
    ("per_class", "10", 10),
    ("input_dims", "8, 9,", (8, 9)),
    ("embed_dim", "5", 5),
    ("class_sep", "5", 5.0),
    ("noise_sigma", "0.5", 0.5),
    ("seed", "9", 9),
    ("learning_rate", "1e-3", 0.001),
    ("grad_clip_norm", "2", 2.0),
    ("max_epochs", "3", 3),
    ("batch_size", "8", 8),
    ("loss_kind", "kl", "kl"),
    ("strategy", "clockwise", MatchStrategy.CLOCKWISE),
    ("temperature", "0.5", 0.5),
    ("holdout_fraction", "0.25", 0.25),
]


class TestConfigFields:
    def test_accepted_keys_are_the_fields_plus_data_seed(self):
        names = {f.name for config in (SynthConfig, TrainConfig) for f in fields(config)}
        assert {key for key, _, _ in FIELD_CASES} == names
        assert set(_KEY_TYPES) == names | {"data_seed"} == ACCEPTED_KEYS

    @pytest.mark.parametrize("key, text, expected", FIELD_CASES)
    def test_field_parses_from_its_string_form(self, key, text, expected):
        configs = [c for c in experiment_configs({key: text}) if key in {f.name for f in fields(c)}]
        assert configs  # seed lands in both
        for config in configs:
            value = getattr(config, key)
            assert value == expected and type(value) is type(expected)
            if isinstance(value, tuple):
                assert all(type(v) is int for v in value)

    @pytest.mark.parametrize(
        "key, text",
        [("num_classes", "4.0"), ("input_dims", "8,x"), ("class_sep", "wide"),
         ("strategy", "sideways"), ("max_epochs", "none"), ("data_seed", "1.5")],
    )
    def test_bad_value_names_the_key(self, key, text):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            experiment_configs({key: text})

    @pytest.mark.parametrize("key", ["seed", "per_class", "max_epochs", "input_dims"])
    def test_integer_at_or_above_2_63_is_a_bad_value(self, key):
        with pytest.raises(ConfigError, match=f"bad value for {key}"):
            experiment_configs({key: str(2**63)})

    def test_integer_below_2_63_parses(self):
        synth, train = experiment_configs({"seed": str(2**63 - 1)})
        assert synth.seed == train.seed == 2**63 - 1


class TestJsonDumps:
    def test_floats_roundtrip_exactly(self):
        import json

        values = [1 / 3, 1e-8, 123456.789, 2**-52]
        parsed = json.loads(json_dumps({"v": values}))
        assert parsed["v"] == values

    def test_non_finite_become_strings(self):
        import json

        parsed = json.loads(json_dumps([float("inf"), float("-inf"), float("nan")]))
        assert parsed == ["inf", "-inf", "nan"]

    def test_nested_structures(self):
        import json

        obj = {"a": [1, True, None], "b": {"c": np.float64(0.5), "d": np.arange(3)}}
        parsed = json.loads(json_dumps(obj))
        assert parsed == {"a": [1, True, None], "b": {"c": 0.5, "d": [0, 1, 2]}}

    def test_unknown_type_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot serialize object to JSON"):
            json_dumps({"a": [object()]})

    def test_strings_escaped_as_stdlib_json(self):
        import json

        strings = ["a\tb\nc", "quote \" and back\\slash", "\x00\x1f\x7f", "caf\u00e9", "plain/path.csv"]
        for text in strings:
            assert json_dumps(text) == json.dumps(text)
        assert json.loads(json_dumps({"path": "a\tb\nc", "names": strings})) == {
            "path": "a\tb\nc",
            "names": strings,
        }
