"""The CLI boundary under generated inputs.

Hypothesis writes configs, PMF files and embedding files, at their limits and
past them, and drives ``csalign.cli.main`` in this process. Each example gets
a fresh temporary directory (pytest's ``tmp_path`` is made once per test, not
once per example) and must keep what the README promises of any input:

* the exit code is one that the command documents (0, 2 or 3 for
  ``divergence``; 0, 2, 3 or 4 for ``train`` and ``ablate``), and no
  exception leaves ``main``;
* no ``RuntimeWarning`` is raised;
* exit 2 or 3 prints one ``error:`` line and nothing on stdout, exit 4 prints
  its reason, exit 0 prints nothing on stderr;
* every JSON report, printed or written, parses with ``json.loads`` and has
  no ``NaN`` or ``Infinity`` literal;
* ``--outdir`` exists only after exit 0 or 4, and ``--out`` only after exit 0.

Runs stay small. Every size is either tiny or asks for 1e15 bytes or more,
past any address space; a size in between could be granted by overcommit and
its pages taken back later by the OOM killer. Training runs at most 2 epochs
on at most 3 classes x 4 rows. ``derandomize`` fixes the examples.
"""

import contextlib
import io
import json
import struct
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from csalign.cli import main
from csalign.losses import LOSS_KINDS, MatchStrategy

BOUNDARY = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
ABORT_LINE = "training aborted: non-finite loss or embeddings, or Adam moments past float range\n"


def _no_constant(name):
    raise ValueError(f"JSON holds the non-standard constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_no_constant)


def run_main(argv):
    """``main(argv)`` in this process: exit code, stdout, stderr and the
    RuntimeWarnings raised on the way."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def check_outcome(argv, codes):
    code, out, err, runtime = run_main(argv)
    assert runtime == []
    assert code in codes, (code, err)
    if code in (2, 3):
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        strict_json(out)
        assert err == (ABORT_LINE if code == 4 else "")
    return code


# ---------------------------------------------------------------------------
# bytes around the text: line endings, a BOM, bytes that are not UTF-8

BAD_BYTES = [b"\xff", b"\xe9", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00", b"\x0c"]


@st.composite
def file_bytes(draw, lines, faulty=True):
    """``lines``, with comment and blank lines among them, joined by one drawn
    line ending; if ``faulty``, one file in three has a BOM in front or a byte
    that is not UTF-8 text somewhere, or both."""
    lines = list(lines)
    for extra in draw(st.lists(st.sampled_from(["# comment", "", "  "]), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode("utf-8")
    if not faulty or draw(st.sampled_from([True, True, False])):
        return raw
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    for junk in draw(st.lists(st.sampled_from(BAD_BYTES), max_size=1)):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + junk + raw[at:]
    return raw


# ---------------------------------------------------------------------------
# configs

HUGE = [10**15, 2**62, 2**63 - 1, 2**63, 2**64, 10**30]  # 1e15 bytes or more, or past int64
NEGATIVE = [-1, -(2**63), -(2**64)]
NOT_INTS = ["", "x", "3 3", "3,3", "1.5", "4.0", "1e3", "=", "0x10", "nan", "inf"]
FLOATS = ["0", "-0.0", "-1", "0.5", "1", "1e-4", "0.005", "1e-200", "1e300", "1e308", "-1e308",
          "1.7976931348623157e308", "1e-308", "-1e-308", "5e-324", "1e-320", "1e400", "nan", "-nan",
          "inf", "-inf", "", "x", "1,0", "0.5 0.5"]


def ints(low, high, large=HUGE + NEGATIVE):
    return st.one_of(st.integers(low, high), st.sampled_from(large)).map(str) | st.sampled_from(NOT_INTS)


@st.composite
def input_dims(draw):
    entries = draw(st.lists(ints(0, 4), min_size=1, max_size=4))
    return ",".join(entries) + draw(st.sampled_from(["", ","]))


# a tiny run; every key here that sets a size or an epoch count is always
# present, since their defaults would train 1600 rows for 100 epochs
BASE = {"num_classes": "3", "per_class": "4", "input_dims": "3,3,3", "embed_dim": "2",
        "max_epochs": "2", "batch_size": "4"}
VALUES = {
    "num_classes": ints(0, 3),
    "per_class": ints(0, 4),
    "input_dims": input_dims(),
    "embed_dim": ints(0, 3),
    # never a count of epochs past 2 that would parse: it would run, not fail
    "max_epochs": ints(0, 2, large=[2**63, 2**64] + NEGATIVE),
    "batch_size": ints(0, 13),
    "seed": ints(0, 3),
    "data_seed": ints(0, 3),
    "class_sep": st.sampled_from(FLOATS),
    "noise_sigma": st.sampled_from(FLOATS),
    "learning_rate": st.sampled_from(FLOATS),
    "grad_clip_norm": st.sampled_from(FLOATS),
    "temperature": st.sampled_from(FLOATS),
    "holdout_fraction": st.sampled_from(FLOATS),
    "loss_kind": st.sampled_from(list(LOSS_KINDS) + ["", "GCS_RING", "cs"]),
    "strategy": st.sampled_from([s.value for s in MatchStrategy] + ["", "Mixed", "ring"]),
}
EXTRA_LINES = ["hidden_dim = 4", "unknown = 1", " = 3", "just words", "seed = 1", "num_classes = 3"]


@st.composite
def config_files(draw):
    changed = draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=2, unique=True))
    mapping = dict(BASE, **{key: draw(VALUES[key]) for key in changed})
    lines = draw(st.permutations([f"{key} = {value}" for key, value in mapping.items()]))
    for extra in draw(st.lists(st.sampled_from(EXTRA_LINES), max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(file_bytes(lines))


# raw bytes around a tiny config: whatever they parse to, a size key that
# they name again is a duplicate, so a run stays tiny
BASE_TEXT = "".join(f"{key} = {value}\n" for key, value in BASE.items()).encode("utf-8")
RAW_CONFIGS = st.tuples(st.binary(max_size=32), st.booleans()).map(
    lambda drawn: drawn[0] + BASE_TEXT if drawn[1] else BASE_TEXT + drawn[0])


@settings(BOUNDARY, max_examples=300)
@example(command="train", config=BASE_TEXT + b"learning_rate = 1e300\n", seed=None)
@example(command="ablate", config=BASE_TEXT + b"learning_rate = 1e300\n", seed=None)
@given(
    command=st.sampled_from(["train", "ablate"]),
    config=config_files() | RAW_CONFIGS,
    seed=st.none() | st.sampled_from([0, 5, -1, 2**63]),
)
def test_train_and_ablate_on_generated_configs(command, config, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path, outdir = Path(tmp) / "exp.cfg", Path(tmp) / "run"
        path.write_bytes(config)
        argv = [command, "--config", str(path), "--outdir", str(outdir)]
        argv += [] if seed is None else ["--seed", str(seed)]
        code = check_outcome(argv, (0, 2, 3, 4))
        assert outdir.exists() == (code in (0, 4))
        for report in outdir.glob("*.json"):
            strict_json(report.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# PMF and embedding files

MISSING, DIRECTORY = "missing", "directory"
LIMITS = ["0", "-0.0", "5e-324", "1e-308", "1e308", "1.7976931348623157e308", "-1e308", "nan",
          "inf", "-inf", "-0.5"]
TOKENS = LIMITS + ["0.5", "0.25", "1", "2", "1e400", "x", "", " 0.5 ", "1.5", "0x1"]
LABELS = ["0", "1", "2", "-1", "1.5", "1e30", "inf", "nan", "9223372036854775808", "x"]
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True).map(repr)


@st.composite
def pmf_row(draw, k):
    """``k`` entries that sum to 1 within the tolerance, zeros and subnormals included."""
    weights = draw(st.lists(st.floats(0, 1e6) | st.sampled_from([0.0, 5e-324, 1e-300]),
                            min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
    return [repr(w / sum(weights)) for w in weights]


@st.composite
def pmf_file(draw, k, faulty):
    """One PMF line of length ``k``; if ``faulty``, also entries at the float
    limits, entries of about +-1e308 or any token, on one line, none or two."""
    if not faulty:
        return draw(file_bytes([",".join(draw(pmf_row(k)))], faulty=False))
    row = st.one_of(pmf_row(k), st.lists(st.sampled_from(LIMITS), min_size=1, max_size=4),
                    st.lists(st.sampled_from(["1e308", "1.7976931348623157e308", "-1e308"]),
                             min_size=1, max_size=4),
                    st.lists(st.sampled_from(TOKENS) | ANY_FLOAT, min_size=1, max_size=4))
    rows = draw(st.lists(row, min_size=1, max_size=1) | st.lists(row, max_size=2))
    return draw(file_bytes([",".join(r) for r in rows]))


@st.composite
def embedding_file(draw, width, label_col, faulty):
    """Two to five rows of ``width`` moderate floats with integer labels at
    ``label_col``; if ``faulty``, ragged rows of any token and any label."""
    cell = st.sampled_from(TOKENS) | ANY_FLOAT if faulty else st.floats(-10, 10).map(repr)
    label = st.sampled_from(LABELS) if faulty else st.integers(0, 2).map(str)
    rows = []
    for _ in range(draw(st.integers(0 if faulty else 2, 5))):
        row = draw(st.lists(cell, min_size=width, max_size=width + 1 if faulty else width))
        if label_col is not None:
            row.insert(0 if label_col == 0 else len(row), draw(label))
        rows.append(",".join(row))
    return draw(file_bytes(rows, faulty))


@st.composite
def emb1_file(draw):
    """An EMB1 matrix: header dims of 0 to 3 or at least 2**31, a payload of
    the size the header says or not, or a truncated header."""
    n = draw(st.integers(0, 3) | st.sampled_from([2**31, 2**32 - 1]))
    d = draw(st.integers(0, 3) | st.sampled_from([2**31, 2**32 - 1]))
    count = n * d if n * d <= 9 else draw(st.integers(0, 4))
    values = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=count, max_size=count))
    raw = struct.pack(f"<4sIII{count}d", b"EMB1", n, d, 0, *values)
    cut = draw(st.sampled_from([None, None, -1, -8, 3, 15]))
    return raw if cut is None else raw[:cut]


@st.composite
def divergence_cases(draw):
    """A measure, its ``--label-col`` and its input files. In half the cases
    every file is a well-formed file of the measure's kind (PMF lines of one
    length, or samples of one width); in the other half a file may be faulty,
    an EMB1 matrix, missing or a directory."""
    faulty = draw(st.booleans())
    measure = draw(st.sampled_from(["cs", "gcs", "kl", "mmd", "coral"]))
    label_col = None
    if measure in ("mmd", "coral"):
        label_col = draw(st.sampled_from([None, 0, -1] + ([4] if faulty else [])))
    k, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    own = pmf_file(k, faulty) if measure in ("cs", "gcs", "kl") else embedding_file(width, label_col, faulty)
    kinds = {"own": own, "emb1": emb1_file(), MISSING: st.just(MISSING), DIRECTORY: st.just(DIRECTORY)}
    picks = st.sampled_from(["own"] * 3 + ["emb1", MISSING, DIRECTORY] if faulty else ["own"])
    count = draw(st.integers(2, 4)) if measure == "gcs" else 2
    return measure, label_col, [draw(kinds[draw(picks)]) for _ in range(count)]


@settings(BOUNDARY, max_examples=600)
@given(divergence_cases())
def test_divergence_on_generated_files(case):
    measure, label_col, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"input-{i}" for i in range(len(files))]
        for path, content in zip(paths, files):
            if content == DIRECTORY:
                path.mkdir()
            elif content != MISSING:
                path.write_bytes(content)
        out = Path(tmp) / "report.json"
        argv = ["divergence", "--measure", measure, *map(str, paths), "--out", str(out)]
        argv += [] if label_col is None else ["--label-col", str(label_col)]
        code = check_outcome(argv, (0, 2, 3))
        assert out.exists() == (code == 0)
        if code == 0:
            strict_json(out.read_text(encoding="utf-8"))
