"""Command-line behavior: config resolution, exit codes, artifacts."""

import contextlib
import csv
import io
import logging
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cru import cli
from cru.checkpoint import MAGIC, load_tensors, save_tensors
from cru.classifier import SentimentModel, TrainConfig, save_checkpoint, seeded_rng
from cru.cli import (build_parser, main, parse_kv_file, resolve_dataset,
                     resolve_train_config)
from cru.data import Vocab
from cru.errors import ConfigError, NumericError

FIXTURE = Path(__file__).parent / "data" / "mr_sample"

TINY_FLAGS = [
    "--format", "mr", "--variant", "shallow", "--filter", "3",
    "--embed", "8", "--hidden", "8", "--dropout", "0.0", "--lr", "0.01",
    "--batch", "8", "--epochs", "1", "--folds", "2", "--run-folds", "1",
    "--seed", "0",
]


def run_tiny_train(out_dir) -> int:
    return main(["train", "--dataset", str(FIXTURE), *TINY_FLAGS,
                 "--out", str(out_dir)])


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run_tiny_train(out) == 0
    return out


# ---------------------------------------------------------------------------
# Config file parsing and precedence
# ---------------------------------------------------------------------------

def test_parse_kv_file_skips_comments_and_blanks(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# header\n\nlr = 0.01\nvariant=gru\n  # trailing\n")
    assert parse_kv_file(cfg) == {"lr": "0.01", "variant": "gru"}

def test_parse_kv_file_reports_line_number(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("lr=0.01\nnot a pair\n")
    with pytest.raises(ConfigError, match=r":2:"):
        parse_kv_file(cfg)

def test_flag_beats_file_beats_dataset_default(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("dropout=0.1\nhidden_dim=32\n")
    args = build_parser().parse_args(
        ["train", "--dataset", "x", "--format", "mr",
         "--config", str(cfg), "--dropout", "0.25"])
    args.fmt = "mr"
    config = resolve_train_config(args)
    assert config.dropout == 0.25          # flag wins over file
    assert config.hidden_dim == 32         # file wins over dataset default
    assert config.embed_dim == 200         # dataset default survives
    assert config.lr == 0.0005

def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("learning_rate=0.01\n")
    args = build_parser().parse_args(
        ["train", "--dataset", "x", "--format", "mr", "--config", str(cfg)])
    args.fmt = "mr"
    with pytest.raises(ConfigError, match="unknown keys"):
        resolve_train_config(args)


# ---------------------------------------------------------------------------
# Dataset resolution
# ---------------------------------------------------------------------------

def test_bare_known_name_maps_under_data(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path, fmt = resolve_dataset("mr", None)
    assert path == Path("data") / "mr"
    assert fmt == "mr"

def test_format_inferred_from_directory_name(tmp_path):
    d = tmp_path / "subj"
    d.mkdir()
    path, fmt = resolve_dataset(str(d), None)
    assert path == d and fmt == "subj"

def test_unknown_name_requires_explicit_format(tmp_path):
    with pytest.raises(ConfigError, match="--format"):
        resolve_dataset(str(tmp_path / "reviews"), None)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_rejects_zero_epochs(tmp_path):
    code = main(["train", "--dataset", str(FIXTURE), "--format", "mr",
                 "--epochs", "0", "--out", str(tmp_path / "o")])
    assert code == 1

def test_train_rejects_deep_width_mismatch(tmp_path):
    code = main(["train", "--dataset", str(FIXTURE), "--format", "mr",
                 "--variant", "deep", "--embed", "8", "--hidden", "12",
                 "--out", str(tmp_path / "o")])
    assert code == 1

def test_train_missing_dataset_exits_2(tmp_path):
    code = main(["train", "--dataset", str(tmp_path / "nowhere"),
                 "--format", "mr", "--out", str(tmp_path / "o")])
    assert code == 2

def test_train_writes_artifacts(trained_run, capsys):
    ckpt = trained_run / "checkpoint"
    assert (ckpt / "params.bin").is_file()
    assert (ckpt / "vocab.txt").is_file()
    assert (ckpt / "config.txt").is_file()
    # Every line printed lands in train.log, the last one too.
    assert (trained_run / "train.log").read_text().splitlines()[-1].startswith(
        f"artifacts checkpoint={ckpt} ")

    with open(trained_run / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # The first five columns as they always were, then the training telemetry.
    assert rows[0] == ["epoch", "fold", "split", "loss", "accuracy",
                       "seconds", "tokens_per_s", "grad_norm", "clip_frac"]
    assert len(rows) == 3  # header + (train, test) for the single epoch
    for row in rows[1:]:
        assert row[1] == "0" and row[2] in ("train", "test")
        float(row[3]), float(row[4])

def test_train_stdout_reports_config_and_summary(tmp_path, capsys):
    assert run_tiny_train(tmp_path / "o") == 0
    out = capsys.readouterr().out
    assert "config variant=shallow" in out
    assert "vocab size=" in out
    assert re.search(r"summary folds=1 mean_cv_accuracy=\d\.\d{4}", out)

def test_train_logs_which_fold_is_the_checkpoint(tmp_path, capsys):
    out_dir = tmp_path / "o"
    argv = ["train", "--dataset", str(FIXTURE), *TINY_FLAGS, "--out", str(out_dir)]
    argv[argv.index("--run-folds") + 1] = "2"
    assert main(argv) == 0
    line = f"checkpoint fold=1 path={out_dir / 'checkpoint'}"
    assert line in capsys.readouterr().out.splitlines()
    assert line in (out_dir / "train.log").read_text().splitlines()

def test_train_is_deterministic_across_runs(tmp_path, capsys):
    assert run_tiny_train(tmp_path / "a") == 0
    assert run_tiny_train(tmp_path / "b") == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "metrics.csv").read_text().splitlines()
    b = (tmp_path / "b" / "metrics.csv").read_text().splitlines()
    # Every column but the wall-time ones (seconds, tokens_per_s), byte for
    # byte: the losses, accuracies and gradient norms.
    timed = lambda line: [v for i, v in enumerate(line.split(",")) if i not in (5, 6)]
    assert a[0] == b[0] and len(a) == len(b) == 3
    assert [timed(line) for line in a] == [timed(line) for line in b]


def test_train_reports_telemetry_per_epoch(tmp_path, capsys):
    # Two epochs: each train row of metrics.csv and its train.log line carry
    # the epoch's wall time, token rate, mean pre-clip gradient norm and clip
    # fraction; the test rows leave them empty.
    out_dir = tmp_path / "o"
    argv = ["train", "--dataset", str(FIXTURE), *TINY_FLAGS, "--out", str(out_dir)]
    argv[argv.index("--epochs") + 1] = "2"
    assert main(argv) == 0
    capsys.readouterr()
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["epoch"], r["split"]) for r in rows] == [
        ("1", "train"), ("1", "test"), ("2", "train"), ("2", "test")]
    log = (out_dir / "train.log").read_text()
    for r in rows:
        keys = ("seconds", "tokens_per_s", "grad_norm", "clip_frac")
        if r["split"] == "test":
            assert all(r[k] == "" for k in keys)
            continue
        seconds, rate = float(r["seconds"]), float(r["tokens_per_s"])
        norm, frac = float(r["grad_norm"]), float(r["clip_frac"])
        assert seconds > 0 and rate > 0 and norm > 0 and 0.0 <= frac <= 1.0
        line = re.search(rf"epoch={r['epoch']} fold=0 split=train .*", log).group(0)
        fields = dict(kv.split("=") for kv in line.split())
        assert {k: float(fields[k]) for k in keys} == pytest.approx(
            {"seconds": seconds, "tokens_per_s": rate, "grad_norm": norm, "clip_frac": frac},
            rel=1e-3, abs=1e-4)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reports_metrics_and_is_repeatable(trained_run, tmp_path, capsys):
    argv = ["eval", "--checkpoint", str(trained_run / "checkpoint"),
            "--dataset", str(FIXTURE), "--format", "mr",
            "--out", str(tmp_path / "e")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert re.search(r"eval samples=32 loss=\d+\.\d{6} accuracy=\d\.\d{4}", first)

    assert main(argv) == 0
    assert capsys.readouterr().out == first

    with open(tmp_path / "e" / "eval.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "fold", "split", "loss", "accuracy"]
    assert rows[1][2] == "eval"


def test_failed_csv_write_leaves_the_previous_file(trained_run, tmp_path, monkeypatch):
    # eval.csv (and metrics.csv) go to a temporary name beside the file and
    # are renamed over it once complete: a writer that fails mid-row leaves
    # the previous file byte for byte, and no temporary file.
    out = tmp_path / "e"
    argv = ["eval", "--checkpoint", str(trained_run / "checkpoint"),
            "--dataset", str(FIXTURE), "--format", "mr", "--out", str(out)]
    assert main(argv) == 0
    before = (out / "eval.csv").read_bytes()

    class FailingWriter:
        def __init__(self, fh):
            self.fh = fh

        def writerows(self, rows):
            self.fh.write("epoch,fo")
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.csv, "writer", FailingWriter)
    assert main(argv) == 2
    assert (out / "eval.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["eval.csv"]


def test_eval_scores_only_the_test_split_of_an_imdb_tree(trained_run, tmp_path, capsys):
    # train/ has no neg/ directory: eval must not read it.
    (tmp_path / "imdb" / "train" / "pos").mkdir(parents=True)
    for cls, text in (("pos", "a fine film"), ("neg", "a dull film")):
        (tmp_path / "imdb" / "test" / cls).mkdir(parents=True)
        (tmp_path / "imdb" / "test" / cls / "0.txt").write_text(text, encoding="utf-8")
    argv = ["eval", "--checkpoint", str(trained_run / "checkpoint"),
            "--dataset", str(tmp_path / "imdb"), "--format", "imdb"]
    assert main(argv) == 0
    assert re.search(r"eval samples=2 loss=", capsys.readouterr().out)

def test_eval_missing_checkpoint_exits_2(tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "nope"),
                 "--dataset", str(FIXTURE), "--format", "mr"])
    assert code == 2


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def make_zero_checkpoint(tmp_path) -> Path:
    config = TrainConfig(variant="gru", embed_dim=4, hidden_dim=4, fc_dim=4,
                         dropout=0.0, vocab_cap=None, pretrained=None)
    vocab = Vocab(["fine", "movie", "awful"])
    model = SentimentModel.build(config, vocab_size=len(vocab),
                                 rng=seeded_rng(0, 99))
    for p in model.named_params().values():
        p.data[:] = 0.0
    ckpt = tmp_path / "zero"
    save_checkpoint(ckpt, model, config, vocab)
    return ckpt

def test_infer_zero_model_breaks_tie_positive(tmp_path, capsys):
    ckpt = make_zero_checkpoint(tmp_path)
    assert main(["infer", "--checkpoint", str(ckpt), "fine", "movie"]) == 0
    assert capsys.readouterr().out.strip() == "probability=0.500000 label=POS"

def test_infer_blank_text_exits_1(tmp_path, capsys):
    ckpt = make_zero_checkpoint(tmp_path)
    assert main(["infer", "--checkpoint", str(ckpt), "   "]) == 1
    assert "error:" in capsys.readouterr().err

@pytest.mark.parametrize("corruption", ["non_utf8_name", "huge_dims"])
def test_infer_corrupt_checkpoint_exits_1(tmp_path, capsys, corruption):
    ckpt = make_zero_checkpoint(tmp_path)
    blob = bytearray((ckpt / "params.bin").read_bytes())
    at = len(MAGIC) + 4
    (name_len,) = struct.unpack_from("<H", blob, at)
    if corruption == "non_utf8_name":
        blob[at + 2] = 0xFF
    else:
        struct.pack_into("<II", blob, at + 2 + name_len + 1, 0xFFFFFFFF, 0xFFFFFFFF)
    (ckpt / "params.bin").write_bytes(bytes(blob))
    assert main(["infer", "--checkpoint", str(ckpt), "a", "b"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1

def test_infer_non_finite_checkpoint_exits_1(tmp_path, capsys):
    # A NaN in a stored tensor is a malformed file, not a numeric failure of
    # the run: one line that names the file and the tensor, and exit 1.
    ckpt = make_zero_checkpoint(tmp_path)
    tensors = load_tensors(ckpt / "params.bin")
    tensors["out.bias"] = np.array([np.nan])
    save_tensors(ckpt / "params.bin", tensors)
    assert main(["infer", "--checkpoint", str(ckpt), "fine", "movie"]) == 1
    assert capsys.readouterr().err == (f"error: {ckpt / 'params.bin'}: tensor out.bias "
                                       "holds non-finite entries\n")

def test_non_utf8_config_file_exits_1(tmp_path, capsys):
    cfg = tmp_path / "c.txt"
    cfg.write_bytes(b"lr=0.01\nvariant=gru\xff\n")
    code = main(["train", "--dataset", str(FIXTURE), *TINY_FLAGS,
                 "--config", str(cfg), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {cfg}: not valid UTF-8\n"

@pytest.mark.parametrize("name", ["config.txt", "vocab.txt"])
def test_non_utf8_checkpoint_text_file_exits_1(tmp_path, capsys, name):
    ckpt = make_zero_checkpoint(tmp_path)
    (ckpt / name).write_bytes((ckpt / name).read_bytes() + b"\xc3\x28\n")
    assert main(["infer", "--checkpoint", str(ckpt), "a", "b"]) == 1
    assert capsys.readouterr().err == f"error: {ckpt / name}: not valid UTF-8\n"

def test_infer_on_trained_checkpoint(trained_run, capsys):
    sentences = [
        "a joyful and generous picture with real insight",
        "a joyless slog that wastes its cast",
        "the ending insults you",
    ]
    for text in sentences:
        code = main(["infer", "--checkpoint", str(trained_run / "checkpoint"),
                     *text.split()])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert re.fullmatch(r"probability=\d\.\d{6} label=(POS|NEG)", out)


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def one_cheap_job(base_seed, tol):
    return [("gru", lambda: cli._check_cell("gru", base_seed, tol))]

def test_gradcheck_pass_exit_0(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_gradcheck_jobs", one_cheap_job)
    assert main(["gradcheck", "--tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"component=gru max_rel_err=\d\.\d{3}e[-+]\d+ .*status=pass", out)

def test_gradcheck_impossible_tolerance_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_gradcheck_jobs", one_cheap_job)
    assert main(["gradcheck", "--tol", "1e-12"]) == 4
    out = capsys.readouterr().out
    assert "status=FAIL" in out
    assert "failing_parameters=" in out


# ---------------------------------------------------------------------------
# rc-features
# ---------------------------------------------------------------------------

def test_rc_features_prints_tsv(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    query = tmp_path / "q.txt"
    doc.write_text("the cat sat the\n")
    query.write_text("the mat\n")
    assert main(["rc-features", "--document", str(doc), "--query", str(query)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "the\t0.500000\t1",
        "cat\t0.250000\t0",
        "sat\t0.250000\t0",
        "the\t0.500000\t1",
    ]

def test_rc_features_drops_undecodable_bytes_with_a_warning(tmp_path, capsys, caplog):
    doc = tmp_path / "doc.txt"
    query = tmp_path / "q.txt"
    doc.write_bytes(b"the c\xffat\n")
    query.write_text("cat\n")
    with caplog.at_level(logging.WARNING, logger="cru.data"):
        assert main(["rc-features", "--document", str(doc), "--query", str(query)]) == 0
    assert capsys.readouterr().out.splitlines() == ["the\t0.500000\t0", "cat\t0.500000\t1"]
    assert [r.message for r in caplog.records] == [f"dropped undecodable bytes in {doc}"]

def test_rc_features_blank_query_exits_1(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    query = tmp_path / "q.txt"
    doc.write_text("words here\n")
    query.write_text("   \n")
    assert main(["rc-features", "--document", str(doc), "--query", str(query)]) == 1


# ---------------------------------------------------------------------------
# Exit-code mapping and argument errors
# ---------------------------------------------------------------------------

def test_numeric_error_maps_to_exit_3(monkeypatch, capsys):
    def boom(args):
        raise NumericError("synthetic overflow")

    monkeypatch.setitem(cli._DISPATCH, "gradcheck", boom)
    assert main(["gradcheck"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_keyboard_interrupt_exits_130_with_one_line():
    # Ctrl-C inside a command, through the console entry point in a process
    # of its own: one stderr line and exit 130, no traceback.
    code = ("import sys\n"
            "from cru import cli\n"
            "def interrupted(args):\n"
            "    raise KeyboardInterrupt\n"
            "cli._DISPATCH['gradcheck'] = interrupted\n"
            "sys.argv = ['cru', 'gradcheck']\n"
            "cli.entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 130
    assert proc.stderr == "interrupted\n"
    assert "Traceback" not in proc.stderr + proc.stdout


def test_sigterm_exits_143_with_one_line():
    # SIGTERM inside a command, through the console entry point in a process
    # of its own: one stderr line and exit 143, no traceback.
    code = ("import os, signal, sys, time\n"
            "from cru import cli\n"
            "def terminated(args):\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    time.sleep(30)\n"
            "cli._DISPATCH['gradcheck'] = terminated\n"
            "sys.argv = ['cru', 'gradcheck']\n"
            "cli.entry()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 143
    assert proc.stderr == "terminated\n"
    assert "Traceback" not in proc.stderr + proc.stdout


def test_failed_training_run_keeps_its_log_and_prints_one_line(tmp_path, capsys):
    # An lr of 1e300 leaves weights near 1e300 after the first step, and the
    # evaluation's forward overflows. numpy's own overflow warning stays
    # silent: the NumericError is the one stderr line.
    out_dir = tmp_path / "run"
    argv = ["train", "--dataset", str(FIXTURE), "--format", "mr", "--epochs", "3",
            "--folds", "2", "--run-folds", "1", "--embed", "8", "--hidden", "8",
            "--fc-dim", "8", "--lr", "1e300", "--out", str(out_dir)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and err.count("\n") == 1
    assert "while evaluating batch 0" in err
    log = (out_dir / "train.log").read_text(encoding="utf-8").splitlines()
    assert "config lr=1e+300" in log and "data format=mr train_samples=32" in log
    assert any(line.startswith("vocab size=") for line in log)
    # Epoch 1 trained before its evaluation failed, so its train row is logged.
    assert any(line.startswith("epoch=1 fold=0 split=train ") for line in log)

def _train_with(*flags):
    return lambda tmp_path: ["train", "--dataset", str(FIXTURE), *TINY_FLAGS, *flags,
                             "--out", str(tmp_path / "run")]


def _train_with_config(text):
    def argv(tmp_path):
        (tmp_path / "c.txt").write_text(text, encoding="utf-8")
        return _train_with("--config", str(tmp_path / "c.txt"))(tmp_path)
    return argv


def _train_with_vectors(value):
    def argv(tmp_path):
        (tmp_path / "vec.txt").write_text(
            "the" + " 0.5" * 8 + "\na " + value + " 0.5" * 7 + "\n", encoding="utf-8")
        return _train_with("--pretrained", str(tmp_path / "vec.txt"))(tmp_path)
    return argv


def _train_with_undecodable_vectors(tmp_path):
    (tmp_path / "vec.txt").write_bytes(b"the" + b" 0.5" * 8 + b"\ngo\xffod" + b" 1" * 8 + b"\n")
    return _train_with("--pretrained", str(tmp_path / "vec.txt"))(tmp_path)


def _infer_with_flat_embedding(tmp_path):
    ckpt = make_zero_checkpoint(tmp_path)
    tensors = load_tensors(ckpt / "params.bin")
    tensors["embedding.weights"] = tensors["embedding.weights"].reshape(-1)
    save_tensors(ckpt / "params.bin", tensors)
    return ["infer", "--checkpoint", str(ckpt), "fine"]


def _infer_with_duplicate_tensor(tmp_path):
    ckpt = make_zero_checkpoint(tmp_path)
    blob = (ckpt / "params.bin").read_bytes()
    (count,) = struct.unpack_from("<I", blob, len(MAGIC))
    entries = blob[len(MAGIC) + 4:]  # every tensor, each written twice below
    (ckpt / "params.bin").write_bytes(MAGIC + struct.pack("<I", 2 * count) + entries + entries)
    return ["infer", "--checkpoint", str(ckpt), "fine"]


MALFORMED = {
    "lr-nan": (_train_with("--lr", "nan"), "lr must be"),
    "lr-inf": (_train_with("--lr", "inf"), "lr must be"),
    "l2-nan": (_train_with("--l2", "nan"), "l2 must be"),
    "train-seed-negative": (_train_with("--seed", "-1"), "seed must be"),
    "train-folds-one": (_train_with("--folds", "1"), "folds must be >= 2"),
    "config-clip-norm-nan": (_train_with_config("clip_norm=nan\n"), "clip_norm must be"),
    "config-l2-empty": (_train_with_config("l2=\n"), "bad value for l2"),
    "gradcheck-seed-negative": (lambda tmp_path: ["gradcheck", "--seed", "-1"],
                                "seed must be"),
    "gradcheck-tol-nan": (lambda tmp_path: ["gradcheck", "--tol", "nan"],
                          "gradcheck tolerance must be"),
    "gradcheck-tol-zero": (lambda tmp_path: ["gradcheck", "--tol", "0"],
                           "gradcheck tolerance must be"),
    "train-embed-huge": (_train_with("--embed", "100000000000"), "out of memory"),
    "vectors-nan": (_train_with_vectors("nan"), "vec.txt:2: "),
    "vectors-inf": (_train_with_vectors("-inf"), "vec.txt:2: "),
    "vectors-not-utf8": (_train_with_undecodable_vectors, "vec.txt:2: not valid UTF-8"),
    "checkpoint-flat-embedding": (_infer_with_flat_embedding,
                                  "does not match the vocabulary size"),
    "checkpoint-duplicate-tensor": (_infer_with_duplicate_tensor, "appears more than once"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, case):
    argv, message = MALFORMED[case]
    assert main(argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["train", "--dataset", str(FIXTURE), *TINY_FLAGS, "--fc-dim", "8",
                 "--out", str(out)]) == 0
    return out / "checkpoint"


CHECKPOINT_FILES = ("params.bin", "vocab.txt", "config.txt")


# Replacement bytes: any, or the ones that settings and numbers are written in.
replacements = st.one_of(st.binary(min_size=1, max_size=4),
                         st.text("0123456789.-=#e_\n", min_size=1, max_size=4).map(str.encode))


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(CHECKPOINT_FILES), st.integers(0, 2**20), replacements)
@example("vocab.txt", 1, b"u")  # "<uad>": no pad row
@example("params.bin", 0, b"D")  # a bad magic
def test_infer_on_a_corrupted_checkpoint_exits_with_one_line(tiny_checkpoint, name, offset,
                                                              data):
    # Bytes are replaced in place and none inserted, so a stored width grows
    # by at most a digit.
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "checkpoint"
        shutil.copytree(tiny_checkpoint, ckpt)
        blob = (ckpt / name).read_bytes()
        at = offset % len(blob)
        (ckpt / name).write_bytes((blob[:at] + data + blob[at + len(data):])[:len(blob)])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["infer", "--checkpoint", str(ckpt), "a", "fine", "film"])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), lines
    if code == 0:
        assert lines == [] and out.getvalue().startswith("probability=")
    else:
        assert len(lines) == 1 and lines[0].startswith(("error:", "i/o error:")[code - 1]), lines
        assert "Traceback" not in err.getvalue()

@pytest.fixture(scope="module")
def vector_file(tmp_path_factory):
    """A word-vector file of width 8 for the first 24 distinct tokens of the
    fixture's pos.txt."""
    words = list(dict.fromkeys((FIXTURE / "pos.txt").read_text().split()))[:24]
    rng = seeded_rng(0)
    path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
    path.write_text("".join(w + "".join(f" {v:.4f}" for v in rng.uniform(-1, 1, 8)) + "\n"
                            for w in words))
    return path


def exits_with_one_line(argv) -> None:
    """main(argv) exits 0 with an empty stderr, or 1 or 2 with one stderr
    line of its kind."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), lines
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith(("error:", "i/o error:")[code - 1]), lines


# Replacement bytes for corpora and vector files: any, or the ones that
# numbers and their separators are written in.
data_replacements = st.one_of(st.binary(min_size=1, max_size=4),
                              st.text("0123456789.-e \t\n", min_size=1, max_size=4)
                              .map(str.encode))


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(st.sampled_from(("pos.txt", "neg.txt", "vectors.txt")), st.integers(0, 2**20),
       data_replacements)
@example("pos.txt", 0, b"\xff")  # a corpus line that is not UTF-8
@example("neg.txt", 0, b"\n\n\n\n")  # blank lines
@example("vectors.txt", 0, b"\xff")  # a token that is not UTF-8
@example("vectors.txt", 2, b"9e99")  # a value past the float range
def test_train_and_eval_on_a_corrupted_corpus_exit_with_one_line(tiny_checkpoint, vector_file,
                                                                 name, offset, data):
    # train reads the corpus and the vector file, eval the corpus; 1 to 4
    # bytes of one of them are replaced in place.
    with tempfile.TemporaryDirectory() as tmp:
        dataset, vectors = Path(tmp) / "mr_sample", Path(tmp) / "vectors.txt"
        shutil.copytree(FIXTURE, dataset)
        shutil.copy(vector_file, vectors)
        target = vectors if name == "vectors.txt" else dataset / name
        blob = target.read_bytes()
        at = offset % len(blob)
        target.write_bytes((blob[:at] + data + blob[at + len(data):])[:len(blob)])
        exits_with_one_line(["train", "--dataset", str(dataset), *TINY_FLAGS, "--fc-dim", "8",
                             "--pretrained", str(vectors), "--out", str(Path(tmp) / "run")])
        exits_with_one_line(["eval", "--checkpoint", str(tiny_checkpoint), "--dataset",
                             str(dataset), "--format", "mr"])


def test_missing_required_flag_exits_1(capsys):
    assert main(["train"]) == 1
    assert "error:" in capsys.readouterr().err

def test_bad_variant_choice_exits_1(tmp_path, capsys):
    code = main(["train", "--dataset", str(FIXTURE), "--format", "mr",
                 "--variant", "nope", "--out", str(tmp_path / "o")])
    assert code == 1

def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "cru.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("train", "eval", "gradcheck", "infer", "rc-features"):
        assert sub in proc.stdout
