"""Command-line entry point: train / eval / gradcheck / infer / rc-features.

Exit codes: 0 success, 1 configuration, 2 I/O, 3 numeric, 4 verification
failure, 130 interrupted (Ctrl-C), 143 terminated (SIGTERM, through
``entry``). Configuration precedence: command-line flag > config-file entry >
per-dataset default.
"""

from __future__ import annotations

import argparse
import csv
import os
import signal
import sys
import uuid
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_diff_gradcheck
from .classifier import (TELEMETRY, SentimentModel, TrainConfig, _TAG_EMBED, evaluate,
                         bce_loss, load_checkpoint, save_checkpoint, seeded_rng,
                         train_on_split)
from .data import (FORMATS, Batch, Sample, batch_and_pad, build_vocab, encode_corpus,
                   load_corpus, load_document_corpus, load_pretrained_embeddings,
                   make_folds, parse_kv_file, read_lines, tokenize)
from .errors import ConfigError, CruError, NumericError
from .recurrent import VARIANTS, make_cell, pack, run_sequence

# Per-dataset settings that differ from TrainConfig's defaults (which are
# mr's), applied whenever neither a flag nor the config file gives them.
DATASET_DEFAULTS: dict[str, dict[str, str]] = {
    "subj": {"dropout": "0.4"},
    "imdb": {"embed_dim": "256", "hidden_dim": "256", "lr": "0.001", "vocab_cap": "50000"},
}

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field but clip_norm, each stored under its
    field's name."""
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--filter", type=int, dest="filter_k",
                   help="convolution window width (odd)")
    p.add_argument("--embed", type=int, dest="embed_dim", help="embedding width")
    p.add_argument("--hidden", type=int, dest="hidden_dim", help="hidden state width")
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--vocab-cap", type=int, dest="vocab_cap")
    p.add_argument("--pretrained", help="text word-vector file")
    p.add_argument("--fc-dim", type=int, dest="fc_dim")
    p.add_argument("--folds", type=int, help="cross-validation fold count")
    p.add_argument("--run-folds", type=int, dest="run_folds",
                   help="train only the first N folds")
    p.add_argument("--config", help="flat key=value config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="cru", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train with cross-validation or a fixed split")
    train.add_argument("--dataset", required=True,
                       help="dataset directory, or a name looked up under data/")
    train.add_argument("--format", choices=FORMATS)
    train.add_argument("--out", default=None, help="output directory")
    _add_train_flags(train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--format", choices=FORMATS)
    ev.add_argument("--out", default=None)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.add_argument("--seed", type=int, default=0,
                    help="each component is checked on seeds SEED to SEED+4")

    inf = sub.add_parser("infer", help="classify one piece of text")
    inf.add_argument("--checkpoint", required=True)
    inf.add_argument("text", nargs="+", help="text to classify")

    rc = sub.add_parser("rc-features",
                        help="per-token frequency and query-count features")
    rc.add_argument("--document", required=True)
    rc.add_argument("--query", required=True)
    return parser


# --------------------------------------------------------------------------
# Config resolution
# --------------------------------------------------------------------------

def resolve_dataset(dataset: str, fmt: str | None) -> tuple[Path, str]:
    """A bare known name maps to data/<name>; otherwise the path is literal."""
    path = Path(dataset)
    if dataset in FORMATS and not path.exists():
        path = Path("data") / dataset
        fmt = fmt or dataset
    if fmt is None:
        name = path.name.lower()
        if name in FORMATS:
            fmt = name
        else:
            raise ConfigError("--format is required when the dataset name "
                              f"is not one of {FORMATS}")
    return path, fmt


def resolve_train_config(args) -> TrainConfig:
    kv: dict[str, str] = dict(DATASET_DEFAULTS.get(args.fmt, {}))
    if getattr(args, "config", None):
        file_kv = parse_kv_file(args.config)
        unknown = set(file_kv) - set(TrainConfig().to_kv())
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
        kv.update(file_kv)
    for f in fields(TrainConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            kv[f.name] = str(val)
    return TrainConfig.from_kv(kv)


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def _has_splits(path: Path, fmt: str) -> bool:
    """Whether path is an imdb tree with fixed train/ and test/ splits."""
    return fmt == "imdb" and (path / "train").is_dir() and (path / "test").is_dir()


def write_csv(path: Path, rows) -> None:
    """Write rows to path as CSV, atomically, as ``save_checkpoint`` writes:
    into a temporary file beside it, renamed over it once complete. A failed
    write leaves the previous file as it was, and no temporary file."""
    tmp = path.with_name(f".{path.name}.tmp-{uuid.uuid4().hex}")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_train(args) -> int:
    path, fmt = resolve_dataset(args.dataset, args.format)
    args.fmt = fmt
    config = resolve_train_config(args)

    out_dir = Path(args.out) if args.out else Path("runs") / f"{fmt}-{config.variant}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Line-buffered, so a run that fails keeps every line printed before.
    with open(out_dir / "train.log", "w", encoding="utf-8", buffering=1) as log:
        def emit(line: str) -> None:
            print(line)
            log.write(line + "\n")

        for k, v in sorted(config.to_kv().items()):
            emit(f"config {k}={v}")

        if _has_splits(path, fmt):
            train_corpus = load_document_corpus(path / "train")
            test_corpus = load_document_corpus(path / "test")
        else:
            train_corpus, test_corpus = load_corpus(path, fmt), None
        emit(f"data format={fmt} train_samples={len(train_corpus)}"
             + (f" test_samples={len(test_corpus)}" if test_corpus else ""))

        vocab = build_vocab(train_corpus, config.vocab_cap)
        emit(f"vocab size={len(vocab)}")

        base_embedding = None
        if config.pretrained:
            base_embedding, coverage = load_pretrained_embeddings(
                config.pretrained, vocab, config.embed_dim,
                seeded_rng(config.seed, _TAG_EMBED))
            emit(f"pretrained file={config.pretrained} coverage={coverage:.4f}")

        samples = train_corpus.samples
        if test_corpus is not None:
            splits = [(samples, test_corpus.samples)]
        else:
            plan = make_folds(len(samples), config.folds, config.seed)
            splits = [([samples[i] for i in plan.train_indices(fold)],
                       [samples[i] for i in plan.test_indices(fold)])
                      for fold in range(config.run_folds or config.folds)]
        history: list[dict] = []
        accuracies: list[float] = []
        for fold, (tr, te) in enumerate(splits):
            model, rows = train_on_split(tr, te, config, vocab, fold=fold,
                                         base_embedding=base_embedding, log_fn=emit)
            history.extend(rows)
            accuracies.append([r for r in rows if r["split"] == "test"][-1]["accuracy"])
        if test_corpus is not None:
            emit(f"summary split=test accuracy={accuracies[0]:.4f}")
        else:
            emit(f"summary folds={len(splits)} "
                 f"mean_cv_accuracy={float(np.mean(accuracies)):.4f}")

        # Test rows leave the training telemetry empty.
        write_csv(out_dir / "metrics.csv",
                  [["epoch", "fold", "split", "loss", "accuracy"] + [k for k, _ in TELEMETRY]]
                  + [[r["epoch"], r["fold"], r["split"], f"{r['loss']:.6f}",
                      f"{r['accuracy']:.6f}"]
                     + [format(r[k], f) if k in r else "" for k, f in TELEMETRY]
                     for r in history])
        # The last model trained is the one saved.
        emit(f"checkpoint fold={len(splits) - 1} path={out_dir / 'checkpoint'}")
        save_checkpoint(out_dir / "checkpoint", model, config, vocab)
        emit(f"artifacts checkpoint={out_dir / 'checkpoint'} "
             f"metrics={out_dir / 'metrics.csv'}")
    return 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def cmd_eval(args) -> int:
    model, config, vocab = load_checkpoint(args.checkpoint)
    path, fmt = resolve_dataset(args.dataset, args.format)
    # A tree with fixed splits is scored on its test split only.
    corpus = (load_document_corpus(path / "test") if _has_splits(path, fmt)
              else load_corpus(path, fmt))
    batches = batch_and_pad(encode_corpus(vocab, corpus.samples), config.batch_size)
    loss, acc = evaluate(model, batches)
    print(f"eval samples={len(corpus.samples)} loss={loss:.6f} accuracy={acc:.4f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "eval.csv", [["epoch", "fold", "split", "loss", "accuracy"],
                                         [0, 0, "eval", f"{loss:.6f}", f"{acc:.6f}"]])
    return 0


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

def _check_cell(variant: str, seed: int, tol: float):
    rng = seeded_rng(seed, 11)
    d = 3 if variant in ("deep", "deep_enhanced") else 4
    d_h = d if variant == "deep" else 4
    n = 5
    # A ragged two-row batch (lengths n and n - 2) run in both directions, as
    # forward_batch runs it; the loss reads every packed state. The forward
    # cell and E are drawn first, as for a one-direction check.
    cells = [make_cell(variant, rng, d_in=d, d_h=d_h, k=3)]
    E = Tensor(0.5 * rng.standard_normal((2 * n, d))[:2 * n - 2], requires_grad=True)
    cells.append(make_cell(variant, rng, d_in=d, d_h=d_h, k=3))
    packing = pack([n, n - 2])
    params = {f"{side}.{n}": t for side, cell in zip(("fwd", "bwd"), cells)
              for n, t in cell.params.items()}
    params["E"] = E

    def f():
        return ad.sum_all(run_sequence(cells, E, packing))

    return finite_diff_gradcheck(f, params, tol=tol)


def _check_classifier(seed: int, tol: float):
    rng = seeded_rng(seed, 12)
    config = TrainConfig(variant="deep_enhanced", filter_k=3, embed_dim=3,
                         hidden_dim=3, dropout=0.0, fc_dim=4, vocab_cap=None,
                         pretrained=None)
    model = SentimentModel.build(config, vocab_size=7, rng=rng)
    # Re-draw embeddings and biases at healthy scales: the training-time
    # defaults (0.05-scale embeddings, zero biases) leave some gradients near
    # the gradient check's floor, where finite-difference roundoff
    # dominates and the comparison stops being informative.
    model.embedding.data = rng.uniform(-1.2, 1.2, model.embedding.shape)
    for name, p in model.named_params().items():
        if name.endswith((".b_z", ".b_r", ".b_h", ".bias")):
            p.data = rng.uniform(-0.2, 0.2, p.data.shape)

    ids = np.array([[2, 3, 4, 5, 6], [6, 2, 3, 0, 0]], dtype=np.intp)
    mask = np.array([[1.0, 1, 1, 1, 1], [1, 1, 1, 0, 0]])
    labels = np.array([1.0, 0.0])
    batch = Batch(ids=ids, mask=mask, labels=labels)
    params = model.named_params()

    def f():
        p = model.forward_batch(batch, train=False)
        return bce_loss(p, labels)

    return finite_diff_gradcheck(f, params, tol=tol)


def _gradcheck_jobs(base_seed: int, tol: float):
    jobs = []
    for variant in VARIANTS:
        for s in range(5):
            jobs.append((variant, lambda v=variant, s=s: _check_cell(v, base_seed + s, tol)))
    for s in range(5):
        jobs.append(("classifier", lambda s=s: _check_classifier(base_seed + s, tol)))
    return jobs


def run_gradcheck(base_seed: int = 0, tol: float = 1e-4,
                  emit=print) -> tuple[bool, dict[str, float]]:
    results: dict[str, list] = {}
    for name, fn in _gradcheck_jobs(base_seed, tol):
        results.setdefault(name, []).append(fn())

    worst: dict[str, float] = {}
    failing: list[str] = []
    for name, reports in results.items():
        worst[name] = max(r.max_rel_err for r in reports)
        for r in reports:
            if not r.passed:
                failing.extend(f"{name}.{p}" for p, e in r.per_param.items() if e >= tol)
        emit(f"component={name} max_rel_err={worst[name]:.3e} tol={tol:.1e} "
             f"status={'pass' if worst[name] < tol else 'FAIL'}")
    ok = not failing
    if not ok:
        emit("failing_parameters=" + ",".join(sorted(set(failing))))
    return ok, worst


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    ok, _ = run_gradcheck(args.seed, args.tol)
    return 0 if ok else 4


# --------------------------------------------------------------------------
# infer / rc-features
# --------------------------------------------------------------------------

def cmd_infer(args) -> int:
    model, _, vocab = load_checkpoint(args.checkpoint)
    text = " ".join(args.text)
    tokens = tokenize(text)
    if not tokens:
        raise ConfigError("no tokens after tokenization; give non-empty text")
    (batch,) = batch_and_pad(encode_corpus(vocab, [Sample(tokens, 0)]), 1)
    p = float(model.forward_batch(batch).data[0])
    label = "POS" if p >= 0.5 else "NEG"
    print(f"probability={p:.6f} label={label}")
    return 0


def cmd_rc_features(args) -> int:
    from .rc_features import count_of_query_word, doc_word_freq

    document = tokenize(" ".join(read_lines(args.document)))
    query = tokenize(" ".join(read_lines(args.query)))
    if not document or not query:
        raise ConfigError("document and query must both tokenize to >= 1 token")
    freq = doc_word_freq(document)
    coq = count_of_query_word(document, query)
    for tok, fv, cv in zip(document, freq, coq):
        print(f"{tok}\t{fv:.6f}\t{int(cv)}")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_DISPATCH = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "infer": cmd_infer,
    "rc-features": cmd_rc_features,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Every non-finite value becomes a NumericError through the Tensor
        # check, so numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            return _DISPATCH[args.command](args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CruError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Settings too large for this machine, such as a huge width.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        print("terminated", file=sys.stderr)
        return 143


class _Terminated(BaseException):
    """Raised by SIGTERM under ``entry``, so that every ``finally`` and
    ``except BaseException`` runs (a checkpoint's temporary directory is
    removed) before ``main`` prints its line."""


def _terminate(signum, frame):
    raise _Terminated


def entry() -> None:
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())


if __name__ == "__main__":
    entry()
