"""Command-line entry point: train / eval / gradcheck / infer / rc-features.

Exit codes: 0 success, 1 configuration, 2 I/O, 3 numeric, 4 verification
failure. Configuration precedence: command-line flag > config-file entry >
per-dataset default.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_diff_gradcheck
from .classifier import (SentimentModel, TrainConfig, _TAG_EMBED, _eval_metrics,
                         bce_loss, load_checkpoint, save_checkpoint, seeded_rng,
                         train_on_split)
from .data import (FORMATS, Batch, Corpus, Sample, batch_and_pad, build_vocab,
                   encode_corpus, load_corpus, load_document_corpus,
                   load_pretrained_embeddings, make_folds, tokenize)
from .errors import ConfigError, ContractError, NumericError, ParseError
from .optim import l2_penalty
from .recurrent import VARIANTS, make_cell, run_sequence

# Per-dataset defaults (embedding width, hidden width, dropout, learning
# rate, vocabulary cap) applied whenever a flag is not given explicitly.
DATASET_DEFAULTS: dict[str, dict[str, str]] = {
    "mr": {"embed_dim": "200", "hidden_dim": "200", "dropout": "0.3",
           "lr": "0.0005"},
    "subj": {"embed_dim": "200", "hidden_dim": "200", "dropout": "0.4",
             "lr": "0.0005"},
    "imdb": {"embed_dim": "256", "hidden_dim": "256", "dropout": "0.3",
             "lr": "0.001", "vocab_cap": "50000"},
}

# CLI destination -> TrainConfig field
_FLAG_FIELDS = {
    "variant": "variant", "filter": "filter_k", "embed": "embed_dim",
    "hidden": "hidden_dim", "dropout": "dropout", "lr": "lr", "l2": "l2",
    "batch": "batch_size", "epochs": "epochs", "seed": "seed",
    "vocab_cap": "vocab_cap", "pretrained": "pretrained", "fc_dim": "fc_dim",
    "folds": "folds", "run_folds": "run_folds",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--filter", type=int, help="convolution window width (odd)")
    p.add_argument("--embed", type=int, help="embedding width")
    p.add_argument("--hidden", type=int, help="hidden state width")
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--batch", type=int)
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
    gc.add_argument("--seed", type=int, default=0)

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

def parse_kv_file(path) -> dict[str, str]:
    kv: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(),
                                  start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        k, v = stripped.split("=", 1)
        kv[k.strip()] = v.strip()
    return kv


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
    for flag, field in _FLAG_FIELDS.items():
        val = getattr(args, flag, None)
        if val is not None:
            kv[field] = str(val)
    return TrainConfig.from_kv(kv)


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------

def _load_for_training(path: Path, fmt: str) -> tuple[Corpus, Corpus | None]:
    if fmt == "imdb" and (path / "train").is_dir() and (path / "test").is_dir():
        return (load_document_corpus(path / "train", fmt),
                load_document_corpus(path / "test", fmt))
    return load_corpus(path, fmt), None


def cmd_train(args) -> int:
    path, fmt = resolve_dataset(args.dataset, args.format)
    args.fmt = fmt
    config = resolve_train_config(args)

    out_dir = Path(args.out) if args.out else Path("runs") / f"{fmt}-{config.variant}"
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train.log"
    log_lines: list[str] = []

    def emit(line: str) -> None:
        print(line)
        log_lines.append(line)

    for k, v in sorted(config.to_kv().items()):
        emit(f"config {k}={v}")

    train_corpus, test_corpus = _load_for_training(path, fmt)
    emit(f"data format={fmt} train_samples={len(train_corpus)}"
         + (f" test_samples={len(test_corpus)}" if test_corpus else ""))

    vocab_source = Corpus(train_corpus.samples, fmt)
    vocab = build_vocab(vocab_source, config.vocab_cap)
    emit(f"vocab size={len(vocab)}")

    base_embedding = None
    if config.pretrained:
        base_embedding, coverage = load_pretrained_embeddings(
            config.pretrained, vocab, config.embed_dim,
            seeded_rng(config.seed, _TAG_EMBED))
        emit(f"pretrained file={config.pretrained} coverage={coverage:.4f}")

    history: list[dict] = []
    accuracies: list[float] = []
    if test_corpus is not None:
        model, rows = train_on_split(train_corpus.samples, test_corpus.samples,
                                     config, vocab, fold=0,
                                     base_embedding=base_embedding, log_fn=emit)
        history.extend(rows)
        ckpt_fold = 0
        final_acc = [r for r in rows if r["split"] == "test"][-1]["accuracy"]
        accuracies.append(final_acc)
        emit(f"summary split=test accuracy={final_acc:.4f}")
    else:
        plan = make_folds(len(train_corpus.samples), config.folds, config.seed)
        n_run = config.run_folds or config.folds
        samples = train_corpus.samples
        model = None
        for fold in range(n_run):
            tr = [samples[i] for i in plan.train_indices(fold)]
            te = [samples[i] for i in plan.test_indices(fold)]
            model, rows = train_on_split(tr, te, config, vocab, fold=fold,
                                         base_embedding=base_embedding, log_fn=emit)
            history.extend(rows)
            accuracies.append([r for r in rows if r["split"] == "test"][-1]["accuracy"])
        ckpt_fold = n_run - 1
        mean_acc = float(np.mean(accuracies))
        emit(f"summary folds={n_run} mean_cv_accuracy={mean_acc:.4f}")

    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "fold", "split", "loss", "accuracy"])
        for r in history:
            writer.writerow([r["epoch"], r["fold"], r["split"],
                             f"{r['loss']:.6f}", f"{r['accuracy']:.6f}"])
    # The last model trained is the one saved.
    emit(f"checkpoint fold={ckpt_fold} path={out_dir / 'checkpoint'}")
    save_checkpoint(out_dir / "checkpoint", model, config, vocab)
    log_path.write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    emit(f"artifacts checkpoint={out_dir / 'checkpoint'} "
         f"metrics={out_dir / 'metrics.csv'}")
    return 0


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

def cmd_eval(args) -> int:
    model, config, vocab = load_checkpoint(args.checkpoint)
    path, fmt = resolve_dataset(args.dataset, args.format)
    corpus, test_corpus = _load_for_training(path, fmt)
    if test_corpus is not None:
        corpus = test_corpus
    batches = batch_and_pad(encode_corpus(vocab, corpus.samples), config.batch_size)
    loss, acc = _eval_metrics(model, batches)
    print(f"eval samples={len(corpus.samples)} loss={loss:.6f} accuracy={acc:.4f}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "eval.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "fold", "split", "loss", "accuracy"])
            writer.writerow([0, 0, "eval", f"{loss:.6f}", f"{acc:.6f}"])
    return 0


# --------------------------------------------------------------------------
# gradcheck
# --------------------------------------------------------------------------

def _check_cell(variant: str, seed: int, tol: float):
    rng = seeded_rng(seed, 11)
    d = 3 if variant in ("deep", "deep_enhanced") else 4
    d_h = d if variant == "deep" else 4
    n = 5
    cell = make_cell(variant, rng, d_in=d, d_h=d_h, k=3)
    E = Tensor(0.5 * rng.standard_normal((1, n, d)), requires_grad=True)
    params = dict(cell.named_params())
    params["E"] = E

    def f():
        return ad.sum_all(ad.concat_rows(run_sequence(cell, E)))

    return finite_diff_gradcheck(f, params, tol=tol)


def _check_classifier(seed: int, tol: float):
    rng = seeded_rng(seed, 12)
    config = TrainConfig(variant="deep_enhanced", filter_k=3, embed_dim=3,
                         hidden_dim=3, dropout=0.0, fc_dim=4, vocab_cap=None,
                         pretrained=None)
    model = SentimentModel.build(config, vocab_size=7, rng=rng)
    # Re-draw embeddings and biases at healthy scales: the training-time
    # defaults (0.05-scale embeddings, zero biases) leave some gradients near
    # the 1e-8 relative-error floor, where finite-difference roundoff
    # dominates and the comparison stops being informative.
    model.embedding.weights.data = rng.uniform(-1.2, 1.2,
                                               model.embedding.weights.shape)
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
        loss = bce_loss(p, labels)
        return ad.add(loss, l2_penalty(model.embedding.weights, 1e-3))

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

    doc_text = Path(args.document).read_text(encoding="utf-8", errors="ignore")
    query_text = Path(args.query).read_text(encoding="utf-8", errors="ignore")
    document = tokenize(doc_text)
    query = tokenize(query_text)
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
        return _DISPATCH[args.command](args)
    except (ConfigError, ContractError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
