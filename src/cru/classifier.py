"""Bidirectional sentiment classifier: embed -> recurrent pair -> fc -> sigmoid.

There is one forward path, over padded batches run in a packed layout; a
single sentence is a batch of one.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_tensors, save_tensors
from .data import Batch, Sample, Vocab, batch_and_pad, encode_corpus, parse_kv_file
from .errors import ConfigError, ContractError, NumericError
from .layers import PAD_ID, DenseLayer, dense_forward, dropout_apply
from .optim import Adam
from .recurrent import VARIANTS, make_cell, pack, run_sequence

# The telemetry that train_epoch reports, with the format it is written in.
TELEMETRY = (("seconds", ".6f"), ("tokens_per_s", ".1f"), ("grad_norm", ".6f"),
             ("clip_frac", ".4f"))

# Seed-stream tags so every randomness consumer gets an independent generator.
_TAG_INIT, _TAG_DROPOUT, _TAG_SHUFFLE, _TAG_EMBED = 1, 2, 3, 5


def seeded_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------

@dataclass
class TrainConfig:
    variant: str = "deep_enhanced"
    filter_k: int = 3
    embed_dim: int = 200
    hidden_dim: int = 200
    dropout: float = 0.3
    lr: float = 5e-4
    l2: float = 1e-4
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    vocab_cap: int | None = None
    pretrained: str | None = None
    fc_dim: int = 1024
    clip_norm: float = 5.0
    folds: int = 10
    run_folds: int | None = None  # cap on folds actually trained; None = all

    def validate(self) -> "TrainConfig":
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.filter_k < 1 or self.filter_k % 2 == 0:
            raise ConfigError(f"filter must be odd and >= 1, got {self.filter_k}")
        for name in ("embed_dim", "hidden_dim", "fc_dim", "batch_size", "folds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        # Written so that NaN fails each float check.
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.l2 < np.inf:
            raise ConfigError(f"l2 must be >= 0 and finite, got {self.l2}")
        if not 0 < self.clip_norm < np.inf:
            raise ConfigError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant == "deep" and self.hidden_dim != self.embed_dim:
            raise ConfigError(
                f"deep fusion requires hidden == embed, got hidden={self.hidden_dim} "
                f"embed={self.embed_dim}"
            )
        if self.vocab_cap is not None and self.vocab_cap < 3:
            raise ConfigError(f"vocab_cap must be >= 3, got {self.vocab_cap}")
        if self.run_folds is not None and not 1 <= self.run_folds <= self.folds:
            raise ConfigError(
                f"run_folds must be in [1, {self.folds}], got {self.run_folds}"
            )
        return self

    def to_kv(self) -> dict[str, str]:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = "" if v is None else str(v)
        return out

    @classmethod
    def from_kv(cls, kv: dict[str, str]) -> "TrainConfig":
        """Parse each value by its field's annotation; "" is None where the
        field may be None."""
        typed = {}
        for f in fields(cls):
            if f.name not in kv:
                continue
            raw, (kind, *optional) = kv[f.name], f.type.split(" | ")
            try:
                typed[f.name] = (None if optional and raw == ""
                                 else {"str": str, "int": int, "float": float}[kind](raw))
            except ValueError:
                raise ConfigError(f"bad value for {f.name}: {raw!r}") from None
        unknown = set(kv) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**typed).validate()


# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------

@dataclass
class SentimentModel:
    embedding: Tensor  # (V, d)
    fwd_cell: object
    bwd_cell: object
    fc: DenseLayer
    out: DenseLayer
    dropout: float

    @classmethod
    def build(cls, config: TrainConfig, vocab_size: int,
              rng: np.random.Generator,
              embedding: Tensor | None = None) -> "SentimentModel":
        """A fresh model; its embedding table, unless given, is drawn from
        Uniform(-0.05, 0.05) with a zero pad row."""
        config.validate()
        if embedding is None:
            w = rng.uniform(-0.05, 0.05, size=(vocab_size, config.embed_dim))
            w[PAD_ID] = 0.0
            embedding = Tensor(w, requires_grad=True)
        if embedding.shape != (vocab_size, config.embed_dim):
            raise ConfigError(
                f"embedding table of shape {embedding.shape} does not match "
                f"the vocabulary size {vocab_size} and embed_dim {config.embed_dim}"
            )
        fwd = make_cell(config.variant, rng, config.embed_dim, config.hidden_dim,
                        config.filter_k)
        bwd = make_cell(config.variant, rng, config.embed_dim, config.hidden_dim,
                        config.filter_k)
        fc = DenseLayer.init(rng, config.fc_dim, 2 * config.hidden_dim, "relu")
        out = DenseLayer.init(rng, 1, config.fc_dim, "sigmoid")
        return cls(embedding=embedding, fwd_cell=fwd, bwd_cell=bwd, fc=fc, out=out,
                   dropout=config.dropout)

    def named_params(self) -> dict[str, Tensor]:
        params = {"embedding.weights": self.embedding}
        params.update(self.fwd_cell.named_params("fwd."))
        params.update(self.bwd_cell.named_params("bwd."))
        params.update({"fc.weights": self.fc.weights, "fc.bias": self.fc.bias,
                       "out.weights": self.out.weights, "out.bias": self.out.bias})
        return params

    def forward_batch(self, batch: Batch, train: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Probabilities (B,) for a padded batch."""
        b, n = batch.ids.shape
        lengths = batch.mask.sum(axis=1).astype(np.intp)
        packing = pack(lengths)
        tokens = (np.arange(n) < lengths[:, None]).reshape(-1)
        # Only the tokens' rows are looked up. Their dropout mask is drawn
        # over all b * n positions, so the draws do not depend on the padding.
        E = ad.take_rows(self.embedding, batch.ids.reshape(-1)[tokens])
        E = dropout_apply(E, self.dropout, train, rng, rows=tokens)
        # Both directions read the dropped embeddings, each in its packed
        # order, and their states sit side by side. The directions share each
        # row's last packed row, so one gather reads both final states.
        states = run_sequence((self.fwd_cell, self.bwd_cell), E, packing)
        h = ad.take_rows(states, packing.last)

        h = dense_forward(self.fc, h)
        h = dropout_apply(h, self.dropout, train, rng)
        p = dense_forward(self.out, h)
        return ad.reshape(p, (b,))


# --------------------------------------------------------------------------
# Loss and loops
# --------------------------------------------------------------------------

def bce_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with probabilities clamped to [1e-7, 1-1e-7]:
    one ``autodiff.bce`` op."""
    return ad.bce(p, y)


def train_epoch(model: SentimentModel, optimizer: Adam, batches: list[Batch],
                config: TrainConfig, rng: np.random.Generator | None,
                stats: dict | None = None) -> tuple[float, float]:
    """One pass over the batches; returns (mean loss, train accuracy), and
    puts the epoch's ``TELEMETRY`` into stats if given: its wall seconds,
    tokens per second, mean pre-clip gradient norm and fraction of steps
    clipped."""
    start = time.perf_counter()
    total_loss = 0.0
    correct = 0
    count = 0
    norms = []
    for i, batch in enumerate(batches):
        try:
            with ad.Tape() as tape:
                p = model.forward_batch(batch, train=True, rng=rng)
                loss = bce_loss(p, batch.labels)
                tape.backward(loss)
            # The embedding's L2 term is off the tape: the norm pass adds it.
            norms.append(optimizer.clip_gradients(config.clip_norm,
                                                  {"embedding.weights": config.l2}))
        except NumericError as exc:
            raise NumericError(f"non-finite value while training batch {i}: {exc}") from exc
        optimizer.step()
        optimizer.zero_grad()
        b = batch.size
        total_loss += (loss.item() + optimizer.penalty) * b
        correct += int(np.sum((p.data >= 0.5) == (batch.labels == 1.0)))
        count += b
    if stats is not None:
        seconds = time.perf_counter() - start
        stats.update(seconds=seconds,
                     tokens_per_s=sum(int(b.mask.sum()) for b in batches) / seconds,
                     grad_norm=float(np.mean(norms)),
                     clip_frac=float(np.mean([n > config.clip_norm for n in norms])))
    return total_loss / count, correct / count


def evaluate(model: SentimentModel, batches: list[Batch]) -> tuple[float, float]:
    """(mean loss, accuracy) with threshold 0.5; ties predict positive."""
    if not batches:
        raise ContractError("evaluation needs at least one batch")
    total_loss = 0.0
    correct = 0
    count = 0
    for i, batch in enumerate(batches):
        try:
            p = model.forward_batch(batch, train=False)
            loss = bce_loss(p, batch.labels)
        except NumericError as exc:
            raise NumericError(f"non-finite value while evaluating batch {i}: {exc}") from exc
        b = batch.size
        total_loss += loss.item() * b
        correct += int(np.sum((p.data >= 0.5) == (batch.labels == 1.0)))
        count += b
    return total_loss / count, correct / count


def train_on_split(train_samples: list[Sample], test_samples: list[Sample],
                   config: TrainConfig, vocab: Vocab, fold: int = 0,
                   base_embedding: Tensor | None = None,
                   log_fn=None) -> tuple[SentimentModel, list[dict]]:
    """Train one model on a train/test split; returns (model, history rows).

    base_embedding (e.g. pretrained) is copied so folds stay independent.
    """
    config.validate()
    if not train_samples:
        raise ContractError("training split is empty")
    embedding = None
    if base_embedding is not None:
        embedding = Tensor(base_embedding.data.copy(), requires_grad=True)
    model = SentimentModel.build(config, len(vocab), seeded_rng(config.seed, _TAG_INIT, fold),
                                 embedding=embedding)
    optimizer = Adam(model.named_params(), lr=config.lr)

    train_enc = encode_corpus(vocab, train_samples)
    test_enc = encode_corpus(vocab, test_samples) if test_samples else []
    test_batches = batch_and_pad(test_enc, config.batch_size) if test_enc else []

    history: list[dict] = []

    def record(**r) -> None:
        # Each row is logged as soon as it exists, so a failed evaluation
        # still leaves the train row of its epoch in the log.
        history.append(r)
        if log_fn is not None:
            log_fn("epoch={epoch} fold={fold} split={split} "
                   "loss={loss:.6f} accuracy={accuracy:.4f}".format(**r)
                   + "".join(f" {k}={r[k]:{f}}" for k, f in TELEMETRY if k in r))

    for epoch in range(1, config.epochs + 1):
        shuffle_rng = seeded_rng(config.seed, _TAG_SHUFFLE, fold, epoch)
        drop_rng = seeded_rng(config.seed, _TAG_DROPOUT, fold, epoch)
        batches = batch_and_pad(train_enc, config.batch_size, rng=shuffle_rng)
        stats: dict = {}
        loss, acc = train_epoch(model, optimizer, batches, config, drop_rng, stats)
        record(epoch=epoch, fold=fold, split="train", loss=loss, accuracy=acc, **stats)
        if test_batches:
            t_loss, t_acc = evaluate(model, test_batches)
            record(epoch=epoch, fold=fold, split="test", loss=t_loss, accuracy=t_acc)
    return model, history


# --------------------------------------------------------------------------
# Checkpointing
# --------------------------------------------------------------------------

def save_checkpoint(out_dir, model: SentimentModel, config: TrainConfig,
                    vocab: Vocab, optimizer: Adam | None = None) -> None:
    """Write params.bin, vocab.txt and config.txt to out_dir, atomically.

    The files are written into a temporary sibling directory that is then
    renamed to out_dir; an existing checkpoint is moved aside first and
    removed after. A failed save leaves the previous checkpoint in place.
    """
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise FileExistsError(f"{out} exists and is not a directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex
    tmp = out.with_name(f".{out.name}.tmp-{token}")
    old = out.with_name(f".{out.name}.old-{token}") if out.exists() else None
    tmp.mkdir()
    try:
        tensors = {name: t.data for name, t in model.named_params().items()}
        if optimizer is not None:
            for key, arr in optimizer.state_dict().items():
                tensors[f"optim.{key}"] = arr
        save_tensors(tmp / "params.bin", tensors)
        vocab.save(tmp / "vocab.txt")
        kv = config.to_kv()
        lines = [f"{k}={v}" for k, v in kv.items()]
        (tmp / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if old is not None:
            os.replace(out, old)
        try:
            os.replace(tmp, out)
        except BaseException:
            if old is not None:
                os.replace(old, out)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if old is not None:
        shutil.rmtree(old)


def load_checkpoint(ckpt_dir) -> tuple[SentimentModel, TrainConfig, Vocab]:
    ckpt = Path(ckpt_dir)
    for name in ("params.bin", "vocab.txt", "config.txt"):
        if not (ckpt / name).is_file():
            raise FileNotFoundError(f"{ckpt}: missing {name}")
    config = TrainConfig.from_kv(parse_kv_file(ckpt / "config.txt"))
    vocab = Vocab.load(ckpt / "vocab.txt")

    stored = load_tensors(ckpt / "params.bin")
    if "embedding.weights" not in stored:
        raise ConfigError("checkpoint is missing tensor embedding.weights")
    # The model is built around the stored table; the tensors drawn for the
    # rest are overwritten below.
    model = SentimentModel.build(
        config, len(vocab), seeded_rng(config.seed, _TAG_INIT),
        embedding=Tensor(stored["embedding.weights"], requires_grad=True))
    for name, tensor in model.named_params().items():
        if name not in stored:
            raise ConfigError(f"checkpoint is missing tensor {name}")
        if stored[name].shape != tensor.data.shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {stored[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = stored[name]  # load_tensors returns fresh arrays
    return model, config, vocab
