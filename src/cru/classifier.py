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
from .layers import PAD_ID, dense_forward, dropout_apply
from .optim import Adam
from .recurrent import VARIANTS, _CellBase, cell_shapes, draw, pack, run_sequence

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
        for name in ("embed_dim", "hidden_dim", "fc_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
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

def _table_mismatch(shape, vocab_size: int, config: TrainConfig) -> ConfigError:
    return ConfigError(f"embedding table of shape {shape} does not match the vocabulary "
                       f"size {vocab_size} and embed_dim {config.embed_dim}")


class SentimentModel:
    """The model is its parameters, by the names a checkpoint stores, in the
    order of ``shapes``; the two cells read theirs from the same dict."""

    def __init__(self, params: dict[str, Tensor], variant: str, dropout: float):
        self.params, self.variant, self.dropout = params, variant, dropout
        self.cells = tuple(
            _CellBase(variant, {n[len(side):]: t for n, t in params.items() if n.startswith(side)})
            for side in ("fwd.", "bwd."))

    @property
    def embedding(self) -> Tensor:
        return self.params["embedding.weights"]

    @staticmethod
    def shapes(config: TrainConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
        """Every parameter's name and shape, in the order a checkpoint stores
        them: the (V, d) embedding table, the forward cell's, the backward
        cell's, then the relu fc layer and the sigmoid output layer."""
        h, fc = config.hidden_dim, config.fc_dim
        cell = cell_shapes(config.variant, config.embed_dim, h, config.filter_k)
        return {"embedding.weights": (vocab_size, config.embed_dim),
                **{f"{side}.{n}": s for side in ("fwd", "bwd") for n, s in cell.items()},
                "fc.weights": (fc, 2 * h), "fc.bias": (fc,),
                "out.weights": (1, fc), "out.bias": (1,)}

    @classmethod
    def build(cls, config: TrainConfig, vocab_size: int,
              rng: np.random.Generator,
              embedding: Tensor | None = None) -> "SentimentModel":
        """A fresh model; its embedding table, unless given, is drawn from
        Uniform(-0.05, 0.05) with a zero pad row. The cells and the head are
        drawn after it, in that order. Drawn tensors are finite by
        construction and are not checked again; a given table keeps the
        check ``Tensor`` made of it."""
        config.validate()
        shapes = cls.shapes(config, vocab_size)
        if embedding is None:
            w = rng.uniform(-0.05, 0.05, size=shapes["embedding.weights"])
            w[PAD_ID] = 0.0
            embedding = ad._wrap_finite(w, requires_grad=True)
        if embedding.shape != shapes["embedding.weights"]:
            raise _table_mismatch(embedding.shape, vocab_size, config)
        params = {"embedding.weights": embedding}
        for section in ("fwd.", "bwd.", ("fc.", "out.")):
            params.update(draw({n: s for n, s in shapes.items() if n.startswith(section)}, rng))
        return cls(params, config.variant, config.dropout)

    @classmethod
    def from_params(cls, config: TrainConfig, vocab_size: int,
                    arrays: dict[str, np.ndarray]) -> "SentimentModel":
        """The model whose parameters are the given arrays, which it holds
        without copying, but for each cell's U_z and U_r, which it joins into
        one array (``recurrent._CellBase``), and does not check for finite
        entries again, as ``load_tensors`` checks every one; it draws
        nothing. Every name of ``shapes`` must be there, at its shape, and no
        other but optimizer state (``optim.*``)."""
        config.validate()
        shapes = cls.shapes(config, vocab_size)
        for name, shape in shapes.items():
            if name not in arrays:
                raise ConfigError(f"checkpoint is missing tensor {name}")
            if arrays[name].shape == shape:
                continue
            if name == "embedding.weights":
                raise _table_mismatch(arrays[name].shape, vocab_size, config)
            raise ConfigError(f"checkpoint tensor {name} has shape {arrays[name].shape}, "
                              f"model expects {shape}")
        for name in arrays:
            if name not in shapes and not name.startswith("optim."):
                raise ConfigError(f"checkpoint tensor {name} is not a parameter of a "
                                  f"{config.variant} model")
        return cls({n: ad._wrap_finite(arrays[n], requires_grad=True) for n in shapes},
                   config.variant, config.dropout)

    def named_params(self) -> dict[str, Tensor]:
        """The parameters, in the order of ``shapes``: the checkpoint's, and
        Adam's."""
        return self.params

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
        states = run_sequence(self.cells, E, packing)
        h = ad.take_rows(states, packing.last)

        h = dense_forward(h, self.params["fc.weights"], self.params["fc.bias"], "relu")
        h = dropout_apply(h, self.dropout, train, rng)
        p = dense_forward(h, self.params["out.weights"], self.params["out.bias"], "sigmoid")
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

    model = SentimentModel.from_params(config, len(vocab), load_tensors(ckpt / "params.bin"))
    return model, config, vocab
