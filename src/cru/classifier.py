"""Bidirectional sentiment classifier: embed -> recurrent pair -> fc -> sigmoid.

There is one forward path, over padded batches; a single sentence is a batch
of one.
"""

from __future__ import annotations

import os
import shutil
import uuid
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_tensors, save_tensors
from .data import Batch, Sample, Vocab, batch_and_pad, encode_corpus
from .errors import ConfigError, ContractError, NumericError
from .layers import DenseLayer, EmbeddingTable, dense_forward, dropout_apply
from .optim import Adam, l2_penalty
from .recurrent import VARIANTS, make_cell, run_sequence

# Seed-stream tags so every randomness consumer gets an independent generator.
_TAG_INIT, _TAG_DROPOUT, _TAG_SHUFFLE, _TAG_FOLDS, _TAG_EMBED = 1, 2, 3, 4, 5


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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.l2 < 0:
            raise ConfigError(f"l2 must be >= 0, got {self.l2}")
        if self.clip_norm <= 0:
            raise ConfigError(f"clip_norm must be positive, got {self.clip_norm}")
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
        typed = {}
        for f in fields(cls):
            if f.name not in kv:
                continue
            raw = kv[f.name]
            if raw == "":
                typed[f.name] = None
                continue
            try:
                if f.name in ("variant", "pretrained"):
                    typed[f.name] = raw
                elif f.name in ("dropout", "lr", "l2", "clip_norm"):
                    typed[f.name] = float(raw)
                else:
                    typed[f.name] = int(raw)
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
    embedding: EmbeddingTable
    fwd_cell: object
    bwd_cell: object
    fc: DenseLayer
    out: DenseLayer
    dropout: float

    @classmethod
    def build(cls, config: TrainConfig, vocab_size: int,
              rng: np.random.Generator,
              embedding: EmbeddingTable | None = None) -> "SentimentModel":
        config.validate()
        if embedding is None:
            embedding = EmbeddingTable.init(rng, vocab_size, config.embed_dim)
        if embedding.dim != config.embed_dim:
            raise ConfigError(
                f"embedding width {embedding.dim} does not match embed_dim "
                f"{config.embed_dim}"
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
        params = {"embedding.weights": self.embedding.weights}
        params.update(self.fwd_cell.named_params("fwd."))
        params.update(self.bwd_cell.named_params("bwd."))
        params.update({"fc.weights": self.fc.weights, "fc.bias": self.fc.bias,
                       "out.weights": self.out.weights, "out.bias": self.out.bias})
        return params

    def forward_batch(self, batch: Batch, train: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Probabilities (B,) for a padded batch."""
        b, n = batch.ids.shape
        d = self.embedding.dim

        flat = ad.take_rows(self.embedding.weights, batch.ids.reshape(-1))
        flat = dropout_apply(flat, self.dropout, train, rng)
        # Zero padded positions so convolution windows near the tail see the
        # same zeros an unpadded run would.
        pad_mask = np.repeat(batch.mask.reshape(-1)[:, None], d, axis=1)
        flat = ad.mul(flat, Tensor(pad_mask))

        # The reversed path reuses the exact dropped embeddings, permuted so
        # each row's tokens run backward with pads staying at the tail.
        lengths = batch.mask.sum(axis=1).astype(np.intp)
        perm = np.arange(b * n, dtype=np.intp).reshape(b, n)
        for row, ln in enumerate(lengths):
            perm[row, :ln] = perm[row, :ln][::-1]
        E = ad.reshape(flat, (b, n, d))
        E_rev = ad.reshape(ad.take_rows(flat, perm.reshape(-1)), (b, n, d))

        # Rows run on over their padding; row r's final state is its state at
        # step lengths[r] - 1, row (lengths[r] - 1) * b + r of the stacked states.
        last = (lengths - 1) * b + np.arange(b)
        final_f = ad.take_rows(ad.concat_rows(run_sequence(self.fwd_cell, E)), last)
        final_b = ad.take_rows(ad.concat_rows(run_sequence(self.bwd_cell, E_rev)), last)
        h = ad.concat_cols([final_f, final_b])

        h = dense_forward(self.fc, h)
        h = dropout_apply(h, self.dropout, train, rng)
        p = dense_forward(self.out, h)
        return ad.reshape(p, (b,))


# --------------------------------------------------------------------------
# Loss and loops
# --------------------------------------------------------------------------

def bce_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with probabilities clamped to [1e-7, 1-1e-7]."""
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ContractError(f"probabilities {p.shape} and labels {y.shape} differ")
    pc = ad.clip_values(p, 1e-7, 1.0 - 1e-7)
    pos = ad.mul(Tensor(y), ad.log(pc))
    neg = ad.mul(Tensor(1.0 - y), ad.log(ad.sub(1.0, pc)))
    return ad.mul(ad.mean_all(ad.add(pos, neg)), -1.0)


def train_epoch(model: SentimentModel, optimizer: Adam, batches: list[Batch],
                config: TrainConfig,
                rng: np.random.Generator | None) -> tuple[float, float]:
    """One pass over the batches; returns (mean loss, train accuracy)."""
    total_loss = 0.0
    correct = 0
    count = 0
    for i, batch in enumerate(batches):
        try:
            with ad.Tape() as tape:
                p = model.forward_batch(batch, train=True, rng=rng)
                loss = bce_loss(p, batch.labels)
                if config.l2 > 0:
                    loss = ad.add(loss, l2_penalty(model.embedding.weights, config.l2))
                tape.backward(loss)
        except NumericError as exc:
            raise NumericError(f"non-finite value while training batch {i}: {exc}") from exc
        # Free every forward tensor and closure before Adam makes its temporaries.
        del tape
        optimizer.clip_gradients(config.clip_norm)
        optimizer.step()
        optimizer.zero_grad()
        b = batch.size
        total_loss += loss.item() * b
        correct += int(np.sum((p.data >= 0.5) == (batch.labels == 1.0)))
        count += b
    return total_loss / count, correct / count


def _eval_metrics(model: SentimentModel, batches: list[Batch]) -> tuple[float, float]:
    if not batches:
        raise ContractError("evaluation needs at least one batch")
    total_loss = 0.0
    correct = 0
    count = 0
    for batch in batches:
        p = model.forward_batch(batch, train=False)
        loss = bce_loss(p, batch.labels)
        b = batch.size
        total_loss += loss.item() * b
        correct += int(np.sum((p.data >= 0.5) == (batch.labels == 1.0)))
        count += b
    return total_loss / count, correct / count


def evaluate(model: SentimentModel, batches: list[Batch]) -> float:
    """Accuracy with threshold 0.5; ties predict positive."""
    return _eval_metrics(model, batches)[1]


def train_on_split(train_samples: list[Sample], test_samples: list[Sample],
                   config: TrainConfig, vocab: Vocab, fold: int = 0,
                   base_embedding: EmbeddingTable | None = None,
                   log_fn=None) -> tuple[SentimentModel, list[dict]]:
    """Train one model on a train/test split; returns (model, history rows).

    base_embedding (e.g. pretrained) is copied so folds stay independent.
    """
    config.validate()
    if not train_samples:
        raise ContractError("training split is empty")
    embedding = None
    if base_embedding is not None:
        embedding = EmbeddingTable(Tensor(base_embedding.weights.data.copy(),
                                          requires_grad=True))
    model = SentimentModel.build(config, len(vocab), seeded_rng(config.seed, _TAG_INIT, fold),
                                 embedding=embedding)
    optimizer = Adam(model.named_params(), lr=config.lr)

    train_enc = encode_corpus(vocab, train_samples)
    test_enc = encode_corpus(vocab, test_samples) if test_samples else []
    test_batches = batch_and_pad(test_enc, config.batch_size) if test_enc else []

    history: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        shuffle_rng = seeded_rng(config.seed, _TAG_SHUFFLE, fold, epoch)
        drop_rng = seeded_rng(config.seed, _TAG_DROPOUT, fold, epoch)
        batches = batch_and_pad(train_enc, config.batch_size, rng=shuffle_rng)
        loss, acc = train_epoch(model, optimizer, batches, config, drop_rng)
        rows = [dict(epoch=epoch, fold=fold, split="train", loss=loss, accuracy=acc)]
        if test_batches:
            t_loss, t_acc = _eval_metrics(model, test_batches)
            rows.append(dict(epoch=epoch, fold=fold, split="test",
                             loss=t_loss, accuracy=t_acc))
        history.extend(rows)
        if log_fn is not None:
            for r in rows:
                log_fn("epoch={epoch} fold={fold} split={split} "
                       "loss={loss:.6f} accuracy={accuracy:.4f}".format(**r))
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
    kv = {}
    for line in (ckpt / "config.txt").read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(f"{ckpt}/config.txt: bad line {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()
    config = TrainConfig.from_kv(kv)
    vocab = Vocab.load(ckpt / "vocab.txt")

    model = SentimentModel.build(config, len(vocab), seeded_rng(config.seed, _TAG_INIT))
    stored = load_tensors(ckpt / "params.bin")
    for name, tensor in model.named_params().items():
        if name not in stored:
            raise ConfigError(f"checkpoint is missing tensor {name}")
        if stored[name].shape != tensor.data.shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {stored[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = stored[name].copy()
    return model, config, vocab
