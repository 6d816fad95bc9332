"""Corpus loading, tokenization, vocabulary, folds, and padded batching."""

from __future__ import annotations

import logging
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError
from .layers import PAD_ID, UNK_ID, EmbeddingTable
from .autodiff import Tensor

log = logging.getLogger("cru.data")

_PUNCT = set(string.punctuation)

FORMATS = ("mr", "subj", "imdb")


def tokenize(raw: str) -> list[str]:
    """Lowercase, split on whitespace, peel edge punctuation into own tokens.

    Interior punctuation stays attached ("don't" is one token); an empty
    result signals the caller to skip the line.
    """
    tokens: list[str] = []
    for chunk in raw.lower().split():
        lead: list[str] = []
        while chunk and chunk[0] in _PUNCT:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and chunk[-1] in _PUNCT:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        trail.reverse()
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(trail)
    return tokens


# --------------------------------------------------------------------------
# Corpora
# --------------------------------------------------------------------------

@dataclass
class Sample:
    tokens: list[str]
    label: int


@dataclass
class Corpus:
    samples: list[Sample]
    source: str = ""

    def __len__(self) -> int:
        return len(self.samples)


def _read_lines(path: Path) -> list[str]:
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        text = raw.decode("utf-8", errors="ignore")
        log.warning("dropped undecodable bytes in %s", path)
    return text.splitlines()


def _samples_from_lines(lines: list[str], label: int, origin: str) -> list[Sample]:
    out = []
    for i, line in enumerate(lines, start=1):
        tokens = tokenize(line)
        if not tokens:
            log.warning("skipping empty line %d of %s", i, origin)
            continue
        out.append(Sample(tokens, label))
    return out


def _find_pair(root: Path) -> tuple[Path, Path]:
    candidates = [
        (root / "pos.txt", root / "neg.txt"),
        *[(p, p.with_suffix(".neg")) for p in sorted(root.glob("*.pos"))],
    ]
    for pos, neg in candidates:
        if pos.is_file() and neg.is_file():
            return pos, neg
    raise FileNotFoundError(
        f"{root}: expected pos.txt/neg.txt or a matching *.pos / *.neg pair"
    )


def load_line_corpus(root, source: str) -> Corpus:
    """Two-file layout: one file of positive lines, one of negative lines."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"{root}: not a directory")
    pos_path, neg_path = _find_pair(root)
    samples = _samples_from_lines(_read_lines(pos_path), 1, str(pos_path))
    samples += _samples_from_lines(_read_lines(neg_path), 0, str(neg_path))
    if not samples:
        raise ContractError(f"{root}: no usable samples")
    return Corpus(samples, source)


def load_document_corpus(root, source: str = "imdb") -> Corpus:
    """Directory-per-class layout: pos/ and neg/ hold one document per file."""
    root = Path(root)
    samples: list[Sample] = []
    for sub, label in (("pos", 1), ("neg", 0)):
        d = root / sub
        if not d.is_dir():
            raise FileNotFoundError(f"{root}: missing class directory {sub}/")
        for path in sorted(d.glob("*.txt")):
            text = " ".join(_read_lines(path))
            tokens = tokenize(text)
            if not tokens:
                log.warning("skipping empty document %s", path)
                continue
            samples.append(Sample(tokens, label))
    if not samples:
        raise ContractError(f"{root}: no usable samples")
    return Corpus(samples, source)


def load_corpus(path, fmt: str) -> Corpus:
    if fmt not in FORMATS:
        raise ConfigError(f"unknown dataset format {fmt!r}; expected one of {FORMATS}")
    if fmt == "imdb":
        return load_document_corpus(path, fmt)
    return load_line_corpus(path, fmt)


# --------------------------------------------------------------------------
# Vocabulary
# --------------------------------------------------------------------------

class Vocab:
    """Dense token<->id map with pad=0 and unk=1 reserved."""

    def __init__(self, tokens: list[str]):
        self.itos: list[str] = ["<pad>", "<unk>", *tokens]
        self.stoi: dict[str, int] = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise ConfigError("vocabulary holds duplicate tokens")

    def __len__(self) -> int:
        return len(self.itos)

    def __contains__(self, token: str) -> bool:
        return token in self.stoi

    def encode(self, tokens: list[str]) -> np.ndarray:
        return np.array([self.stoi.get(t, UNK_ID) for t in tokens], dtype=np.intp)

    def decode(self, ids) -> list[str]:
        return [self.itos[int(i)] for i in ids]

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.itos) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if lines[:2] != ["<pad>", "<unk>"]:
            raise ParseError(f"{path}: vocabulary must start with <pad>, <unk>")
        return cls(lines[2:])


def build_vocab(corpus: Corpus, max_size: int | None = None) -> Vocab:
    """Rank tokens by (frequency desc, first occurrence asc); cap includes specials."""
    if not corpus.samples:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    if max_size is not None and max_size < 3:
        raise ConfigError(f"vocab cap must be >= 3 (pad, unk, one token), got {max_size}")
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    at = 0
    for sample in corpus.samples:
        for tok in sample.tokens:
            counts[tok] = counts.get(tok, 0) + 1
            if tok not in first_seen:
                first_seen[tok] = at
            at += 1
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    if max_size is not None:
        ranked = ranked[:max_size - 2]
    return Vocab(ranked)


# --------------------------------------------------------------------------
# Pretrained embeddings
# --------------------------------------------------------------------------

def load_pretrained_embeddings(path, vocab: Vocab, dim: int,
                               rng: np.random.Generator) -> tuple[EmbeddingTable, float]:
    """Copy rows for vocab tokens found in a text vector file.

    Every row starts uniform(-0.05, 0.05) (so missing tokens, pad, and unk are
    random), then found rows are overwritten. Returns (table, coverage) where
    coverage counts found tokens over the non-special vocabulary.
    """
    weights = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    found = 0
    with open(path, "r", encoding="utf-8", errors="ignore") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: expected {dim} values after the token, "
                    f"got {len(values)}"
                )
            idx = vocab.stoi.get(token)
            if idx is None or idx in (PAD_ID, UNK_ID):
                continue
            try:
                weights[idx] = [float(v) for v in values]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            found += 1
    denom = max(len(vocab) - 2, 1)
    table = EmbeddingTable(Tensor(weights, requires_grad=True))
    return table, found / denom


# --------------------------------------------------------------------------
# Cross-validation folds
# --------------------------------------------------------------------------

@dataclass
class FoldPlan:
    seed: int
    k: int
    assignment: np.ndarray  # fold id per sample

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def make_folds(n_samples: int, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle then round-robin assignment; sizes differ by <= 1."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if k > n_samples:
        raise ConfigError(f"{k} folds need at least {k} samples, got {n_samples}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xF01D])))
    order = rng.permutation(n_samples)
    assignment = np.empty(n_samples, dtype=np.intp)
    assignment[order] = np.arange(n_samples) % k
    return FoldPlan(seed=seed, k=k, assignment=assignment)


# --------------------------------------------------------------------------
# Batching
# --------------------------------------------------------------------------

@dataclass
class EncodedSample:
    ids: np.ndarray  # (n,) intp, no pads
    label: int


def encode_corpus(vocab: Vocab, samples: list[Sample]) -> list[EncodedSample]:
    return [EncodedSample(vocab.encode(s.tokens), s.label) for s in samples]


@dataclass
class Batch:
    ids: np.ndarray     # (B, n) intp, padded with PAD_ID
    mask: np.ndarray    # (B, n) float64, 1 over true tokens
    labels: np.ndarray  # (B,) float64

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def width(self) -> int:
        return self.ids.shape[1]


def batch_and_pad(samples: list[EncodedSample], batch_size: int,
                  rng: np.random.Generator | None = None) -> list[Batch]:
    """Group samples into batches, each padded to its own longest sequence.

    When an rng is given, sample order is shuffled first (the per-epoch
    shuffle); otherwise the given order is kept.
    """
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    if not samples:
        raise ContractError("batch_and_pad needs at least one sample")
    order = rng.permutation(len(samples)) if rng is not None else range(len(samples))
    ordered = [samples[i] for i in order]

    batches = []
    for at in range(0, len(ordered), batch_size):
        group = ordered[at:at + batch_size]
        width = max(len(s.ids) for s in group)
        b = len(group)
        ids = np.full((b, width), PAD_ID, dtype=np.intp)
        mask = np.zeros((b, width))
        labels = np.zeros(b)
        for row, s in enumerate(group):
            n = len(s.ids)
            ids[row, :n] = s.ids
            mask[row, :n] = 1.0
            labels[row] = float(s.label)
        batches.append(Batch(ids=ids, mask=mask, labels=labels))
    return batches
