"""Corpus loading, tokenization, vocabulary, folds, and padded batching."""

from __future__ import annotations

import logging
import string
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, ParseError
from .layers import PAD_ID, UNK_ID
from .autodiff import Tensor

log = logging.getLogger("cru.data")

_PUNCT = set(string.punctuation)

FORMATS = ("mr", "subj", "imdb")


def tokenize(raw: str) -> list[str]:
    """Lowercase, split on whitespace, peel edge punctuation into own tokens.

    Interior punctuation stays attached ("don't" is one token); an empty
    result signals the caller to skip the line. A chunk with no ASCII
    punctuation at either edge is one token as it stands; only the others
    are peeled, each peeled character its own token, in order.
    """
    tokens: list[str] = []
    for chunk in raw.lower().split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            tokens.append(chunk)
            continue
        core = chunk.lstrip(string.punctuation)
        word = core.rstrip(string.punctuation)
        tokens += chunk[:len(chunk) - len(core)]
        if word:
            tokens.append(word)
        tokens += core[len(word):]
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

    def __len__(self) -> int:
        return len(self.samples)


def read_lines(path) -> list[str]:
    """The lines of a free-text file, such as a corpus file: bytes that are
    not UTF-8 are dropped, with one warning. A line ends at a line feed only,
    as ``load_pretrained_embeddings`` reads lines, so a form feed or U+2028
    inside a corpus line does not split it; it loses one trailing carriage
    return."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        text = raw.decode("utf-8", errors="ignore")
        log.warning("dropped undecodable bytes in %s", path)
    lines = text.removesuffix("\n").split("\n") if text else []
    return [line.removesuffix("\r") for line in lines]


def read_utf8(path) -> str:
    """The text of a configuration, vocabulary or checkpoint file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None


def parse_kv_file(path) -> dict[str, str]:
    """``key=value`` lines; blank lines and ``#`` comments are skipped."""
    kv: dict[str, str] = {}
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        k, v = stripped.split("=", 1)
        kv[k.strip()] = v.strip()
    return kv


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


def load_line_corpus(root) -> Corpus:
    """Two-file layout: one file of positive lines, one of negative lines."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"{root}: not a directory")
    pos_path, neg_path = _find_pair(root)
    samples = _samples_from_lines(read_lines(pos_path), 1, str(pos_path))
    samples += _samples_from_lines(read_lines(neg_path), 0, str(neg_path))
    if not samples:
        raise ContractError(f"{root}: no usable samples")
    return Corpus(samples)


def load_document_corpus(root) -> Corpus:
    """Directory-per-class layout: pos/ and neg/ hold one document per file."""
    root = Path(root)
    samples: list[Sample] = []
    for sub, label in (("pos", 1), ("neg", 0)):
        d = root / sub
        if not d.is_dir():
            raise FileNotFoundError(f"{root}: missing class directory {sub}/")
        for path in sorted(d.glob("*.txt")):
            text = " ".join(read_lines(path))
            tokens = tokenize(text)
            if not tokens:
                log.warning("skipping empty document %s", path)
                continue
            samples.append(Sample(tokens, label))
    if not samples:
        raise ContractError(f"{root}: no usable samples")
    return Corpus(samples)


def load_corpus(path, fmt: str) -> Corpus:
    if fmt not in FORMATS:
        raise ConfigError(f"unknown dataset format {fmt!r}; expected one of {FORMATS}")
    if fmt == "imdb":
        return load_document_corpus(path)
    return load_line_corpus(path)


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

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.itos) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = read_utf8(path).splitlines()
        if lines[:2] != ["<pad>", "<unk>"]:
            raise ParseError(f"{path}: vocabulary must start with <pad>, <unk>")
        return cls(lines[2:])


def build_vocab(corpus: Corpus, max_size: int | None = None) -> Vocab:
    """Rank tokens by (frequency desc, first occurrence asc); cap includes specials."""
    if not corpus.samples:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    if max_size is not None and max_size < 3:
        raise ConfigError(f"vocab cap must be >= 3 (pad, unk, one token), got {max_size}")
    # A Counter keeps its keys in first-occurrence order, and the sort is
    # stable, so ties keep that order.
    counts = Counter(chain.from_iterable(sample.tokens for sample in corpus.samples))
    ranked = sorted(counts, key=counts.__getitem__, reverse=True)
    if max_size is not None:
        ranked = ranked[:max_size - 2]
    return Vocab(ranked)


# --------------------------------------------------------------------------
# Pretrained embeddings
# --------------------------------------------------------------------------

def load_pretrained_embeddings(path, vocab: Vocab, dim: int,
                               rng: np.random.Generator) -> tuple[Tensor, float]:
    """Copy rows for vocab tokens found in a text vector file.

    Every row starts uniform(-0.05, 0.05) (so missing tokens, pad, and unk are
    random), then found rows are overwritten; a token on several lines keeps
    its last vector. Returns (table, coverage) where coverage counts distinct
    found tokens over the non-special vocabulary. Each line is decoded
    strictly: a byte that is not UTF-8 is a ParseError naming its line.
    """
    weights = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    found: set[int] = set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None
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
                row = [float(v) for v in values]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not np.all(np.isfinite(row)):
                raise ParseError(f"{path}:{lineno}: vector of {token!r} holds non-finite values")
            weights[idx] = row
            found.add(idx)
    denom = max(len(vocab) - 2, 1)
    return Tensor(weights, requires_grad=True), len(found) / denom


# --------------------------------------------------------------------------
# Cross-validation folds
# --------------------------------------------------------------------------

@dataclass
class FoldPlan:
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
    return FoldPlan(assignment)


# --------------------------------------------------------------------------
# Batching
# --------------------------------------------------------------------------

@dataclass
class EncodedSample:
    ids: np.ndarray  # (n,) intp, no pads
    label: int


def encode_corpus(vocab: Vocab, samples: list[Sample]) -> list[EncodedSample]:
    """Each sample's ids, out-of-vocabulary tokens as UNK_ID, from one pass
    over every token: each sample's ids are its slice of one shared buffer."""
    ends = list(accumulate((len(s.tokens) for s in samples), initial=0))
    flat = np.fromiter(map(vocab.stoi.get, chain.from_iterable(s.tokens for s in samples),
                           repeat(UNK_ID)), np.intp, count=ends[-1])
    return [EncodedSample(flat[start:end], s.label)
            for s, start, end in zip(samples, ends, ends[1:])]


@dataclass
class Batch:
    ids: np.ndarray     # (B, n) intp, padded with PAD_ID
    mask: np.ndarray    # (B, n) float64, 1 over true tokens
    labels: np.ndarray  # (B,) float64

    @property
    def size(self) -> int:
        return self.ids.shape[0]


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
    ordered = [samples[i] for i in rng.permutation(len(samples))] if rng is not None else samples

    batches = []
    for at in range(0, len(ordered), batch_size):
        group = ordered[at:at + batch_size]
        lengths = np.fromiter(map(len, (s.ids for s in group)), np.intp, count=len(group))
        held = np.arange(lengths.max()) < lengths[:, None]
        ids = np.full(held.shape, PAD_ID, dtype=np.intp)
        ids[held] = np.concatenate([s.ids for s in group])
        labels = np.array([s.label for s in group], dtype=np.float64)
        batches.append(Batch(ids=ids, mask=held.astype(np.float64), labels=labels))
    return batches
