"""Workload shapes and the seeded corpus generator.

The generator writes plain files in the layouts ``cru.data.load_corpus``
reads: MR-style ``pos.txt``/``neg.txt`` (one sentence per line) and
IMDB-style ``pos/``/``neg/`` trees (one document per file). The program under
test only ever sees those files.

Tokens are drawn from a Zipf-Mandelbrot distribution over a fixed word list,
so the vocabulary size that ``build_vocab`` finds follows from the corpus
size the way it does for natural text. A few class-cue words per label make
the task learnable; they do not change the cost of a step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Word list and Zipf-Mandelbrot parameters, tuned so that the MR-shape corpus
# (about 10.7k sentences of mean length 20) yields V of about 18k.
WORD_POOL = 60_000
ZIPF_S = 1.21
ZIPF_Q = 2.7
CUE_WORDS = 40        # per class, taken from ranks 200.. of the pool
CUE_RATE = 0.08       # share of a sample's tokens replaced by its class cues


@dataclass(frozen=True)
class Spec:
    """One workload: corpus shape, model shape and what a timed unit is."""

    name: str
    kind: str             # "train": one train_epoch([batch]); "infer": one request
    fmt: str              # load_corpus format: "mr" (line files) or "imdb" (trees)
    variant: str
    dim: int              # embed_dim == hidden_dim
    fc_dim: int
    batch_size: int
    n_samples: int        # sentences or documents, split evenly over labels
    len_shape: float      # gamma shape of the length distribution
    len_mean: float       # gamma mean before clipping
    len_min: int
    len_max: int
    vocab_cap: int | None = None
    request_pool: int = 0  # distinct sentences that inference requests cycle over
    probe_size: int = 6    # rows of the masked-batch identity probe


WORKLOADS = {
    "mr-train-gru": Spec(
        name="mr-train-gru", kind="train", fmt="mr", variant="gru",
        dim=200, fc_dim=1024, batch_size=32, n_samples=10_700,
        len_shape=4.5, len_mean=20.0, len_min=3, len_max=60),
    "mr-train-deep_enhanced": Spec(
        name="mr-train-deep_enhanced", kind="train", fmt="mr",
        variant="deep_enhanced", dim=200, fc_dim=1024, batch_size=32,
        n_samples=10_700, len_shape=4.5, len_mean=20.0, len_min=3, len_max=60),
    "doc-train-gru": Spec(
        name="doc-train-gru", kind="train", fmt="imdb", variant="gru",
        dim=256, fc_dim=1024, batch_size=32, n_samples=1_000,
        len_shape=4.0, len_mean=230.0, len_min=20, len_max=256,
        vocab_cap=50_000, probe_size=4),
    "mr-infer-deep_enhanced": Spec(
        name="mr-infer-deep_enhanced", kind="infer", fmt="mr",
        variant="deep_enhanced", dim=200, fc_dim=1024, batch_size=1,
        n_samples=10_700, len_shape=4.5, len_mean=20.0, len_min=3, len_max=60,
        request_pool=128),
}


def tiny(spec: Spec) -> Spec:
    """The same workload at a shape that runs in well under a second.

    Used by the smoke test and, with a fixed seed, by the loss-reference check.
    """
    docs = spec.fmt == "imdb"
    return replace(spec, dim=16, fc_dim=32, batch_size=8,
                   n_samples=40 if docs else 200,
                   len_mean=30.0 if docs else spec.len_mean,
                   len_min=5 if docs else spec.len_min,
                   len_max=60 if docs else 30,
                   request_pool=min(spec.request_pool, 16))


def _word(rank: int) -> str:
    """A distinct lowercase word per rank; frequent ranks get short words."""
    letters = []
    k = rank + 26 * 27  # every word has at least three letters
    while k:
        k, r = divmod(k, 26)
        letters.append(chr(ord("a") + r))
    return "".join(reversed(letters))


def _zipf_probs(size: int) -> np.ndarray:
    w = 1.0 / (np.arange(size) + ZIPF_Q) ** ZIPF_S
    return w / w.sum()


def generate(spec: Spec, seed: int, out_dir: Path) -> Path:
    """Write the workload's corpus under out_dir; return the load_corpus path."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xBE7C])))
    words = np.array([_word(r) for r in range(WORD_POOL)], dtype=object)
    cues = [words[200 + c * CUE_WORDS:200 + (c + 1) * CUE_WORDS] for c in (0, 1)]

    scale = spec.len_mean / spec.len_shape
    lengths = rng.gamma(spec.len_shape, scale, size=spec.n_samples)
    lengths = np.clip(np.rint(lengths), spec.len_min, spec.len_max).astype(int)
    labels = np.arange(spec.n_samples) % 2
    rng.shuffle(labels)

    ranks = rng.choice(WORD_POOL, size=int(lengths.sum()), p=_zipf_probs(WORD_POOL))
    tokens = words[ranks]
    cue_at = rng.random(tokens.size) < CUE_RATE
    label_of_token = np.repeat(labels, lengths)
    for c in (0, 1):
        sel = cue_at & (label_of_token == c)
        tokens[sel] = rng.choice(cues[c], size=int(sel.sum()))

    bounds = np.concatenate([[0], np.cumsum(lengths)])
    texts = [" ".join(tokens[bounds[i]:bounds[i + 1]]) for i in range(spec.n_samples)]

    root = Path(out_dir) / spec.fmt
    if spec.fmt == "imdb":
        for sub, c in (("pos", 1), ("neg", 0)):
            (root / sub).mkdir(parents=True)
            for i, text in enumerate(texts):
                if labels[i] == c:
                    (root / sub / f"{i:05d}.txt").write_text(text + "\n", encoding="utf-8")
    else:
        root.mkdir(parents=True)
        for fname, c in (("pos.txt", 1), ("neg.txt", 0)):
            lines = [t for t, lab in zip(texts, labels) if lab == c]
            (root / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root
