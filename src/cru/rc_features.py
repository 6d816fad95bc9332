"""Frequency/co-occurrence features that widen document embeddings by two
columns, plus the enriched bidirectional document encoder.

All counting is exact string match on already-tokenized text; the feature
columns are constants — gradients flow only into the base embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
from .recurrent import run_sequence


@dataclass
class ClozeSample:
    """A document/query pair whose answer is one word of the document."""

    document: list[str]
    query: list[str]
    answer: str

    def __post_init__(self):
        if not self.document or not self.query:
            raise ContractError("document and query must be non-empty")
        if self.answer not in self.document:
            raise ContractError(f"answer {self.answer!r} does not occur in the document")


def doc_word_freq(document: list[str]) -> np.ndarray:
    """Per-position count(token)/len(document); equal tokens get equal values."""
    if not document:
        raise ContractError("document must be non-empty")
    counts = Counter(document)
    n = len(document)
    return np.array([counts[tok] / n for tok in document])


def count_of_query_word(document: list[str], query: list[str]) -> np.ndarray:
    """Per-position occurrence count of the document token within the query."""
    if not document or not query:
        raise ContractError("document and query must be non-empty")
    counts = Counter(query)
    return np.array([float(counts[tok]) for tok in document])


@dataclass
class EnrichedEmbedding:
    base: Tensor          # (n, d)
    freq: np.ndarray      # (n,)
    coq: np.ndarray       # (n,)
    combined: Tensor      # (n, d + 2)


def enrich_embeddings(base: Tensor, document: list[str],
                      query: list[str]) -> EnrichedEmbedding:
    """Append freq and coq columns to the base rows: (n, d) -> (n, d+2)."""
    if base.ndim != 2:
        raise DimensionError(f"base embeddings need rank 2, got {base.shape}")
    if base.shape[0] != len(document):
        raise DimensionError(
            f"{base.shape[0]} embedding rows do not align with "
            f"{len(document)} document tokens"
        )
    freq = doc_word_freq(document)
    coq = count_of_query_word(document, query)
    combined = ad.concat_cols([base,
                               Tensor(freq[:, None]),
                               Tensor(coq[:, None])])
    return EnrichedEmbedding(base=base, freq=freq, coq=coq, combined=combined)


def encode_bidirectional_enriched(fwd_cell, bwd_cell,
                                  enriched: EnrichedEmbedding) -> Tensor:
    """Per-position two-direction states over the widened rows, (n, 2*d_h).

    Row t pairs the forward state after token t with the backward state
    after reading the document from its end back to token t.
    """
    if fwd_cell.hidden_dim != bwd_cell.hidden_dim:
        raise ConfigError("directions must share hidden size")
    X = enriched.combined
    one_row = (1,) + X.shape
    rev = np.arange(X.shape[0])[::-1]
    fwd_states = run_sequence(fwd_cell, ad.reshape(X, one_row))
    bwd_states = run_sequence(bwd_cell, ad.reshape(ad.take_rows(X, rev), one_row))
    return ad.concat_cols([ad.concat_rows(fwd_states),
                           ad.take_rows(ad.concat_rows(bwd_states), rev)])
