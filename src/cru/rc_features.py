"""Frequency/co-occurrence features that widen document embeddings by two
columns, plus the enriched bidirectional document encoder.

All counting is exact string match on already-tokenized text; the feature
columns are constants — gradients flow only into the base embedding.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError
from .recurrent import pack, run_sequence


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


def enrich_embeddings(base: Tensor, document: list[str], query: list[str]) -> Tensor:
    """Append freq and coq columns to the base rows: (n, d) -> (n, d+2)."""
    if base.ndim != 2:
        raise DimensionError(f"base embeddings need rank 2, got {base.shape}")
    if base.shape[0] != len(document):
        raise DimensionError(
            f"{base.shape[0]} embedding rows do not align with "
            f"{len(document)} document tokens"
        )
    return ad.concat_cols([base,
                           Tensor(doc_word_freq(document)[:, None]),
                           Tensor(count_of_query_word(document, query)[:, None])])


def encode_bidirectional_enriched(fwd_cell, bwd_cell, X: Tensor) -> Tensor:
    """Per-position two-direction states over the widened rows X (n, d+2),
    (n, 2*d_h).

    Row t pairs the forward state after token t with the backward state
    after reading the document from its end back to token t.
    """
    n = X.shape[0]
    # Packed row i holds the forward state at token i and the backward state
    # at token n-1-i; read as (2n, d_h) rows, the pair for token t is rows 2t
    # and 2(n-1-t)+1.
    states = run_sequence([fwd_cell, bwd_cell], X, pack([n]))
    states = ad.reshape(states, (2 * n, states.shape[1] // 2))
    t = np.arange(n)
    return ad.take_rows(states, np.stack([2 * t, 2 * (n - 1 - t) + 1], axis=1))
