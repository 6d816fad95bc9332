"""Initialisation, the convolution and dense layers, dropout.

The layers take their tensors as arguments, and the ops they run
(``autodiff.conv1d_same`` and ``autodiff.dense``) check every shape, filter
width and activation on every call, so a malformed tensor fails on its first
use. A bank is a (d, k, d) filter and a (d,) bias and applies relu; a dense
layer applies relu or sigmoid. An embedding table is a bare (V, d) Tensor
whose rows PAD_ID and UNK_ID are pad and unk.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError

PAD_ID = 0
UNK_ID = 1


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Glorot's Uniform(-a, a), a = sqrt(6 / (n_in + n_out)), with n_out =
    shape[0] and n_in the product of the rest of the shape."""
    a = np.sqrt(6.0 / (int(np.prod(shape[1:])) + shape[0]))
    return rng.uniform(-a, a, size=shape)


# --------------------------------------------------------------------------
# Convolution and dense layers
# --------------------------------------------------------------------------

def same_length_conv(banks, x: Tensor, batch_sizes, residual: bool = False) -> Tensor:
    """Convolve packed rows (T, D d), in the layout of batch_sizes (a
    ``Packing``'s), with m (filters, bias) banks per direction, of one shape,
    then bias, relu and, if residual, the input: one ``autodiff.conv1d_same``
    op. Returns (T, D m d)."""
    return ad.conv1d_same(x, banks, batch_sizes, residual)


def dense_forward(x: Tensor, W: Tensor, b: Tensor, activation: str) -> Tensor:
    """(B, d_in) -> (B, d_out) by W (d_out, d_in), b (d_out,) and relu or
    sigmoid: one ``autodiff.dense`` op."""
    return ad.dense(x, W, b, activation)


# --------------------------------------------------------------------------
# Dropout
# --------------------------------------------------------------------------

def dropout_apply(x: Tensor, rate: float, train: bool,
                  rng: np.random.Generator | None = None,
                  rows: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: x times a mask whose entries are 0 or 1/(1-rate),
    one ``autodiff.dropout`` op, which keeps the mask as booleans; identity
    when eval or rate == 0.

    rows, a boolean vector, says that the matrix x holds only the selected
    rows of a matrix with len(rows) rows: the mask is drawn over that whole
    matrix, so the draws do not depend on the selection, and x gets its
    selected rows.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout needs an rng")
    shape = x.shape
    if rows is not None:
        if (x.ndim != 2 or rows.dtype != bool or rows.ndim != 1
                or np.count_nonzero(rows) != x.shape[0]):
            raise DimensionError(f"dropout rows select {np.count_nonzero(rows)} of "
                                 f"{rows.size} rows for an input of shape {x.shape}")
        shape = (rows.size, x.shape[1])
    keep = 1.0 - rate
    kept = rng.random(shape) < keep
    return ad.dropout(x, kept if rows is None else kept[rows], keep)
