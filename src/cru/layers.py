"""Convolution banks, dense layers, dropout.

The parameter records are plain dataclasses holding Tensors, and they check
nothing: the ops that use their tensors (``autodiff.conv1d_same`` and
``autodiff.dense``) check every shape, filter width and activation on every
call, so a malformed record fails on its first use. A bank maps d channels to
d and applies relu; a dense layer applies relu or sigmoid. An embedding table
is a bare (V, d) Tensor whose rows PAD_ID and UNK_ID are pad and unk.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Convolution bank
# --------------------------------------------------------------------------

@dataclass
class ConvBank:
    """d same-length relu filters of odd width k over d input channels."""

    filters: Tensor  # (d, k, d)
    bias: Tensor     # (d,)

    @classmethod
    def init(cls, rng: np.random.Generator, d: int, k: int) -> "ConvBank":
        return cls(Tensor(glorot_uniform(rng, (d, k, d)), requires_grad=True),
                   Tensor(np.zeros(d), requires_grad=True))


def same_length_conv(banks, x: Tensor, batch_sizes, residual: bool = False) -> Tensor:
    """Convolve packed rows (T, D d), in the layout of batch_sizes (a
    ``Packing``'s), with m banks per direction, of one shape, then bias, relu
    and, if residual, the input: one ``autodiff.conv1d_same`` op. Returns
    (T, D m d)."""
    return ad.conv1d_same(x, [[(bank.filters, bank.bias) for bank in g] for g in banks],
                          batch_sizes, residual)


# --------------------------------------------------------------------------
# Dense layer
# --------------------------------------------------------------------------

@dataclass
class DenseLayer:
    weights: Tensor  # (d_out, d_in)
    bias: Tensor     # (d_out,)
    activation: str  # "relu" or "sigmoid"

    @classmethod
    def init(cls, rng: np.random.Generator, d_out: int, d_in: int,
             activation: str) -> "DenseLayer":
        w = glorot_uniform(rng, (d_out, d_in))
        return cls(Tensor(w, requires_grad=True),
                   Tensor(np.zeros(d_out), requires_grad=True),
                   activation)


def dense_forward(layer: DenseLayer, x: Tensor) -> Tensor:
    """(B, d_in) -> (B, d_out): one ``autodiff.dense`` op."""
    return ad.dense(x, layer.weights, layer.bias, layer.activation)


# --------------------------------------------------------------------------
# Dropout
# --------------------------------------------------------------------------

def dropout_apply(x: Tensor, rate: float, train: bool,
                  rng: np.random.Generator | None = None,
                  rows: np.ndarray | None = None) -> Tensor:
    """Inverted dropout: x times a mask whose entries are 0 or 1/(1-rate);
    identity when eval or rate == 0.

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
    mask = (rng.random(shape) < keep) / keep
    return ad.mul(x, Tensor(mask if rows is None else mask[rows]))
