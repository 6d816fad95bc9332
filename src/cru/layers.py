"""Embedding tables, convolution banks, dense layers, dropout.

Parameter containers are plain dataclasses holding Tensors; the forward
functions compose autodiff primitives so everything differentiates through
the shared tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError

PAD_ID = 0
UNK_ID = 1


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int | None = None, fan_out: int | None = None) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in is None or fan_out is None:
        if len(shape) < 2:
            raise ConfigError(f"cannot infer fans from shape {shape}")
        fan_out = shape[0] if fan_out is None else fan_out
        fan_in = int(np.prod(shape[1:])) if fan_in is None else fan_in
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


# --------------------------------------------------------------------------
# Embeddings
# --------------------------------------------------------------------------

@dataclass
class EmbeddingTable:
    """Token-id -> row lookup. Rows 0 and 1 are reserved for pad and unk."""

    weights: Tensor  # (V, d)

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise DimensionError(f"embedding weights need rank 2, got {self.weights.shape}")
        if self.weights.shape[0] < 2:
            raise ConfigError("embedding table needs at least pad and unk rows")

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, vocab_size: int, dim: int) -> "EmbeddingTable":
        w = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        w[PAD_ID] = 0.0
        return cls(Tensor(w, requires_grad=True))


# --------------------------------------------------------------------------
# Convolution bank
# --------------------------------------------------------------------------

@dataclass
class ConvBank:
    """d_out same-length filters of odd width k over d_in input channels."""

    filters: Tensor  # (d_out, k, d_in)
    bias: Tensor     # (d_out,)
    activation: str = "relu"

    def __post_init__(self):
        if self.filters.ndim != 3:
            raise DimensionError(f"filters need rank 3, got {self.filters.shape}")
        d_out, k, _ = self.filters.shape
        if k % 2 == 0:
            raise ConfigError(f"filter window must be odd, got {k}")
        if self.bias.shape != (d_out,):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match {d_out} filters"
            )
        if self.activation not in ad.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @property
    def width(self) -> int:
        return self.filters.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, d_out: int, k: int, d_in: int,
             activation: str = "relu") -> "ConvBank":
        f = glorot_uniform(rng, (d_out, k, d_in), fan_in=k * d_in, fan_out=d_out)
        return cls(Tensor(f, requires_grad=True),
                   Tensor(np.zeros(d_out), requires_grad=True),
                   activation)


def same_length_conv(bank: ConvBank, x: Tensor) -> Tensor:
    """Convolve (B, n, d_in) -> (B, n, d_out), then bias + activation."""
    y = ad.conv1d_same(x, bank.filters)
    y = ad.bias_add(y, bank.bias)
    return ad.activation(bank.activation, y)


# --------------------------------------------------------------------------
# Dense layer
# --------------------------------------------------------------------------

@dataclass
class DenseLayer:
    weights: Tensor  # (d_out, d_in)
    bias: Tensor     # (d_out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise DimensionError(f"dense weights need rank 2, got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[0],):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match weights {self.weights.shape}"
            )
        if self.activation not in ad.ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @classmethod
    def init(cls, rng: np.random.Generator, d_out: int, d_in: int,
             activation: str = "identity") -> "DenseLayer":
        w = glorot_uniform(rng, (d_out, d_in), fan_in=d_in, fan_out=d_out)
        return cls(Tensor(w, requires_grad=True),
                   Tensor(np.zeros(d_out), requires_grad=True),
                   activation)


def dense_forward(layer: DenseLayer, x: Tensor) -> Tensor:
    """(B, d_in) -> (B, d_out)."""
    if x.ndim != 2 or x.shape[1] != layer.weights.shape[1]:
        raise DimensionError(
            f"dense input {x.shape} does not match weights {layer.weights.shape}"
        )
    y = ad.matmul(x, ad.transpose(layer.weights))
    y = ad.bias_add(y, layer.bias)
    return ad.activation(layer.activation, y)


# --------------------------------------------------------------------------
# Dropout
# --------------------------------------------------------------------------

def make_dropout_mask(rng: np.random.Generator, shape: tuple[int, ...],
                      rate: float) -> np.ndarray:
    """Inverted-dropout mask: entries are 0 or 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def dropout_apply(x: Tensor, rate: float, train: bool,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity when eval or rate == 0."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("training-mode dropout needs an rng")
    return ad.mul(x, Tensor(make_dropout_mask(rng, x.shape, rate)))
