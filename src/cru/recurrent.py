"""Gated recurrent cells with convolutional gate-input variants.

There is one cell class, ``_CellBase(variant, params, banks)``, which
``make_cell`` builds freshly initialized; the variant is a value. The four
variants share one recurrence and differ only in how the per-step gate inputs
are prepared from the embedded sequence, with no convolution bank, one, or
one per gate (``_BANKS``):

  gru            P_* = E W_*^T                   (plain linear projection)
  shallow        P_* = C W_*^T, C = conv(E)      (one bank feeds all gates)
  deep           P_* = C_*, C_* = conv_*(E)      (three banks replace W_*)
  deep_enhanced  P_* = (C_* + E) W_*^T           (three banks, W_* restored)

with the update/reset/candidate recurrence

  z_t = sigmoid(P_z,t + U_z h_{t-1} + b_z)
  r_t = sigmoid(P_r,t + U_r h_{t-1} + b_r)
  g_t = tanh(P_h,t + U (r_t * h_{t-1}) + b_h)
  h_t = z_t * h_{t-1} + (1 - z_t) * g_t

Because the banks map d channels to d channels (the convolution is
same-shape over the embedding), the deep variant needs hidden size == d.

A batch runs in a packed, time-major layout (``pack``): its rows sorted by
non-increasing length, step t owns the contiguous block of the k_t rows that
still have a token at t, so the T = sum(lengths) packed rows are exactly the
batch's tokens. One ``Packing`` holds the (T, D) row index of every
direction, also of a single one; a reversed direction reads each row from its
last token back to its first. A single sequence is a batch of one.

The directions travel side by side, as column blocks, through the whole
path. ``prepare`` gathers [X_0 | X_1] with one ``take_rows``; the variant's
banks then convolve every direction in one ``conv1d_same`` op, which reads
zeros past each row's ends, with each bank's bias and relu and
deep_enhanced's residual add fused in. ``run_sequence`` hands that and
[W_z; W_r; W] to one ``gru_scan`` node, which forms the (T, D 3 d_h) gate
inputs with the projection's matmuls (``autodiff._project_forward``), runs
the recurrence and returns the states side by side, (T, D d_h). The gate
inputs and their gradient are formed and freed inside that node, so no tape
holds them. Both ops take the layout as the packing's ``batch_sizes``, from
which each finds the rows it reads. Above a work threshold, each of these
ops runs the second direction's numpy on the ``autodiff`` worker thread
while the calling thread runs the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
from .layers import ConvBank, glorot_uniform, same_length_conv

# Each variant's convolution banks, by parameter name.
_BANKS = {"gru": (), "shallow": ("conv",), "deep": ("conv_z", "conv_r", "conv_h"),
          "deep_enhanced": ("conv_z", "conv_r", "conv_h")}
VARIANTS = tuple(_BANKS)


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass
class GruParams:
    """Recurrence weights: U_* (d_h, d_h), b_* (d_h,) and W_* (d_h, d_in),
    which are absent for the deep variant. The record checks only that the
    W_* come together; ``autodiff.gru_scan`` checks the shapes of the U_* and
    b_* and, through the projection it forms, of the W_*, on every call."""

    U_z: Tensor
    U_r: Tensor
    U: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor
    W_z: Tensor | None = None
    W_r: Tensor | None = None
    W: Tensor | None = None

    def __post_init__(self):
        ws = [self.W_z, self.W_r, self.W]
        if any(w is None for w in ws) and any(w is not None for w in ws):
            raise ConfigError("W_z, W_r, W must be given together or not at all")

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int | None, d_h: int) -> "GruParams":
        def weight(shape):
            return Tensor(glorot_uniform(rng, shape), requires_grad=True)

        # The W_* are drawn before the U_*.
        kw = {} if d_in is None else {n: weight((d_h, d_in)) for n in ("W_z", "W_r", "W")}
        return cls(**{n: weight((d_h, d_h)) for n in ("U_z", "U_r", "U")},
                   **{n: Tensor(np.zeros(d_h), requires_grad=True)
                      for n in ("b_z", "b_r", "b_h")}, **kw)

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        names = ("W_z", "W_r", "W", "U_z", "U_r", "U", "b_z", "b_r", "b_h")
        return {prefix + n: getattr(self, n) for n in names if getattr(self, n) is not None}


# --------------------------------------------------------------------------
# Packing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Packing:
    """The time-major packed layout of a batch's T tokens in D directions.

    Token rows come in batch order: row 0's tokens, then row 1's, and so on.
    Packed row i of step t's block holds step t of the i-th longest row (ties
    in batch order); rows[i, j] is the token row that direction j reads
    there.
    """

    batch_sizes: np.ndarray     # k_t, the rows still running at step t
    rows: np.ndarray            # (T, D) the token row each packed row reads
    last: np.ndarray            # (B,) the packed row of each row's final state

    @property
    def size(self) -> int:
        """T, the number of tokens."""
        return int(self.batch_sizes.sum())

    @property
    def directions(self) -> int:
        return self.rows.shape[1]


def pack(lengths, reverse=(False, True)) -> Packing:
    """The packing of a batch whose row r holds lengths[r] tokens, with one
    direction per entry of reverse: by default a forward and a reversed one,
    which reads each row from its last token back to its first."""
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    if lengths.size < 1 or len(reverse) < 1:
        raise ContractError("a packing needs at least one row and one direction")
    if lengths.min() < 1:
        raise ContractError(f"batch row {int(np.argmax(lengths < 1))} has no tokens")
    b, longest = lengths.size, lengths.max()
    by_length = np.argsort(-lengths, kind="stable")  # the rows, longest first
    rank = np.empty(b, dtype=np.intp)
    rank[by_length] = np.arange(b)  # each row's place in that order
    sizes = b - np.cumsum(np.bincount(lengths))[:longest]  # the rows longer than t
    starts = np.cumsum(sizes) - sizes  # the first packed row of each step
    step = np.repeat(np.arange(longest), sizes)  # the step of each packed row
    row = by_length[np.arange(step.size) - np.repeat(starts, sizes)]  # and its row
    first = (np.cumsum(lengths) - lengths)[row]  # the token row of its first token
    rows = np.stack([first + lengths[row] - 1 - step if r else first + step
                     for r in reverse], axis=1)
    return Packing(sizes, rows, starts[lengths - 1] + rank)


# --------------------------------------------------------------------------
# Cells
# --------------------------------------------------------------------------

class _CellBase:
    """A GRU cell whose variant prepares its gate inputs from its banks: none
    (gru), one (shallow), or one per gate (deep and deep_enhanced)."""

    def __init__(self, variant: str, params: GruParams, banks=()):
        if variant not in _BANKS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        banks = tuple(banks)
        if len(banks) != len(_BANKS[variant]):
            raise ContractError(f"{variant} cell needs {len(_BANKS[variant])} banks, "
                                f"got {len(banks)}")
        deep = variant == "deep"
        if (params.W is None) != deep:
            raise ConfigError("deep cell takes no W_* matrices" if deep
                              else f"{variant} cell needs W_z, W_r, W")
        self.variant, self.params, self.banks = variant, params, banks

    @staticmethod
    def prepare(cells, E: Tensor, packing: Packing) -> tuple[Tensor, list | None]:
        """What the gate inputs of one cell per direction of packing are
        formed from, given the batch's token rows E (T, d): (X, weights),
        whose projection ``autodiff._project_forward(X, weights)`` is the
        (T, D 3 d_h) gate inputs side by side, direction i's [P_z | P_r | P_h]
        in columns 3 i d_h to 3 (i + 1) d_h. ``gru_scan`` forms and frees them
        itself. deep has no projection: its X is the gate inputs, and its
        weights are None.

        One ``take_rows`` gathers every direction's packed rows, then the
        banks' convolution takes every direction in one call, over the
        packing's ``batch_sizes``, which every direction shares. The weights
        are one group [W_z, W_r, W] per direction, or deep_enhanced's three
        groups of one, which project each bank's output plus its input.
        """
        cells = list(cells)
        variants = {c.variant for c in cells}
        if len(cells) != packing.directions or len(variants) != 1:
            raise ContractError(f"{len(cells)} cells of variants {sorted(variants)} for a "
                                f"packing of {packing.directions} directions")
        if E.ndim != 2 or E.shape[0] != packing.size:
            raise DimensionError(f"prepare needs the {packing.size} token rows of the "
                                 f"batch, got {E.shape}")
        X, variant, banks = ad.take_rows(E, packing.rows), cells[0].variant, cells[0].banks
        if banks:
            X = same_length_conv([c.banks for c in cells], X, packing.batch_sizes,
                                 residual=variant == "deep_enhanced")
        if variant == "deep":
            return X, None
        ws = [[c.params.W_z, c.params.W_r, c.params.W] for c in cells]
        return X, [[w] for g in ws for w in g] if variant == "deep_enhanced" else ws

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.params.named(prefix)
        for tag, bank in zip(_BANKS[self.variant], self.banks):
            out[f"{prefix}{tag}.filters"] = bank.filters
            out[f"{prefix}{tag}.bias"] = bank.bias
        return out


def make_cell(variant: str, rng: np.random.Generator, d_in: int, d_h: int,
              k: int = 3) -> _CellBase:
    """Build a freshly initialized cell of the given variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if d_in < 1 or d_h < 1:
        raise ConfigError(f"dims must be positive, got d_in={d_in}, d_h={d_h}")
    if variant == "deep" and d_h != d_in:
        raise ConfigError(f"deep variant needs hidden size == embedding size, "
                          f"got {d_h} and {d_in}")
    # The banks are drawn before the recurrence weights.
    banks = [ConvBank.init(rng, d_in, k) for _ in _BANKS[variant]]
    return _CellBase(variant, GruParams.init(rng, None if variant == "deep" else d_in, d_h),
                     banks)


# --------------------------------------------------------------------------
# Sequence runner
# --------------------------------------------------------------------------

def run_sequence(cells, E: Tensor, packing: Packing) -> Tensor:
    """Run cell i from the zero state over direction i of a batch's token
    rows E (T, d); a single sequence is a batch of one.

    Returns every token's states side by side, (T, D d_h), cell i's in
    columns i d_h to (i + 1) d_h in its direction's packed order, so row r's
    final states are packed row ``packing.last[r]`` in every direction. A
    state depends only on the steps up to it, and a convolution window reads
    zeros past a row's ends, so each row's states equal those of its one-row
    run. ``_CellBase.prepare`` makes what every direction's gate inputs are
    formed from, and one ``autodiff.gru_scan`` node forms them, runs the
    recurrence of all of them and frees them, so no tape holds them.
    """
    cells = list(cells)
    X, weights = _CellBase.prepare(cells, E, packing)
    return ad.gru_scan(X, [(p.U_z, p.U_r, p.U, p.b_z, p.b_r, p.b_h)
                           for p in (cell.params for cell in cells)],
                       packing.batch_sizes, weights)
