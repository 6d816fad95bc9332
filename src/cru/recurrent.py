"""Gated recurrent cells with convolutional gate-input variants.

There is one cell class, ``_CellBase(variant, params)``, whose params are
its tensors by name; the variant is a value. ``cell_shapes`` is each
variant's table of names and shapes, ``draw`` fills a table with fresh
tensors, and ``make_cell`` does both. The four variants share one recurrence
and differ only in how the per-step gate inputs are prepared from the
embedded sequence, with no convolution bank, one, or one per gate
(``_BANKS``):

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
from .layers import glorot_uniform, same_length_conv

# Each variant's convolution banks, by parameter name.
_BANKS = {"gru": (), "shallow": ("conv",), "deep": ("conv_z", "conv_r", "conv_h"),
          "deep_enhanced": ("conv_z", "conv_r", "conv_h")}
VARIANTS = tuple(_BANKS)


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

def cell_shapes(variant: str, d_in: int, d_h: int, k: int = 3) -> dict[str, tuple[int, ...]]:
    """A cell's parameters, {name: shape}, in the order a checkpoint stores
    them: W_* (d_h, d_in), absent for deep, U_* (d_h, d_h), b_* (d_h,), then
    each bank's filters (d_in, k, d_in) and bias (d_in,)."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if d_in < 1 or d_h < 1:
        raise ConfigError(f"dims must be positive, got d_in={d_in}, d_h={d_h}")
    if variant == "deep" and d_h != d_in:
        raise ConfigError(f"deep variant needs hidden size == embedding size, "
                          f"got {d_h} and {d_in}")
    shapes = {} if variant == "deep" else {n: (d_h, d_in) for n in ("W_z", "W_r", "W")}
    shapes.update({n: (d_h, d_h) for n in ("U_z", "U_r", "U")})
    shapes.update({n: (d_h,) for n in ("b_z", "b_r", "b_h")})
    for tag in _BANKS[variant]:
        shapes.update({f"{tag}.filters": (d_in, k, d_in), f"{tag}.bias": (d_in,)})
    return shapes


def draw(shapes, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameters of the given shapes, in their order: zeros for
    vectors, Glorot-uniform for the rest. Bank filters are drawn first, then
    the others in order, so a cell's W_* before its U_*. Draws between
    finite bounds are finite, so no entry is checked again."""
    first = sorted(shapes, key=lambda name: not name.endswith(".filters"))
    drawn = {n: glorot_uniform(rng, shapes[n]) for n in first if len(shapes[n]) > 1}
    return {n: ad._wrap_finite(drawn[n] if n in drawn else np.zeros(s), requires_grad=True)
            for n, s in shapes.items()}


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
    (gru), one (shallow), or one per gate (deep and deep_enhanced). params
    holds the tensors that ``cell_shapes`` names, by those names."""

    def __init__(self, variant: str, params: dict[str, Tensor]):
        names = cell_shapes(variant, 1, 1)  # the names do not depend on the sizes
        if set(params) != set(names):
            raise ConfigError(f"{variant} cell takes the tensors {list(names)}, "
                              f"got {list(params)}")
        self.variant, self.params = variant, params
        self.banks = [(params[f"{tag}.filters"], params[f"{tag}.bias"])
                      for tag in _BANKS[variant]]

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
        ws = [[c.params[n] for n in ("W_z", "W_r", "W")] for c in cells]
        return X, [[w] for g in ws for w in g] if variant == "deep_enhanced" else ws


def make_cell(variant: str, rng: np.random.Generator, d_in: int, d_h: int,
              k: int = 3) -> _CellBase:
    """Build a freshly initialized cell of the given variant."""
    return _CellBase(variant, draw(cell_shapes(variant, d_in, d_h, k), rng))


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
    recurrence = ("U_z", "U_r", "U", "b_z", "b_r", "b_h")
    return ad.gru_scan(X, [[c.params[n] for n in recurrence] for c in cells],
                       packing.batch_sizes, weights)
