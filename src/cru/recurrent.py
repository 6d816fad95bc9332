"""Gated recurrent cells with convolutional gate-input variants.

All four cells share one recurrence; they differ only in how the per-step
gate inputs are prepared from the embedded sequence:

  gru            P_* = E W_*^T                   (plain linear projection)
  shallow        P_* = C W_*^T, C = conv(E)      (one bank feeds all gates)
  deep           P_* = C_*, C_* = conv_*(E)      (three banks replace W_*)
  deep_enhanced  P_* = (C_* + E) W_*^T           (three banks, W_* restored)

with the update/reset/candidate recurrence

  z_t = sigmoid(P_z,t + U_z h_{t-1} + b_z)
  r_t = sigmoid(P_r,t + U_r h_{t-1} + b_r)
  g_t = tanh(P_h,t + U (r_t * h_{t-1}) + b_h)
  h_t = z_t * h_{t-1} + (1 - z_t) * g_t

Because the banks always map d channels to d channels (the convolution is
same-shape over the embedding), the deep variant needs hidden size == d.

A batch runs in a packed, time-major layout (``pack``): its rows sorted by
non-increasing length, step t owns the contiguous block of the k_t rows that
still have a token at t, so the T = sum(lengths) packed rows are exactly the
batch's tokens, and no padded position is ever stored or computed. Each
direction has its own packing; the reversed one reads every row from its last
token back to its first. A single sequence is a batch of one, whose forward
packing is the identity. ``prepare`` gathers a direction's packed rows and
computes its gate inputs as one (T, 3 d_h) tensor laid out [P_z | P_r | P_h]:
``gru`` projects them with one ``autodiff.project`` matmul against the stacked
[W_z; W_r; W]. The banks of the other variants convolve the packed rows
through a window index (``Packing.window``) that reads zeros past each row's
ends, as the row's same-length padding would: ``shallow`` projects its bank
like ``gru``, ``deep`` puts its three banks side by side, and
``deep_enhanced`` adds the embedding to each bank and projects each with its
own weight. ``run_sequence`` prepares each direction's gate inputs on the
calling thread and runs the recurrence of every direction as one
``autodiff.gru_scan`` node, whose loops touch only the k_t rows of each step
and do only the carry's work: the small matmuls that read h_{t-1} and the
elementwise gate algebra. The directions share nothing but their step sizes,
so at a large enough step the scan runs the second direction's loops on its
worker thread while the first runs on the calling thread, and writes their
states side by side, (T, 2 d_h).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError, DimensionError
from .layers import ConvBank, same_length_conv

VARIANTS = ("gru", "shallow", "deep", "deep_enhanced")


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------

@dataclass
class GruParams:
    """Recurrence weights. W_* are absent for the deep variant."""

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
        d_h = self.U.shape[0] if self.U.ndim == 2 else -1
        for name in ("U_z", "U_r", "U"):
            u = getattr(self, name)
            if u.shape != (d_h, d_h):
                raise DimensionError(f"{name} must be square ({d_h},{d_h}), got {u.shape}")
        for name in ("b_z", "b_r", "b_h"):
            b = getattr(self, name)
            if b.shape != (d_h,):
                raise DimensionError(f"{name} must have shape ({d_h},), got {b.shape}")
        ws = [self.W_z, self.W_r, self.W]
        if any(w is not None for w in ws):
            if any(w is None for w in ws):
                raise ConfigError("W_z, W_r, W must be given together or not at all")
            d_in = self.W.shape[1]
            for name in ("W_z", "W_r", "W"):
                w = getattr(self, name)
                if w.shape != (d_h, d_in):
                    raise DimensionError(
                        f"{name} must have shape ({d_h},{d_in}), got {w.shape}"
                    )

    @property
    def hidden_dim(self) -> int:
        return self.U.shape[0]

    @property
    def input_dim(self) -> int | None:
        return None if self.W is None else self.W.shape[1]

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int | None, d_h: int) -> "GruParams":
        from .layers import glorot_uniform

        def weight(shape):
            return Tensor(glorot_uniform(rng, shape), requires_grad=True)

        def bias():
            return Tensor(np.zeros(d_h), requires_grad=True)

        kw = {}
        if d_in is not None:
            kw = {"W_z": weight((d_h, d_in)), "W_r": weight((d_h, d_in)),
                  "W": weight((d_h, d_in))}
        return cls(U_z=weight((d_h, d_h)), U_r=weight((d_h, d_h)), U=weight((d_h, d_h)),
                   b_z=bias(), b_r=bias(), b_h=bias(), **kw)

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for name in ("W_z", "W_r", "W", "U_z", "U_r", "U", "b_z", "b_r", "b_h"):
            t = getattr(self, name)
            if t is not None:
                out[prefix + name] = t
        return out


# --------------------------------------------------------------------------
# Packing
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Packing:
    """One direction's time-major packed layout of a batch's tokens.

    The batch's T tokens come as token rows in batch order: row 0's tokens,
    then row 1's, and so on. Packed row i of step t's block holds step t of the
    i-th longest row (ties in batch order), read in this direction. An index
    that would be the identity is None.
    """

    batch_sizes: np.ndarray     # k_t, the rows still running at step t
    rows: np.ndarray | None     # (T,) the token row each packed row reads
    last: np.ndarray            # (B,) the packed row of each row's final state
    windows: dict               # convolution window index by width, which
                                # both directions share, as they share batch_sizes

    @property
    def size(self) -> int:
        """T, the number of tokens."""
        return int(self.batch_sizes.sum())

    def gather(self, E: Tensor) -> Tensor:
        """Packed rows (T, d) of token rows E (T, d)."""
        return E if self.rows is None else ad.take_rows(E, self.rows)

    def window(self, k: int) -> np.ndarray:
        """The (T, k) window index of a width-k same-length convolution over
        the packed rows (``autodiff.conv1d_same``).

        Slot j of packed row i at step t holds the packed row of the same
        row's step t + j - (k-1)/2 where the row has that step, and T
        otherwise: the zero of the unpadded row's same-length padding. Built
        once per width for both directions.
        """
        win = self.windows.get(k)
        if win is None:
            sizes, pad = self.batch_sizes, (k - 1) // 2
            # Step s is entry s + pad; the pad steps on either side hold no rows.
            held = np.zeros(sizes.size + 2 * pad, dtype=np.intp)
            held[pad:pad + sizes.size] = sizes
            starts = np.cumsum(held) - held
            step = np.repeat(np.arange(pad, pad + sizes.size), sizes)
            place = (np.arange(step.size) - starts[step])[:, None]  # i, within its block
            steps = step[:, None] + np.arange(-pad, pad + 1)  # each slot's step
            win = np.where(held[steps] > place, starts[steps] + place, step.size)
            self.windows[k] = win
        return win


def pack(lengths) -> tuple[Packing, Packing]:
    """The forward and the reversed packing of a batch whose row r holds
    lengths[r] tokens.

    The reversed direction reads each row from its last token back to its
    first.
    """
    lengths = np.asarray(lengths, dtype=np.intp).reshape(-1)
    if lengths.size < 1:
        raise ContractError("a batch needs at least one row")
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
    last = starts[lengths - 1] + rank
    first = (np.cumsum(lengths) - lengths)[row]  # the token row of its first token
    # Packed order is batch order for one row or one step, and a reversal
    # moves nothing when no row has two tokens.
    fwd = None if b == 1 or longest == 1 else first + step
    bwd = fwd if longest == 1 else first + lengths[row] - 1 - step
    windows: dict = {}
    return (Packing(sizes, fwd, last, windows), Packing(sizes, bwd, last, windows))


# --------------------------------------------------------------------------
# Cells
# --------------------------------------------------------------------------

class _CellBase:
    """Common recurrence; subclasses provide gate-input preparation."""

    variant: str

    def __init__(self, params: GruParams):
        self.params = params

    @property
    def hidden_dim(self) -> int:
        return self.params.hidden_dim

    def _gate_inputs(self, X: Tensor, packing: Packing) -> Tensor:
        """Gate inputs of the packed rows X (T, d)."""
        raise NotImplementedError

    def prepare(self, E: Tensor, packing: Packing) -> Tensor:
        """The (T, 3 d_h) packed gate inputs [P_z | P_r | P_h] of one direction.

        E holds the batch's token rows (T, d), as ``Packing`` numbers them;
        each variant reads only their packed rows.
        """
        if E.ndim != 2 or E.shape[0] != packing.size:
            raise DimensionError(f"prepare needs the {packing.size} token rows of the "
                                 f"batch, got {E.shape}")
        return self._gate_inputs(packing.gather(E), packing)

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        return self.params.named(prefix)


class GruCell(_CellBase):
    variant = "gru"

    def _gate_inputs(self, X, packing):
        p = self.params
        if p.W is None:
            raise ConfigError("gru cell needs W_z, W_r, W")
        return ad.project([X], [p.W_z, p.W_r, p.W])


class ShallowCell(_CellBase):
    """One bank contextualizes the sequence; the recurrence is unchanged."""

    variant = "shallow"

    def __init__(self, bank: ConvBank, params: GruParams):
        super().__init__(params)
        if params.W is None:
            raise ConfigError("shallow cell needs W_z, W_r, W")
        if bank.filters.shape[0] != params.input_dim:
            raise DimensionError(
                f"bank output width {bank.filters.shape[0]} does not match "
                f"W_* input width {params.input_dim}"
            )
        self.bank = bank

    def _gate_inputs(self, X, packing):
        p = self.params
        C = same_length_conv(self.bank, X, packing.window(self.bank.width))
        return ad.project([C], [p.W_z, p.W_r, p.W])

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.params.named(prefix)
        out[prefix + "conv.filters"] = self.bank.filters
        out[prefix + "conv.bias"] = self.bank.bias
        return out


class _ThreeBankCell(_CellBase):
    def __init__(self, conv_z: ConvBank, conv_r: ConvBank, conv_h: ConvBank,
                 params: GruParams):
        super().__init__(params)
        self.conv_z, self.conv_r, self.conv_h = conv_z, conv_r, conv_h

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        out = self.params.named(prefix)
        for tag, bank in (("conv_z", self.conv_z), ("conv_r", self.conv_r),
                          ("conv_h", self.conv_h)):
            out[f"{prefix}{tag}.filters"] = bank.filters
            out[f"{prefix}{tag}.bias"] = bank.bias
        return out


class DeepCell(_ThreeBankCell):
    """Per-gate banks feed the recurrence directly; needs hidden == d."""

    variant = "deep"

    def __init__(self, conv_z, conv_r, conv_h, params):
        super().__init__(conv_z, conv_r, conv_h, params)
        if params.W is not None:
            raise ConfigError("deep cell takes no W_* matrices")
        for tag, bank in (("conv_z", conv_z), ("conv_r", conv_r), ("conv_h", conv_h)):
            if bank.filters.shape[0] != params.hidden_dim:
                raise ConfigError(
                    f"deep variant needs hidden size == bank width; "
                    f"{tag} gives {bank.filters.shape[0]}, hidden is {params.hidden_dim}"
                )

    def _gate_inputs(self, X, packing):
        return ad.concat_cols([same_length_conv(c, X, packing.window(c.width))
                               for c in (self.conv_z, self.conv_r, self.conv_h)])


class DeepEnhancedCell(_ThreeBankCell):
    """Per-gate banks, with W_* projecting bank output + raw embedding."""

    variant = "deep_enhanced"

    def __init__(self, conv_z, conv_r, conv_h, params):
        super().__init__(conv_z, conv_r, conv_h, params)
        if params.W is None:
            raise ConfigError("deep_enhanced cell needs W_z, W_r, W")
        for tag, bank in (("conv_z", conv_z), ("conv_r", conv_r), ("conv_h", conv_h)):
            if bank.filters.shape[0] != params.input_dim:
                raise DimensionError(
                    f"{tag} output width {bank.filters.shape[0]} does not match "
                    f"W_* input width {params.input_dim}"
                )

    def _gate_inputs(self, X, packing):
        p = self.params
        banks = (self.conv_z, self.conv_r, self.conv_h)
        return ad.project([ad.add(same_length_conv(c, X, packing.window(c.width)), X)
                           for c in banks], [p.W_z, p.W_r, p.W])


def make_cell(variant: str, rng: np.random.Generator, d_in: int, d_h: int,
              k: int = 3):
    """Build a freshly initialized cell of the given variant."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if d_in < 1 or d_h < 1:
        raise ConfigError(f"dims must be positive, got d_in={d_in}, d_h={d_h}")
    if variant == "gru":
        return GruCell(GruParams.init(rng, d_in, d_h))
    if variant == "shallow":
        bank = ConvBank.init(rng, d_in, k, d_in)
        return ShallowCell(bank, GruParams.init(rng, d_in, d_h))
    banks = [ConvBank.init(rng, d_in, k, d_in) for _ in range(3)]
    if variant == "deep":
        if d_h != d_in:
            raise ConfigError(
                f"deep variant needs hidden size == embedding size, "
                f"got {d_h} and {d_in}"
            )
        return DeepCell(*banks, GruParams.init(rng, None, d_h))
    return DeepEnhancedCell(*banks, GruParams.init(rng, d_in, d_h))


# --------------------------------------------------------------------------
# Sequence runner
# --------------------------------------------------------------------------

def run_sequence(cells, E: Tensor, packings) -> Tensor:
    """Run each cell from the zero state over its direction of a batch.

    cells[i] runs over packings[i], and every packing must have the same step
    sizes: those of one batch, as the forward and reversed packings of
    ``pack`` do. E holds the batch's token rows (T, d): row 0's tokens, then
    row 1's, and so on; a single sequence is a batch of one. Returns the
    state after every token as one (T, D d_h) tensor, cell i's states in
    columns i d_h to (i + 1) d_h, each in its own packing's order, so row r's
    final states are packed row ``packing.last[r]``, which both directions
    of a batch share. A state depends only on the steps up to it, and a
    convolution window reads zeros past a row's ends (``Packing.window``),
    so each row's states equal those of its one-row run.

    Each cell prepares its gate inputs on this thread; the recurrence of all
    of them is one ``autodiff.gru_scan`` node, which may run the second
    direction's loops on its worker thread.
    """
    cells, packings = list(cells), list(packings)
    if not cells or len(cells) != len(packings):
        raise ContractError(f"run_sequence: {len(cells)} cells for {len(packings)} packings")
    sizes = packings[0].batch_sizes
    if any(not np.array_equal(p.batch_sizes, sizes) for p in packings[1:]):
        raise ContractError("run_sequence: the packings are of different batches")
    return ad.gru_scan([(cell.prepare(E, packing), cell.params.U_z, cell.params.U_r,
                         cell.params.U, cell.params.b_z, cell.params.b_r, cell.params.b_h)
                        for cell, packing in zip(cells, packings)], sizes)
