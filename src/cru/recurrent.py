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
``prepare`` computes the gate inputs of the whole sequence as one
(B, n, 3 d_h) tensor laid out [P_z | P_r | P_h]: ``gru`` and ``shallow`` with
one ``autodiff.project`` matmul against the stacked [W_z; W_r; W], ``deep``
by concatenating its three banks, and ``deep_enhanced`` with one matmul per
bank written side by side. The recurrence itself is one ``autodiff.gru_scan``
node per direction, whose forward and backward loops do only the carry's
work: the small matmuls that read h_{t-1} and the elementwise gate algebra.
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

    def _gate_inputs(self, E: Tensor) -> Tensor:
        raise NotImplementedError

    def prepare(self, E: Tensor) -> Tensor:
        """The (B, n, 3 d_h) gate inputs [P_z | P_r | P_h] of a (B, n, d) batch."""
        if E.ndim != 3:
            raise DimensionError(f"prepare needs a (B, n, d) batch, got {E.shape}")
        if E.shape[1] < 1:
            raise ContractError("sequence must have at least one step")
        return self._gate_inputs(E)

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        return self.params.named(prefix)


class GruCell(_CellBase):
    variant = "gru"

    def _gate_inputs(self, E):
        p = self.params
        if p.W is None:
            raise ConfigError("gru cell needs W_z, W_r, W")
        return ad.project([E], [p.W_z, p.W_r, p.W])


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

    def _gate_inputs(self, E):
        p = self.params
        return ad.project([same_length_conv(self.bank, E)], [p.W_z, p.W_r, p.W])

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

    def _gate_inputs(self, E):
        return ad.concat_cols([same_length_conv(self.conv_z, E),
                               same_length_conv(self.conv_r, E),
                               same_length_conv(self.conv_h, E)])


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

    def _gate_inputs(self, E):
        p = self.params
        banks = (self.conv_z, self.conv_r, self.conv_h)
        return ad.project([ad.add(same_length_conv(c, E), E) for c in banks],
                          [p.W_z, p.W_r, p.W])


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

def run_sequence(cell: _CellBase, E: Tensor) -> Tensor:
    """Run a cell over an embedded (B, n, d) batch from the zero state.

    Returns every step's state as one (B, n, d_h) tensor; a single sequence
    is a batch of one. Rows of a padded batch run on over their padding, so a
    shorter row's final state is its state at step length - 1. That state
    equals the one-row run of the unpadded sequence as long as the pads sit
    at the tail and the padded embedding rows are zero: a state depends only
    on the steps up to it, and a convolution window near the tail then sees
    the same zeros as the same-length padding of the unpadded run.
    """
    p = cell.params
    return ad.gru_scan(cell.prepare(E), p.U_z, p.U_r, p.U, p.b_z, p.b_r, p.b_h)
