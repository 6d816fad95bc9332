"""Composed references that the batched paths and fused primitives are
checked against.

Each sequence reference handles one unpadded sequence at a time and reverses
it with plain numpy, so it shares no padding, masking or permutation code
with the batched path it checks. ``conv1d_same_einsum`` is the einsum
convolution that the im2col convolution replaced, and ``conv1d_same_padded``
that im2col convolution over a zero-padded batch, which the packed
``ad.conv1d_same`` replaced. ``conv1d_same_packed`` is that packed
convolution as it ran before it took banks, biases, activations and
directions, and ``conv_banks_composed`` one direction of ``ad.conv1d_same``
composed of it and the per-bank ops that it fuses; both read the window
index that ``packing_window`` builds, as ``Packing.window`` did before the op
built its own from the packing's step sizes.
``gate_inputs_per_direction`` is deep_enhanced's gather, convolution and
projection with one call of each per direction, as they ran before the
directions went side by side.
``gru_scan_composed`` is the per-step recurrence of tape ops that the fused
scan replaced, ``gru_scan_padded`` the fused scan over a padded batch that
the packed ``ad.gru_scan`` replaced, and ``prepare_per_gate`` the three
per-gate inputs each cell prepared, over the padded batch, before its gate
inputs became one packed tensor; the composed references use the
``transpose`` and ``matmul`` ops kept here. ``dense_update`` is the training
step from before the optimizer's blocked sweeps: the L2 term on the tape
(``l2_penalty``), ``clip_global_norm``, and Adam over whole arrays.
``encode_two_runs`` is the cloze encoder as it ran before it took both
directions in one run: one one-direction run each, the backward states put
back in position order by a reversal gather, and the two joined.
``vocab_first_seen`` is ``build_vocab``'s ranking as it was written before
it counted with a ``Counter``: ties broken by an explicit first-occurrence
index. ``project_then_scan`` is the gate-input projection as its own tape
node, then the scan, as they ran before ``ad.gru_scan`` took the projection's
weights and formed the gate inputs itself.
``tokenize_peeling``, ``encode_per_sample`` and ``batch_rows`` are the data
path as it ran before it made whole-list passes: a tokenizer that peels each
chunk's edge punctuation one character at a time, one ``np.array`` of ids per
sample (``Vocab.encode``), and a padding loop that fills one row at a time.
``load_corpus_token_copies`` is ``load_corpus`` as it ran before each loader
held one string per distinct token: every token its own string object.
``save_tensors_tobytes`` and ``load_tensors_blob`` are the checkpoint writer
and reader from before they moved bytes straight between the file and the
arrays: the writer copies each array out with ``tobytes()``, and the reader
reads the whole file into one ``bytes`` object and copies each tensor out of
it.

``mul`` is the elementwise product op that ``layers.dropout_apply`` ran
with a float mask before ``ad.dropout`` took a boolean one; the tests build
their losses with it.

The tape ops ``add``, ``sub``, ``activation``, ``log``, ``clip_values``,
``mean_all``, ``bias_add`` and ``project`` (``ad._project_forward`` as its
own node, over x of rank 2 or 3) are the composed ops that ``cru`` ran before
each head layer became one node; the composed references use them.
``dense_composed`` is ``ad.dense`` and ``bce_composed`` is ``ad.bce`` built
from them, as ``layers.dense_forward`` and ``classifier.bce_loss`` ran before.
"""

import math
import string
import struct
from pathlib import Path

import numpy as np

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor
from cru.checkpoint import _MAX_NUMPY_RANK, MAGIC
from cru.classifier import bce_loss
from cru.data import Batch, Corpus, EncodedSample, Sample, _find_pair, read_lines
from cru.errors import ConfigError, DimensionError, NumericError, ParseError
from cru.layers import PAD_ID, UNK_ID
from cru.recurrent import _BANKS, _CellBase, cell_shapes, draw, pack, run_sequence


def run_row(cell, E):
    """Run one unpadded (n, d) sequence as a batch of one.

    Returns numpy arrays (all states (n, d_h), final state (d_h,)).
    """
    E = np.asarray(E)
    all_h = run_sequence([cell], Tensor(E), pack([len(E)], (False,))).data
    return all_h, all_h[-1]


def encode_two_runs(fwd_cell, bwd_cell, X):
    """(n, 2 d_h) per-position states of X (n, d) from two one-direction runs."""
    n = X.shape[0]
    return ad.concat_cols([run_sequence([fwd_cell], X, pack([n], (False,))),
                           ad.take_rows(run_sequence([bwd_cell], X, pack([n], (True,))),
                                        np.arange(n)[::-1])])


def packed_positions(lengths):
    """(row, step) of each packed row: the rows by non-increasing length,
    ties in batch order, step after step."""
    by_length = sorted(range(len(lengths)), key=lambda r: -lengths[r])
    return [(r, t) for t in range(max(lengths)) for r in by_length if lengths[r] > t]


def token_positions(lengths, n):
    """The positions r * n + t of a (B, n) batch that hold tokens, in batch
    order: the rows that ``run_sequence`` takes."""
    return np.array([r * n + t for r, ln in enumerate(lengths) for t in range(ln)])


def padded_states(states, lengths, n):
    """Packed (T, d_h) states placed at (row, step) of a (B, n, d_h) array.

    Step t of a reversed packing is the row's t-th token read from its end.
    Positions past a row's length hold NaN.
    """
    out = np.full((len(lengths), n, states.shape[1]), np.nan)
    for (r, t), h in zip(packed_positions(lengths), states):
        out[r, t] = h
    return out


def run_padded(cell, Eb, lengths, reverse=False):
    """Run a zero-padded (B, n, d) batch whose rows hold ``lengths`` tokens in
    one direction; returns ``padded_states`` as a numpy array."""
    b, n, d = Eb.shape
    E = np.asarray(Eb).reshape(b * n, d)[token_positions(lengths, n)]
    states = run_sequence([cell], Tensor(E), pack(lengths, (reverse,)))
    return padded_states(states.data, lengths, n)


def fresh_recurrence(rng, variant, d_in, d_h):
    """A fresh cell's tensors but its banks: W_* (absent for deep), U_* and
    b_*, by name, drawn as a cell draws them."""
    return draw({n: s for n, s in cell_shapes(variant, d_in, d_h).items() if "." not in n}, rng)


def fresh_bank(rng, d, k):
    """A fresh (filters, bias) bank of d filters of width k over d channels."""
    return tuple(draw({"conv.filters": (d, k, d), "conv.bias": (d,)}, rng).values())


def cell_with_banks(variant, p, banks):
    """The cell of variant whose tensors are p, a cell's W_*, U_* and b_* by
    name, and the (filters, bias) pairs banks, in the variant's bank order."""
    named = {f"{tag}.{part}": t for tag, bank in zip(_BANKS[variant], banks)
             for part, t in zip(("filters", "bias"), bank)}
    return _CellBase(variant, {**p, **named})


def transpose(x):
    """x^T on the tape: the op the old projection chain and the composed scan
    use, which no path in ``cru`` needs since the projections read W^T as a
    view."""
    if x.ndim != 2:
        raise ValueError(f"transpose needs rank 2, got shape {x.shape}")
    return ad._emit_op("transpose", (x,), Tensor(x.data.T.copy()),
                       lambda g, emit: emit(0, g.T))


def matmul(a, b):
    """a @ b on the tape: the op the old projection chain and the composed
    scan use, which no path in ``cru`` needs since ``ad.dense`` and
    ``ad.gru_scan`` make their products inside one node."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not chain")

    def apply(g, emit):
        emit(0, lambda: g @ b.data.T)
        emit(1, lambda: a.data.T @ g)

    return ad._emit_op("matmul", (a, b), Tensor(a.data @ b.data), apply)


def _check_elementwise(op, a, b):
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} differ "
                             "(only scalar-with-tensor broadcast is supported)")


def _reduce_to(g, shape):
    # Undo scalar broadcast by total reduction; identity otherwise.
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def mul(a, b):
    """a * b on the tape, of one shape or a scalar with a tensor."""
    a, b = ad._coerce(a), ad._coerce(b)
    _check_elementwise("mul", a, b)

    def apply(g, emit):
        emit(0, lambda: _reduce_to(g * b.data, a.shape))
        emit(1, lambda: _reduce_to(g * a.data, b.shape))

    return ad._emit_op("mul", (a, b), Tensor(a.data * b.data), apply)


def add(a, b):
    """a + b on the tape, with ``mul``'s scalar broadcast."""
    a, b = ad._coerce(a), ad._coerce(b)
    _check_elementwise("add", a, b)

    def apply(g, emit):
        emit(0, lambda: _reduce_to(g, a.shape))
        emit(1, lambda: _reduce_to(g, b.shape))

    return ad._emit_op("add", (a, b), Tensor(a.data + b.data), apply)


def sub(a, b):
    """a - b on the tape, with ``mul``'s scalar broadcast."""
    a, b = ad._coerce(a), ad._coerce(b)
    _check_elementwise("sub", a, b)

    def apply(g, emit):
        emit(0, lambda: _reduce_to(g, a.shape))
        emit(1, lambda: _reduce_to(-g, b.shape))

    return ad._emit_op("sub", (a, b), Tensor(a.data - b.data), apply)


# tanh in place on y, and g times its derivative at the output y, in the form
# of ``ad._POINTWISE``'s entries: the composed recurrence's candidate gate.
_TANH = (lambda y: np.tanh(y, out=y),
         lambda g, y, da, tmp: np.multiply(
             g, np.subtract(1.0, np.multiply(y, y, out=tmp), out=tmp), out=da))


def activation(kind, x):
    """relu or sigmoid (through ``ad._POINTWISE``, as the model's ops apply
    them), or tanh, as its own tape node."""
    pointwise = {**ad._POINTWISE, "tanh": _TANH}
    if kind not in pointwise:
        raise ConfigError(f"unknown activation {kind!r}")
    act, act_grad = pointwise[kind]
    out = Tensor(act(np.array(x.data)))
    y = out.data

    def apply(g, emit):
        emit(0, act_grad(g, y, np.empty(y.shape), np.empty(y.shape)), owned=True)

    return ad._emit_op(kind, (x,), out, apply)


def log(x):
    if np.any(x.data <= 0.0):
        raise NumericError("log needs strictly positive input")
    return ad._emit_op("log", (x,), Tensor(np.log(x.data)),
                       lambda g, emit: emit(0, g / x.data))


def clip_values(x, lo, hi):
    """Clamp entries to [lo, hi]; gradient passes only where unclamped."""
    mask = (x.data > lo) & (x.data < hi)
    return ad._emit_op("clip", (x,), Tensor(np.clip(x.data, lo, hi)),
                       lambda g, emit: emit(0, g * mask))


def mean_all(x):
    n = x.size
    return ad._emit_op("mean_all", (x,), Tensor(np.mean(x.data)),
                       lambda g, emit: emit(0, np.broadcast_to(g / n, x.shape)))


def bias_add(x, v):
    """Add a rank-1 vector to every row (last-axis slice) of x."""
    if v.ndim != 1 or x.shape[-1] != v.shape[0]:
        raise DimensionError(f"bias_add: shapes {x.shape} and {v.shape} do not align")

    def apply(g, emit):
        emit(0, g)
        emit(1, lambda: g.reshape(-1, v.shape[0]).sum(axis=0))

    return ad._emit_op("bias_add", (x, v), Tensor(x.data + v.data), apply)


def project(x, weights):
    """The projections of x's column blocks (``ad._project_forward``) as
    their own tape node, over x of rank 2 or 3: (..., G c) -> (..., G s)."""
    groups = [list(g) for g in weights]
    out, backward = ad._project_forward(
        Tensor(x.data.reshape(-1, x.shape[-1])) if x.ndim == 3 else x, groups)

    def apply(g, emit):
        emit(0, backward(g.reshape(-1, g.shape[-1]), emit, 1).reshape(x.shape), owned=True)

    return ad._emit_op("project", [x] + [w for g in groups for w in g],
                       Tensor(out.reshape(*x.shape[:-1], -1)), apply)


def dense_composed(x, W, b, kind):
    """``ad.dense`` as three tape nodes: ``project``, ``bias_add`` and the
    activation."""
    return activation(kind, bias_add(project(x, [[W]]), b))


def bce_composed(p, y):
    """``ad.bce`` as nine tape nodes: the clamp, two logs, the products with
    the labels, their sum, the mean and the sign."""
    pc = clip_values(p, 1e-7, 1.0 - 1e-7)
    pos = mul(Tensor(y), log(pc))
    neg = mul(Tensor(1.0 - y), log(sub(1.0, pc)))
    return mul(mean_all(add(pos, neg)), -1.0)


def _project(E, w):
    """(B, n, d) x (d_h, d) -> (B, n, d_h) via one flat matmul."""
    b, n, d = E.shape
    flat = ad.reshape(E, (b * n, d))
    return ad.reshape(matmul(flat, transpose(w)), (b, n, w.shape[0]))


def conv1d_same_padded(x, filters):
    """``ad.conv1d_same`` over a zero-padded batch, as it ran before packing.

    x: (B, n, d_in); filters: (d_out, k, d_in) with odd k. Each sequence is
    zero-padded by (k-1)/2 steps on each end, so the output has exactly n
    steps: im2col over the padded steps, then one matmul. No bias, no
    nonlinearity.
    """
    d_out, k, d_in = filters.shape
    b, n, _ = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((b, n + k - 1, d_in))
    xp[:, pad:pad + n, :] = x.data
    win = np.stack([xp[:, j:j + n, :] for j in range(k)], axis=2).reshape(b * n, k * d_in)
    f2 = filters.data.reshape(d_out, k * d_in)
    out = Tensor((win @ f2.T).reshape(b, n, d_out))

    def apply(g, emit):
        g2 = g.reshape(b * n, d_out)
        d_win = (g2 @ f2).reshape(b, n, k, d_in)
        d_xp = np.zeros((b, n + k - 1, d_in))
        for j in range(k):
            d_xp[:, j:j + n, :] += d_win[:, :, j, :]
        emit(0, d_xp[:, pad:pad + n, :])
        emit(1, (g2.T @ win).reshape(d_out, k, d_in))

    return ad._emit_op("conv1d_same", (x, filters), out, apply)


def packing_window(batch_sizes, k):
    """``Packing.window`` as it ran before ``ad.conv1d_same`` built its own
    window from batch_sizes: the (T, k) window index of a width-k
    same-length convolution over the packed rows of any direction: slot j of
    packed row i at step t holds the packed row of the same row's step
    t + j - (k-1)/2, or T, the zero of its same-length padding, where the
    row has no such step. k is odd and >= 1."""
    if k < 1 or k % 2 == 0:
        raise ConfigError(f"filter window must be odd and >= 1, got {k}")
    sizes, pad = np.asarray(batch_sizes), (k - 1) // 2
    # Step s is entry s + pad; the pad steps on either side hold no rows.
    held = np.zeros(sizes.size + 2 * pad, dtype=np.intp)
    held[pad:pad + sizes.size] = sizes
    starts = np.cumsum(held) - held
    step = np.repeat(np.arange(pad, pad + sizes.size), sizes)
    place = (np.arange(step.size) - starts[step])[:, None]  # i, within its block
    steps = step[:, None] + np.arange(-pad, pad + 1)  # each slot's step
    return np.where(held[steps] > place, starts[steps] + place, step.size)


def conv1d_same_packed(x, filters, window):
    """One bank of one direction of ``ad.conv1d_same``, without bias or
    activation: im2col through the (T, k) window index, then one matmul."""
    d_out, k, d_in = filters.shape
    total = x.shape[0]

    def im2col(rows):
        # Row T of the padded copy is the zero that out-of-sequence slots read.
        padded = np.empty((total + 1, rows.shape[1]))
        padded[:total] = rows
        padded[total] = 0.0
        return padded[window].reshape(total, k * rows.shape[1])

    win = im2col(x.data)
    out = Tensor(win @ filters.data.reshape(d_out, k * d_in).T)

    def apply(g, emit):
        # Tap-reversed filters: row (j, o) holds filter o's tap k-1-j.
        emit(0, lambda: im2col(g) @ filters.data[:, ::-1].transpose(1, 0, 2).reshape(
            k * d_out, d_in), owned=True)
        emit(1, lambda: (g.T @ win).reshape(d_out, k, d_in), owned=True)

    return ad._emit_op("conv1d_same", (x, filters), out, apply)


def conv_banks_composed(x, banks, window, residual):
    """One direction of ``ad.conv1d_same`` from per-bank ops: each bank's
    ``conv1d_same_packed``, ``bias_add``, relu and, if residual, the add of
    x, side by side."""
    outs = []
    for filters, bias in banks:
        y = activation("relu", bias_add(conv1d_same_packed(x, filters, window), bias))
        outs.append(add(y, x) if residual else y)
    return ad.concat_cols(outs)


def gate_inputs_per_direction(E, packing, banks, weights, window):
    """deep_enhanced's gate inputs from one gather, one convolution through
    the (T, k) window index (``conv_banks_composed``) and one ``project`` per
    direction, joined side by side: returns the convolution's output and the
    gate inputs."""
    convs = [conv_banks_composed(ad.take_rows(E, packing.rows[:, i]), g, window, residual=True)
             for i, g in enumerate(banks)]
    gates = [project(c, [[w] for w in ws]) for c, ws in zip(convs, weights)]
    return ad.concat_cols(convs), ad.concat_cols(gates)


def same_length_conv_padded(bank, x):
    """``layers.same_length_conv`` of one (filters, bias) bank over a
    zero-padded (B, n, d) batch."""
    filters, bias = bank
    return activation("relu", bias_add(conv1d_same_padded(x, filters), bias))


def prepare_per_gate(cell, E):
    """The (B, n, d_h) gate inputs (P_z, P_r, P_h) of a cell, one per gate,
    over a zero-padded (B, n, d) batch."""
    if cell.variant != "deep":
        ws = [cell.params[n] for n in ("W_z", "W_r", "W")]
    if cell.variant == "gru":
        return tuple(_project(E, w) for w in ws)
    if cell.variant == "shallow":
        c = same_length_conv_padded(cell.banks[0], E)
        return tuple(_project(c, w) for w in ws)
    banks = [same_length_conv_padded(c, E) for c in cell.banks]
    if cell.variant == "deep":
        return tuple(banks)
    return tuple(_project(add(c, E), w) for c, w in zip(banks, ws))


def gru_scan_composed(P, U_z, U_r, U, b_z, b_r, b_h):
    """``ad.gru_scan`` built from per-step ``ad`` ops, about 20 nodes a step.

    The (B, n, 3 d_h) gate inputs are split into their three (B * n, d_h)
    column blocks; step t's gate inputs are rows r * n + t of each block, and
    the n (B, d_h) states are stacked back into (B, n, d_h).
    """
    b, n, three_d_h = P.shape
    d_h = three_d_h // 3
    cols = transpose(ad.reshape(P, (b * n, three_d_h)))
    flat = [transpose(ad.take_rows(cols, np.arange(i * d_h, (i + 1) * d_h)))
            for i in range(3)]
    uzT, urT, uT = transpose(U_z), transpose(U_r), transpose(U)
    h = Tensor(np.zeros((b, d_h)))
    states = []
    for t in range(n):
        pz_t, pr_t, ph_t = (ad.take_rows(f, np.arange(b) * n + t) for f in flat)
        z = activation("sigmoid", bias_add(add(pz_t, matmul(h, uzT)), b_z))
        r = activation("sigmoid", bias_add(add(pr_t, matmul(h, urT)), b_r))
        g = activation("tanh", bias_add(add(ph_t, matmul(mul(r, h), uT)), b_h))
        h = add(mul(z, h), mul(sub(1.0, z), g))
        states.append(h)
    return ad.reshape(ad.concat_cols(states), (b, n, d_h))


def project_then_scan(x, directions, batch_sizes, weights):
    """``ad.gru_scan(x, directions, batch_sizes, weights)`` as two tape nodes:
    the gate inputs ``project(x, weights)``, then the scan over them."""
    return ad.gru_scan(project(x, weights), directions, batch_sizes)


def gru_scan_padded(P, U_z, U_r, U, b_z, b_r, b_h):
    """``ad.gru_scan`` over a padded batch, as it ran before packing: every
    row runs out to the batch width, and one tape node holds the whole scan.

    P: (B, n, 3 d_h) gate inputs laid out [P_z | P_r | P_h]; U_*: (d_h, d_h);
    b_*: (d_h,). From h_{-1} = 0, step t computes

      z = sigmoid(P_z,t + h U_z^T + b_z),  r = sigmoid(P_r,t + h U_r^T + b_r)
      g = tanh(P_h,t + (r * h) U^T + b_h),  h_t = z * h + (1 - z) * g

    and the result holds every h_t, (B, n, d_h). Both gates that read h_{t-1}
    share one (d_h, 2 d_h) matmul. Backward is a reverse loop that carries dh
    through two small matmuls per step and writes every gate's gradient into
    one (B, n, 3 d_h) array, emitted as it is; the weight and bias gradients
    are formed after it, each with one (B*n)-row matmul or sum.
    """
    if P.ndim != 3 or P.shape[1] < 1:
        raise ValueError(f"gru_scan needs (B, n, 3 d_h) gate inputs with n >= 1, "
                             f"got {P.shape}")
    b, n, _ = P.shape
    d_h = U.shape[0] if U.ndim == 2 else -1
    for name, t, shape in (("P", P, (b, n, 3 * d_h)), ("U_z", U_z, (d_h, d_h)),
                           ("U_r", U_r, (d_h, d_h)), ("U", U, (d_h, d_h)),
                           ("b_z", b_z, (d_h,)), ("b_r", b_r, (d_h,)),
                           ("b_h", b_h, (d_h,))):
        if t.shape != shape:
            raise ValueError(f"gru_scan: {name} must have shape {shape}, got {t.shape}")

    # The z and r columns sit side by side, so one sigmoid covers both gates.
    # Each step touches its strided time slice of a (B, n, .) array once and
    # works through out= in (B, .) buffers, where an op costs a third as much.
    zr_cols, h_cols = slice(0, 2 * d_h), slice(2 * d_h, None)
    b_zr = np.concatenate([b_z.data, b_r.data])
    u_zr = np.concatenate([U_z.data, U_r.data])  # (2 d_h, d_h)
    u = U.data
    H = np.empty((b, n, d_h))
    A = np.empty((b, n, 3 * d_h))  # [z | r | g] at every step
    h, rh, g, tmp = (np.zeros((b, d_h)) for _ in range(4))  # h carries h_{t-1}
    a_zr = np.empty((b, 2 * d_h))
    for t in range(n):
        np.matmul(h, u_zr.T, out=a_zr)
        a_zr += P.data[:, t, zr_cols]
        a_zr += b_zr
        zr = A[:, t, zr_cols] = ad._sigmoid(a_zr)
        z = zr[:, :d_h]
        np.matmul(np.multiply(zr[:, d_h:], h, out=rh), u.T, out=g)
        g += P.data[:, t, h_cols]
        g += b_h.data
        A[:, t, h_cols] = np.tanh(g, out=g)
        g *= np.subtract(1.0, z, out=tmp)
        h *= z
        h += g  # z * h + (1 - z) * g
        H[:, t] = h
    out = Tensor(H)

    def apply(gout, emit):
        dA = np.empty((b, n, 3 * d_h))  # gradients at the gates' pre-activations
        a, da, c = np.empty((b, 3 * d_h)), np.empty((b, 3 * d_h)), np.empty((b, 2 * d_h))
        dh, h, d_rh, tmp = (np.zeros((b, d_h)) for _ in range(4))
        zr, z, r, g = a[:, zr_cols], a[:, :d_h], a[:, d_h:2 * d_h], a[:, h_cols]
        da_zr, da_g = da[:, zr_cols], da[:, h_cols]
        for t in reversed(range(n)):
            dh += gout[:, t]
            a[...] = A[:, t]
            h[...] = H[:, t - 1] if t else 0.0
            np.multiply(np.subtract(1.0, z, out=tmp), dh, out=tmp)
            np.subtract(1.0, np.multiply(g, g, out=da_g), out=da_g)
            np.matmul(np.multiply(tmp, da_g, out=da_g), u, out=d_rh)  # at r * h
            np.multiply(np.subtract(h, g, out=da[:, :d_h]), dh, out=da[:, :d_h])
            np.multiply(d_rh, h, out=da[:, d_h:2 * d_h])
            da_zr *= zr
            da_zr *= np.subtract(1.0, zr, out=c)
            dA[:, t] = da
            dh *= z
            dh += np.multiply(d_rh, r, out=tmp)
            dh += np.matmul(da_zr, u_zr, out=tmp)
        emit(0, dA)
        flat = dA.reshape(b * n, 3 * d_h)
        H_prev = np.zeros_like(H)
        H_prev[:, 1:] = H[:, :-1]
        RH = A[..., d_h:2 * d_h] * H_prev  # r * h_{t-1}, which U multiplies
        d_u = np.concatenate([flat[:, zr_cols].T @ H_prev.reshape(b * n, d_h),
                              flat[:, h_cols].T @ RH.reshape(b * n, d_h)])
        d_b = flat.sum(axis=0)
        for i in range(3):
            emit(1 + i, d_u[i * d_h:(i + 1) * d_h])
            emit(4 + i, d_b[i * d_h:(i + 1) * d_h])

    return ad._emit_op("gru_scan", (P, U_z, U_r, U, b_z, b_r, b_h), out, apply)


def forward_reference(model, ids) -> float:
    """Eval-mode probability of one unpadded id sequence.

    The forward cell reads the row, the backward cell reads it reversed, and
    the fc (relu) and output (sigmoid) layers are applied in numpy.
    """
    E = model.embedding.data[np.asarray(ids, dtype=np.intp)]
    _, final_f = run_row(model.cells[0], E)
    _, final_b = run_row(model.cells[1], E[::-1])
    h = np.concatenate([final_f, final_b])
    p = {n: t.data for n, t in model.params.items()}
    h = np.maximum(p["fc.weights"] @ h + p["fc.bias"], 0.0)
    z = p["out.weights"] @ h + p["out.bias"]
    return float(1.0 / (1.0 + np.exp(-z[0])))


def conv1d_same_einsum(x, filters, g):
    """Same-length conv of (B, n, d_in) by (d_out, k, d_in) filters, by einsum.

    Returns (out, d_x, d_filters): the output and the gradients of
    sum(out * g) with respect to x and filters.
    """
    b, n, d_in = x.shape
    k = filters.shape[1]
    pad = (k - 1) // 2
    xp = np.zeros((b, n + k - 1, d_in))
    xp[:, pad:pad + n, :] = x
    win = np.stack([xp[:, j:j + n, :] for j in range(k)], axis=2)  # (B,n,k,c)
    out = np.einsum("ojc,bijc->bio", filters, win)
    d_filters = np.einsum("bio,bijc->ojc", g, win)
    d_win = np.einsum("bio,ojc->bijc", g, filters)
    d_xp = np.zeros_like(xp)
    for j in range(k):
        d_xp[:, j:j + n, :] += d_win[:, :, j, :]
    return out, d_xp[:, pad:pad + n, :], d_filters


def l2_penalty(weights, lam):
    """lam * sum(w^2), recorded on the tape."""
    if lam == 0.0:
        return Tensor(0.0)
    return mul(ad.sum_all(mul(weights, weights)), lam)


def clip_global_norm(grads, max_norm):
    """Scale the arrays in place so their joint L2 norm is <= max_norm.

    Returns the pre-clip global norm.
    """
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if norm > max_norm:
        for g in grads:
            g *= max_norm / norm
    return norm


def dense_update(model, batches, config, rng, beta1=0.9, beta2=0.999, eps=1e-8):
    """One training step per batch, as ``train_epoch`` took it with the L2
    term on the tape and one whole-array Adam update per parameter.

    Returns (reported loss of each step, Adam's m and v by parameter name);
    the model's parameters are updated in place.
    """
    params = model.named_params()
    m = {n: np.zeros_like(p.data) for n, p in params.items()}
    v = {n: np.zeros_like(p.data) for n, p in params.items()}
    losses = []
    for t, batch in enumerate(batches, start=1):
        with Tape() as tape:
            p = model.forward_batch(batch, train=True, rng=rng)
            loss = bce_loss(p, batch.labels)
            if config.l2 > 0:
                loss = add(loss, l2_penalty(model.embedding, config.l2))
            tape.backward(loss)
        losses.append(loss.item())
        grads = {n: np.asarray(q.grad) for n, q in params.items() if q.grad is not None}
        clip_global_norm(list(grads.values()), config.clip_norm)
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for n, g in grads.items():
            m[n] *= beta1
            m[n] += (1.0 - beta1) * g
            v[n] *= beta2
            v[n] += (1.0 - beta2) * g * g
            params[n].data -= config.lr * (m[n] / c1) / (np.sqrt(v[n] / c2) + eps)
            params[n].zero_grad()
    return losses, m, v


def vocab_first_seen(corpus, max_size=None):
    """The tokens of ``build_vocab(corpus, max_size)`` after pad and unk,
    ranked by (frequency desc, first occurrence asc)."""
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    at = 0
    for sample in corpus.samples:
        for tok in sample.tokens:
            counts[tok] = counts.get(tok, 0) + 1
            if tok not in first_seen:
                first_seen[tok] = at
            at += 1
    ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))
    return ranked if max_size is None else ranked[:max_size - 2]


def tokenize_peeling(raw):
    tokens = []
    for chunk in raw.lower().split():
        lead = []
        while chunk and chunk[0] in string.punctuation:
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail = []
        while chunk and chunk[-1] in string.punctuation:
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        trail.reverse()
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(trail)
    return tokens


def load_corpus_token_copies(path, fmt):
    root = Path(path)
    if fmt == "imdb":
        texts = [(" ".join(read_lines(doc)), label) for sub, label in (("pos", 1), ("neg", 0))
                 for doc in sorted((root / sub).glob("*.txt"))]
    else:
        pos, neg = _find_pair(root)
        texts = [(line, label) for file, label in ((pos, 1), (neg, 0)) for line in read_lines(file)]
    return Corpus([Sample(tokens, label) for text, label in texts
                   if (tokens := tokenize_peeling(text))])


def encode_per_sample(vocab, samples):
    return [EncodedSample(np.array([vocab.stoi.get(t, UNK_ID) for t in s.tokens], dtype=np.intp),
                          s.label) for s in samples]


def batch_rows(samples, batch_size, rng=None):
    order = rng.permutation(len(samples)) if rng is not None else range(len(samples))
    ordered = [samples[i] for i in order]
    batches = []
    for at in range(0, len(ordered), batch_size):
        group = ordered[at:at + batch_size]
        width = max(len(s.ids) for s in group)
        b = len(group)
        ids = np.full((b, width), PAD_ID, dtype=np.intp)
        mask = np.zeros((b, width))
        labels = np.zeros(b)
        for row, s in enumerate(group):
            n = len(s.ids)
            ids[row, :n] = s.ids
            mask[row, :n] = 1.0
            labels[row] = float(s.label)
        batches.append(Batch(ids=ids, mask=mask, labels=labels))
    return batches


def save_tensors_tobytes(path, tensors):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            data = np.asarray(arr, dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


def load_tensors_blob(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise ParseError(f"{path}: not a checkpoint file (bad magic)")
    at = len(MAGIC)

    def take(fmt):
        nonlocal at
        size = struct.calcsize(fmt)
        if at + size > len(blob):
            raise ParseError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, blob, at)
        at += size
        return vals

    (count,) = take("<I")
    out = {}
    for _ in range(count):
        (name_len,) = take("<H")
        if at + name_len > len(blob):
            raise ParseError(f"{path}: truncated checkpoint")
        try:
            name = blob[at:at + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: tensor name is not valid UTF-8") from None
        at += name_len
        if name in out:
            raise ParseError(f"{path}: tensor {name} appears more than once")
        (rank,) = take("<B")
        if rank > _MAX_NUMPY_RANK:
            raise ParseError(f"{path}: tensor {name} has rank {rank}, above numpy's "
                             f"{_MAX_NUMPY_RANK}")
        shape = tuple(take("<I")[0] for _ in range(rank))
        n = math.prod(shape)
        nbytes = n * 8
        if at + nbytes > len(blob):
            raise ParseError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=at).reshape(shape)
        at += nbytes
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: tensor {name} holds non-finite entries")
        out[name] = arr.astype(np.float64)
    if at != len(blob):
        raise ParseError(f"{path}: {len(blob) - at} trailing bytes after last tensor")
    return out
