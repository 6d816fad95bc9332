"""Dense float64 tensors with tape-based reverse-mode differentiation.

Ops executed while a ``Tape`` is active are recorded as an append-only list
of nodes; ``Tape.backward`` walks that list in reverse, so every gradient is
finalized before any consumer reads it. A node holds its tensor's shape and
its op's backward closure, and a leaf node its tensor; an op's output is held
only weakly, so an output that its caller drops is freed in the forward, and
each closure keeps only the arrays its backward reads. The walk consumes the
tape: it drops each node, with the forward arrays its backward holds, as soon
as that backward has run, so a tape runs one backward and records nothing
after it. A backward may write over its own output once nothing else reads
it: neither the output's tensor nor any view of its data (a ``reshape`` of
it) is alive.
Gradients accumulate across tapes. With no active tape the same ops run as
plain numpy forward computations, which is what evaluation and the
finite-difference oracle use.

A tape and its tensors are a single-threaded unit of work; the active-tape
stack is thread-local, so distinct tapes may run on distinct threads. Every
op records and runs its backward on the thread that called it. The ops that
take several directions side by side (``conv1d_same`` and ``gru_scan``) may
run the numpy of the second direction on one worker thread that the process
shares, while the calling thread runs the first and waits for both. The
worker runs numpy on arrays only, never a tape op, so the threads that share
it still each see only their own tape.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

Array = np.ndarray

_MAX_RANK = 3


def _as_array(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > _MAX_RANK:
        raise DimensionError(f"tensors are rank 0..{_MAX_RANK}, got shape {arr.shape}")
    return arr


class Tensor:
    """Dense real array (rank 0..3) with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("tensor holds non-finite entries")
        self.requires_grad = requires_grad
        self.grad: Array | RowGrad | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class RowGrad:
    """The gradient of a leaf that only row gathers read: the summed rows at
    ``ids`` (unique, ascending), zero elsewhere. ``np.asarray``, and any
    numpy op with an array, see the dense array; ``+`` of two RowGrads
    stays row-sparse."""

    __slots__ = ("shape", "ids", "rows")

    def __init__(self, shape: tuple[int, ...], ids: Array, rows: Array):
        self.shape, self.ids, self.rows = tuple(shape), ids, rows

    @classmethod
    def empty(cls, shape: tuple[int, ...]) -> "RowGrad":
        return cls(shape, np.empty(0, dtype=np.intp), np.empty((0, *shape[1:])))

    def add_rows(self, ids: Array, grad: Array) -> "RowGrad":
        """This gradient plus grad's rows at ids, which may repeat. Each id's
        terms are added after its current sum in order, as ``np.add.at``
        into the dense array adds them, so every sum is the same bit for bit."""
        union, at = np.unique(np.concatenate([self.ids, ids]), return_inverse=True)
        rows = np.zeros((len(union), *self.shape[1:]))
        rows[at[:len(self.ids)]] = self.rows
        np.add.at(rows, at[len(self.ids):], grad)
        return RowGrad(self.shape, union, rows)

    def __array__(self, dtype=None, copy=None) -> Array:
        out = np.zeros(self.shape, dtype=dtype)
        np.atleast_1d(out)[self.ids] = self.rows
        return out

    def __add__(self, other):
        if isinstance(other, RowGrad):
            return self.add_rows(other.ids, other.rows)
        return np.asarray(self) + other


def _wrap_finite(data: Array, requires_grad: bool = False) -> Tensor:
    """A Tensor over data, whose entries the caller has already checked to
    be finite: ``Tensor`` without its second pass of ``np.isfinite``."""
    t = Tensor.__new__(Tensor)
    t.data, t.requires_grad, t.grad = _as_array(data), requires_grad, None
    return t


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# --------------------------------------------------------------------------
# Tape
# --------------------------------------------------------------------------

_LOCAL = threading.local()


def _stack() -> list["Tape"]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def active_tape() -> "Tape | None":
    """The innermost tape opened on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


@dataclass
class Node:
    """A leaf, which holds its tensor, or a recorded op, which holds its
    output only through ref, a weak reference: the op's backward closure
    keeps what that backward reads, and nothing keeps the rest."""
    nid: int
    op: str
    input_ids: tuple
    shape: tuple[int, ...]
    apply: Callable | None  # apply(grad_out, emit); None for leaves
    leaf: Tensor | None = None
    ref: weakref.ref | None = None

    @property
    def tensor(self) -> Tensor:
        """The leaf, the op's output while it lives, or, once that output has
        died, an empty tensor: the tape holds none of its bytes."""
        if self.leaf is not None:
            return self.leaf
        out = self.ref() if self.ref is not None else None
        return _FREED if out is None else out


_FREED = Tensor(np.empty(0))


class Tape:
    """Append-only computation record for one reverse pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        # tensor -> node id; an output's entry goes when the output dies.
        self._ids: weakref.WeakKeyDictionary[Tensor, int] = weakref.WeakKeyDictionary()
        self._spent = False  # backward has run

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _stack().pop()
        if popped is not self:
            raise ContractError("tape context exited out of order")
        return False

    def _node_id(self, t: Tensor) -> int | None:
        nid = self._ids.get(t)
        if nid is None and t.requires_grad:
            nid = len(self.nodes)
            self.nodes.append(Node(nid, "leaf", (), t.shape, None, leaf=t))
            self._ids[t] = nid
        return nid

    def watches(self, t: Tensor) -> bool:
        return t.requires_grad or self._ids.get(t) is not None

    def record(self, op: str, inputs: Sequence[Tensor], out: Tensor, apply: Callable) -> None:
        if self._spent:
            raise ContractError(f"{op}: this tape's backward has run; record on a new tape")
        input_ids = tuple(self._node_id(t) for t in inputs)
        nid = len(self.nodes)
        # Append-only construction keeps the list topologically ordered.
        assert all(i is None or i < nid for i in input_ids)
        self.nodes.append(Node(nid, op, input_ids, out.shape, apply, ref=weakref.ref(out)))
        self._ids[out] = nid

    def backward(self, loss: Tensor) -> None:
        """Populate .grad for every requires_grad tensor reachable from loss,
        and consume the tape: each node is dropped as soon as its backward has
        run, and a second backward, or an op recorded after this one, is a
        ``ContractError``.

        A leaf that only ``rows=`` gradients reach (a table read by
        ``take_rows``) gets a ``RowGrad``; every other gradient is dense.
        Gradients accumulate across tapes; reset with zero_grad between steps.
        """
        if self._spent:
            raise ContractError("this tape's backward has run; record on a new tape")
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        # A loss that no op recorded gets a leaf node here, which the loop
        # below seeds; a constant one gets none and reaches no gradient.
        loss_nid = self._node_id(loss)
        nodes, self.nodes, self._spent = self.nodes, [], True
        self._ids.clear()
        if loss_nid is None:
            return

        buf: list[Array | None] = [None] * len(nodes)
        buf[loss_nid] = np.ones_like(loss.data)

        while nodes:
            # Popped: the node, its closure and the forward arrays that holds
            # are freed as the next node is taken.
            node, g = nodes.pop(), buf.pop()
            if g is None:
                continue  # not reachable backward from the loss
            t = node.leaf
            if t is not None and t.requires_grad:
                # g is a fresh buffer this pass owns, so the leaf can keep it.
                t.grad = g if t.grad is None else t.grad + g
            if node.apply is not None:
                # An op's backward may also write over g, its last reader
                # (gru_scan keeps r * h_{t-1} there).
                input_ids = node.input_ids

                def emit(i: int, grad, rows=None, owned=False) -> None:
                    # grad may be a function that makes the gradient; it is
                    # called only for an input with a tape node, so no
                    # gradient of a constant is ever formed. rows: grad holds
                    # only these rows of the input's gradient, which may
                    # repeat. owned: grad is a fresh array that nothing else
                    # holds, so it needs no copy.
                    nid = input_ids[i]
                    if nid is None:
                        return  # constant input
                    if callable(grad):
                        grad = grad()
                    cur = buf[nid]
                    shape = nodes[nid].shape
                    if rows is not None:
                        if cur is None:
                            # A leaf keeps only the rows it is given.
                            cur = (RowGrad.empty(shape) if nodes[nid].apply is None
                                   else np.zeros(shape))
                        if isinstance(cur, RowGrad):
                            cur = cur.add_rows(rows, grad)
                        else:
                            np.add.at(cur, rows, grad)
                        buf[nid] = cur
                    elif grad.shape != shape:
                        raise ContractError(f"{node.op}: gradient of shape {grad.shape} "
                                            f"for an input of shape {shape}")
                    elif cur is None:
                        # Otherwise a copy: grad may be a read-only view or an
                        # array the op keeps.
                        buf[nid] = grad if owned else np.array(grad)
                    else:
                        if isinstance(cur, RowGrad):
                            cur = buf[nid] = np.asarray(cur)
                        cur += grad

                node.apply(g, emit)

    def __len__(self) -> int:
        return len(self.nodes)


def _emit_op(op: str, inputs: Sequence[Tensor], out: Tensor, apply: Callable) -> Tensor:
    tape = active_tape()
    if tape is not None and any(tape.watches(t) for t in inputs):
        tape.record(op, inputs, out, apply)
    return out


# --------------------------------------------------------------------------
# Primitive ops
# --------------------------------------------------------------------------

def dropout(x: Tensor, kept: Array, keep: float) -> Tensor:
    """Inverted dropout by a boolean mask kept of x's shape: x * (kept /
    keep), so a kept entry is scaled by 1 / keep and a dropped one is zeroed
    (a negative one to -0.0). The backward keeps the mask, not x, and forms
    g * (kept / keep) again."""
    if kept.dtype != bool or kept.shape != x.shape:
        raise DimensionError(f"dropout: a boolean mask of shape {x.shape} is needed, got "
                             f"{kept.dtype} {kept.shape}")
    out = Tensor(x.data * (kept / keep))

    def apply(g, emit):
        emit(0, g * (kept / keep), owned=True)

    return _emit_op("dropout", (x,), out, apply)


def _sigmoid(d: Array, out: Array | None = None) -> Array:
    # exp of a non-positive argument only, so large |d| cannot overflow:
    # 1 / (1 + e) where d >= 0 and e / (1 + e) elsewhere, as max(e, d >= 0)
    # is 1 or e. In place, because fresh temporaries cost more than the math
    # at the (B, d_h) sizes of one scan step; out may be d itself.
    e = np.exp(-np.abs(d))
    y = np.maximum(e, d >= 0, out=out)
    e += 1.0
    y /= e
    return y


# Each activation in place on y, and g times its derivative at the output y,
# written into da and returned, with tmp as scratch, in the order its op has
# always formed it. The subgradient of relu at 0 is 0. The banks and the fc
# layer apply relu, and the output layer sigmoid.
_POINTWISE = {
    "sigmoid": (lambda y: _sigmoid(y, out=y),
                lambda g, y, da, tmp: np.multiply(np.multiply(g, y, out=da),
                                                  np.subtract(1.0, y, out=tmp), out=da)),
    "relu": (lambda y: np.maximum(y, 0.0, out=y),
             lambda g, y, da, tmp: np.multiply(g, np.greater(y, 0.0, out=tmp), out=da)),
}


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.sum(x.data))
    shape = x.shape

    def apply(g, emit):
        emit(0, np.broadcast_to(g, shape))

    return _emit_op("sum_all", (x,), out, apply)


def bce(p: Tensor, y) -> Tensor:
    """Mean binary cross-entropy of probabilities p against labels y of p's
    shape, as one node. p is clamped to [1e-7, 1 - 1e-7] first, and the clamp
    passes no gradient where it clamps. Each number is formed in the order of
    the clamp, log, product and mean ops this fuses, so it equals theirs bit
    for bit."""
    y = _coerce(y).data
    if p.shape != y.shape:
        raise DimensionError(f"bce: probabilities {p.shape} and labels {y.shape} differ")
    lo, hi = 1e-7, 1.0 - 1e-7
    pc = np.clip(p.data, lo, hi)
    mask = (p.data > lo) & (p.data < hi)
    neg_y, neg_pc, n = 1.0 - y, 1.0 - pc, p.size
    out = Tensor(np.mean(y * np.log(pc) + neg_y * np.log(neg_pc)) * -1.0)

    def apply(g, emit):
        c = (g * -1.0) / n
        d_p = -((c * neg_y) / neg_pc)
        d_p += (c * y) / pc
        emit(0, d_p * mask, owned=True)

    return _emit_op("bce", (p,), out, apply)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(np.reshape(x.data, shape))
    orig = x.shape

    def apply(g, emit):
        emit(0, g.reshape(orig))

    return _emit_op("reshape", (x,), out, apply)


def concat_cols(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate along the last axis; leading dims must agree."""
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ContractError("concat_cols needs at least one part")
    first = parts[0]
    for p in parts[1:]:
        if p.ndim != first.ndim or p.shape[:-1] != first.shape[:-1]:
            raise DimensionError(
                f"concat_cols: leading dims differ, {first.shape} vs {p.shape}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    widths = [p.shape[-1] for p in parts]

    def apply(g, emit):
        at = 0
        for i, w in enumerate(widths):
            emit(i, g[..., at:at + w])
            at += w

    return _emit_op("concat_cols", parts, out, apply)


def take_rows(x: Tensor, ids) -> Tensor:
    """Gather rows of a matrix: ids (N,) give (N, d), and ids (N, D) the D
    gathers side by side, (N, D d). Backward accumulates into repeated rows.
    A column that reads every row of x once (a direction's packed order) is
    a permutation: its gradient is the gather of its columns of g through the
    inverse permutation, one dense array, with no zero fill or scatter."""
    if x.ndim != 2:
        raise DimensionError(f"take_rows needs rank 2, got shape {x.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim not in (1, 2):
        raise DimensionError(f"take_rows needs ids of rank 1 or 2, got shape {idx.shape}")
    if idx.size == 0:
        raise ContractError("take_rows needs at least one index")
    if np.any(idx < 0) or np.any(idx >= x.shape[0]):
        bad = idx[(idx < 0) | (idx >= x.shape[0])][0]
        raise ContractError(f"take_rows: row id {bad} out of range [0, {x.shape[0]})")
    # (N, D, d) in memory, so the side-by-side layout is a reshape of it.
    out = Tensor(x.data[idx].reshape(len(idx), -1))
    n, d = x.shape
    cols = idx.reshape(len(idx), -1).T
    permutes = [len(c) == n and np.bincount(c).max() == 1 for c in cols]

    def apply(g, emit):
        # One emit per column, in column order, so every row's gradient adds
        # its terms in the same order whichever way a column is emitted.
        for j, (c, perm) in enumerate(zip(cols, permutes)):
            g_j = g[:, j * d:(j + 1) * d]
            if perm:
                inv = np.empty(n, dtype=np.intp)
                inv[c] = np.arange(n)
                emit(0, g_j[inv], owned=True)
            else:
                emit(0, g_j, rows=c)

    return _emit_op("take_rows", (x,), out, apply)


def _packed_sizes(op: str, batch_sizes) -> list[int]:
    """batch_sizes as a list, checked. Step t of a packed layout owns the
    contiguous block of k_t = batch_sizes[t] rows after the blocks before it,
    the sizes are integers that never increase, and row j of a block
    continues row j of the block before."""
    arr = np.asarray(batch_sizes).reshape(-1)
    sizes = arr.tolist()
    if (arr.dtype.kind not in "iu" or not sizes or sizes[-1] < 1
            or any(u < v for u, v in zip(sizes, sizes[1:]))):
        raise ContractError(f"{op}: batch_sizes must be positive, non-increasing integers, "
                            f"got {sizes}")
    return sizes


def _window(sizes: list[int], k: int) -> Array:
    """The (T, k) window index of a width-k same-length convolution over the
    packed rows of step sizes sizes, odd k: slot j of packed row i at step t
    holds the packed row of the same row's step t + j - (k-1)/2, or T, the
    zero of its same-length padding, where the row has no such step."""
    pad = (k - 1) // 2
    # Step s is entry s + pad; the pad steps on either side hold no rows.
    held = np.zeros(len(sizes) + 2 * pad, dtype=np.intp)
    held[pad:pad + len(sizes)] = sizes
    starts = np.cumsum(held) - held
    step = np.repeat(np.arange(pad, pad + len(sizes)), sizes)
    place = (np.arange(step.size) - starts[step])[:, None]  # i, within its block
    steps = step[:, None] + np.arange(-pad, pad + 1)  # each slot's step
    return np.where(held[steps] > place, starts[steps] + place, step.size)


def conv1d_same(x: Tensor, banks: Sequence[Sequence[tuple[Tensor, Tensor]]], batch_sizes,
                residual: bool = False) -> Tensor:
    """Same-length 1-D convolution banks of packed rows, m per direction,
    each mapping d channels to d, followed by its bias and relu, and by the
    add of its input if residual.

    x: (T, D d), direction i's packed rows in its own columns, in the layout
    of batch_sizes (``_packed_sizes``); banks: per direction, m (filters
    (d, k, d), bias (d,)) of one shape, odd k. A row reads the steps of its
    sequence within (k-1)/2 of its own, and zeros past the sequence's ends
    (``_window``). Bank j of direction i fills columns (i m + j) d to
    (i m + j + 1) d of (T, D m d).

    A direction gathers its window rows once (im2col), then takes one matmul
    per bank. A window index is symmetric (p is in slot j of q exactly when
    q is in slot k-1-j of p), so dx is the same gather of the gradient times
    the tap-reversed filters: no scatter. The backward runs two passes per
    direction. The first forms each bank's relu gradient da and from it the
    bias and filter gradients, the last reads of the im2col buffer. The
    second, last bank first, adds the residual, forms da again, gathers it
    into the im2col buffer and adds its product with the bank's tap-reversed
    filter, formed in one buffer per direction, into dx. So besides its
    gradients the backward holds two (T, d) arrays and one filter per
    direction. Results are bit for bit those of the per-bank ops fused here.
    From ``_CONCURRENT_MATMUL_WORK`` multiply-adds per direction, direction 1
    runs on the worker thread, as in ``gru_scan``.
    """
    groups = [list(g) for g in banks]
    pairs = [pair for g in groups for pair in g]
    if not pairs or any(len(g) != len(groups[0]) for g in groups):
        raise ContractError("conv1d_same needs one or more banks, as many per direction")
    filters = pairs[0][0]
    if filters.ndim != 3:
        raise DimensionError(f"filters need rank 3, got shape {filters.shape}")
    d, k, d_in = filters.shape
    if k % 2 == 0:
        raise ConfigError(f"filter window must be odd and >= 1, got {k}")
    D, m = len(groups), len(groups[0])
    bad = [f.shape for f, b in pairs if f.shape != filters.shape or b.shape != (d,)]
    if bad or d_in != d or x.ndim != 2 or x.shape[1] != D * d:
        raise DimensionError(f"conv1d_same: input {x.shape} and banks of filters "
                             f"{(bad or [filters.shape])[0]} do not match for {D} directions "
                             "of square (d, k, d) banks")
    sizes = _packed_sizes("conv1d_same", batch_sizes)
    if (total := x.shape[0]) != sum(sizes):
        raise DimensionError(f"conv1d_same: {total} rows for batch_sizes of sum {sum(sizes)}")
    window = _window(sizes, k)
    concurrent = D > 1 and total * k * d * m * d >= _CONCURRENT_MATMUL_WORK
    relu, relu_grad = _POINTWISE["relu"]
    # Bank q = i m + j is bank j of direction i: its columns and its filters.
    cols = [slice(q * d, (q + 1) * d) for q in range(D * m)]
    f2s = [f.data.reshape(d, k * d) for f, _ in pairs]
    xs = [x.data[:, i * d:(i + 1) * d] for i in range(D)]
    out = np.empty((total, D * m * d))
    Y = np.empty_like(out) if residual else out  # the activations
    wins = [np.empty((total, k * d)) for _ in groups]
    pads = [np.empty((total + 1, d)) for _ in groups]

    # The loops below run numpy on arrays allocated here only.
    def im2col(rows, padded, win):
        padded[:total] = rows
        padded[total] = 0.0
        # The ids lie in [0, T], so "clip" clips nothing; it only spares
        # np.take a buffered copy of its output.
        np.take(padded, window, axis=0, out=win.reshape(total, k, d), mode="clip")

    def forward(i):
        im2col(xs[i], pads[i], wins[i])
        for q in range(i * m, (i + 1) * m):
            y = np.matmul(wins[i], f2s[q].T, out=Y[:, cols[q]])
            relu(np.add(y, pairs[q][1].data, out=y))
            if residual:
                np.add(y, xs[i], out=out[:, cols[q]])

    _run_loops([partial(forward, i) for i in range(D)], concurrent)

    x_shape = x.shape

    def apply(g, emit):
        dx = np.zeros(x_shape)
        d_fs, d_bs = [np.empty((d, k * d)) for _ in pairs], [np.empty(d) for _ in pairs]
        scratch = [(np.empty((total, d)), np.empty((total, d)), np.empty((k, d, d)))
                   for _ in groups]

        def backward(i):
            da, tmp, f_rev = scratch[i]
            for q in range(i * m, (i + 1) * m):
                relu_grad(g[:, cols[q]], Y[:, cols[q]], da, tmp)
                np.sum(da, axis=0, out=d_bs[q])
                np.matmul(da.T, wins[i], out=d_fs[q])
            # wins[i] is read no more: it takes the gradient's windows.
            dxi = dx[:, i * d:(i + 1) * d]
            # Last bank first, the order in which a tape reaches the per-bank
            # ops, so dx adds up in the same order. da is formed again: the
            # first pass could not keep it over g's columns, which the
            # residual add still reads.
            for q in reversed(range(i * m, (i + 1) * m)):
                if residual:
                    dxi += g[:, cols[q]]
                relu_grad(g[:, cols[q]], Y[:, cols[q]], da, tmp)
                im2col(da, pads[i], wins[i])
                # Tap-reversed filter: row (t, o) holds filter o's tap k-1-t.
                np.copyto(f_rev, pairs[q][0].data[:, ::-1].transpose(1, 0, 2))
                dxi += np.matmul(wins[i], f_rev.reshape(k * d, d), out=da)

        _run_loops([partial(backward, i) for i in range(D)], concurrent)
        for q, (d_f, d_b) in enumerate(zip(d_fs, d_bs)):
            emit(1 + 2 * q, d_f.reshape(filters.shape), owned=True)
            emit(2 + 2 * q, d_b, owned=True)
        emit(0, dx, owned=True)

    return _emit_op("conv1d_same", [x] + [t for pair in pairs for t in pair], Tensor(out),
                    apply)


def _matmuls(parts) -> None:
    """np.matmul(a, b, out=c) for each (a, b, c): numpy on arrays only."""
    for a, b, c in parts:
        np.matmul(a, b, out=c)


def _project_forward(x: Tensor, groups: list[list[Tensor]]) -> tuple[Array, Callable]:
    """Input projections of G column blocks of x, side by side, and their
    backward.

    x: (N, G c); groups: a group of (d_j, c) weights per block, of one set of
    shapes. Group i projects block i with one matmul against its weights
    stacked, [x_i W_i0^T | x_i W_i1^T | ...], into columns i s to (i + 1) s
    of the (N, G s) result, s = sum d_j. From ``_CONCURRENT_MATMUL_WORK``
    multiply-adds per half, the second half of the groups runs on the worker
    thread, forward and backward.

    Returns the result and ``backward(g, emit, at)``. That takes the result's
    gradient g, emits the gradient of the j-th weight of the flattened groups
    as input at + j, and returns the (N, G c) gradient of x. The backward
    holds x's blocks and the weights, not the result.
    """
    if not groups or not groups[0]:
        raise ContractError("a projection needs a group of one or more weights per block")
    shapes = [w.shape for w in groups[0]]
    G, width = len(groups), x.shape[-1] if x.ndim else 0
    c = width // G
    if (x.ndim != 2 or width % G or any(len(s) != 2 or s[1] != c for s in shapes)
            or any([w.shape for w in g] != shapes for g in groups)):
        raise DimensionError(f"projection: input {x.shape} (rank 2) does not chain with "
                             f"{G} groups of weights {[[w.shape for w in g] for g in groups]}")
    xs = [x.data[:, i * c:(i + 1) * c] for i in range(G)]
    mats = [np.concatenate([w.data for w in g]) if len(g) > 1 else g[0].data for g in groups]
    s = mats[0].shape[0]
    out = np.empty((len(x.data), G * s))
    concurrent = G > 1 and len(x.data) * width * s // 2 >= _CONCURRENT_MATMUL_WORK
    _run_loops(_halves([[(xi, w.T, out[:, i * s:(i + 1) * s])]
                        for i, (xi, w) in enumerate(zip(xs, mats))]), concurrent)
    return out, partial(_project_backward, xs, mats, shapes, concurrent)


def _project_backward(xs, mats, shapes, concurrent, g, emit, at, dx=None) -> Array:
    """The backward of a projection, writing x's gradient into dx if given;
    see ``_project_forward``."""
    G, (s, c) = len(mats), mats[0].shape
    dx = np.empty((len(g), G * c)) if dx is None else dx
    d_ws = [np.empty((s, c)) for _ in mats]
    parts = [[(g[:, i * s:(i + 1) * s], w, dx[:, i * c:(i + 1) * c]),
              (g[:, i * s:(i + 1) * s].T, xi, d_w)]
             for i, (xi, w, d_w) in enumerate(zip(xs, mats, d_ws))]
    _run_loops(_halves(parts), concurrent)
    ends = np.cumsum([w[0] for w in shapes])
    for i, d_w in enumerate(d_ws):
        for j, (e, w) in enumerate(zip(ends, shapes)):
            emit(at + i * len(shapes) + j, d_w[e - w[0]:e], owned=len(shapes) == 1)
    return dx


def _halves(parts) -> list[Callable[[], None]]:
    """Two loops of matmuls, given each group's list of (a, b, out): the
    first half of the groups', then the rest's."""
    half = (len(parts) + 1) // 2
    return [partial(_matmuls, sum(parts[:half], [])), partial(_matmuls, sum(parts[half:], []))]


def dense(x: Tensor, W: Tensor, b: Tensor, activation: str) -> Tensor:
    """activation(x W^T + b), (N, d_in) -> (N, d_out), as one node: the
    product is ``_project_forward(x, [[W]])``, the bias is added in place and
    the activation applied in place, as ``conv1d_same`` applies its own. The
    pre-activation must be finite: a sigmoid would map an overflow to 1."""
    if activation not in _POINTWISE:
        raise ConfigError(f"unknown activation {activation!r}")
    y, project_backward = _project_forward(x, [[W]])
    if b.shape != (W.shape[0],):
        raise DimensionError(f"dense: bias {b.shape} does not match weights {W.shape}")
    y += b.data
    if not np.all(np.isfinite(y)):
        raise NumericError("dense layer's pre-activation holds non-finite entries")
    act, act_grad = _POINTWISE[activation]
    out = Tensor(act(y))

    def apply(g, emit):
        da = act_grad(g, y, np.empty(y.shape), np.empty(y.shape))
        emit(2, lambda: da.sum(axis=0), owned=True)
        emit(0, project_backward(da, emit, 1), owned=True)

    return _emit_op("dense", (x, W, b), out, apply)


# gru_scan runs its directions concurrently only when one step's h U^T has at
# least this many multiply-adds, k_0 d_h^2. numpy's ufunc loops release the
# GIL only over more than 500 elements (NPY_BEGIN_THREADS_THRESHOLDED in
# numpy/_core/include/numpy/ndarraytypes.h), so at k_0 d_h <= 500 nearly every
# op of a loop holds it, and a second thread can only wait. Above that, each
# op that releases it hands the GIL between the threads, which pays only when
# the step's matmuls outweigh its ~20 elementwise ops. On a 2-CPU VM, whole
# gru training steps at hidden widths 32-256 took 1.0-2.1 times as long
# concurrently as in turn below 2^19, and 0.77-1.02 times as long from it up.
_CONCURRENT_STEP_WORK = 2 ** 19

# Projections and conv1d_same run their directions concurrently from this many
# multiply-adds on each thread. On a 2-CPU VM their forward and backward took
# 0.82-2.3 times as long as in turn below 2^22 and 0.55-0.94 from it up, but
# with 2^22 single requests of 12-60 tokens at width 200 took up to 1.6 times
# as long end to end: a late wake-up of the worker costs milliseconds. From
# 2^25 an op's forward and backward take over ~20 ms, and no such request does.
_CONCURRENT_MATMUL_WORK = 2 ** 25

# The one worker thread that runs a direction's numpy beside the calling
# thread; the executor starts it on the first submit.
_WORKER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cru-worker")


def _run_loops(loops: Sequence[Callable[[], None]], concurrent: bool) -> None:
    """Run every loop: the first on this thread and the rest on the worker if
    concurrent, otherwise one after another on this thread. The worker runs
    each loop in a copy of this thread's context, so numpy's error state
    (``np.errstate``) is the same on both threads."""
    if not concurrent:
        for loop in loops:
            loop()
        return
    pending = [_WORKER.submit(contextvars.copy_context().run, loop) for loop in loops[1:]]
    try:
        loops[0]()
    finally:
        # The worker's loops write arrays that this thread hands on, so they
        # must finish even when this thread's loop failed.
        wait(pending)
    for future in pending:
        future.result()


def _scan_forward(P, u_zr_t, u_t, b_zr, b_g, H0, A, steps, zr_buf, g_buf, rh_buf, tmp_buf):
    """One direction's forward loop of ``gru_scan``: numpy on arrays only.

    H0: (b + T, d_h), whose first b rows are the zero state h_{-1}; the loop
    writes every h_t into the rows after them, and every [z | r | g] into A,
    this direction's columns of the gate array.
    """
    d_h = u_t.shape[0]
    zr_cols, h_cols = slice(0, 2 * d_h), slice(2 * d_h, None)
    H = H0[len(H0) - len(P):]
    # The z and r columns sit side by side, so one sigmoid covers both gates.
    # Each step works through out= in (k_t, .) prefixes of the buffers, where
    # an op costs a third as much as on a fresh array.
    for k, lo, prev in steps:
        hi = lo + k
        h, h_t = H0[prev:prev + k], H[lo:hi]
        a_zr, g, tmp = zr_buf[:k], g_buf[:k], tmp_buf[:k]
        np.matmul(h, u_zr_t, out=a_zr)
        a_zr += P[lo:hi, zr_cols]
        a_zr += b_zr
        zr = A[lo:hi, zr_cols] = _sigmoid(a_zr)
        z = zr[:, :d_h]
        np.matmul(np.multiply(zr[:, d_h:], h, out=rh_buf[:k]), u_t, out=g)
        g += P[lo:hi, h_cols]
        g += b_g
        A[lo:hi, h_cols] = np.tanh(g, out=g)
        g *= np.subtract(1.0, z, out=tmp)
        np.add(np.multiply(h, z, out=h_t), g, out=h_t)  # z * h + (1 - z) * g


def _scan_backward(gout, A, H0, u_zr, u, steps, d_u, d_b, H_prev, dh_buf, zr_buf, d_rh_buf,
                   tmp_buf, c_buf):
    """One direction's backward loop of ``gru_scan``: numpy on arrays only.

    Step t reads its rows of A, [z | r | g], and then writes the gradients at
    the gates' pre-activations over them, so A ends holding this direction's
    columns of dP. Its rows of gout, once added into dh, take r * h_{t-1}, and
    H_prev's take h_{t-1}: the two T-row operands of the weight gradients of
    [U_z; U_r; U] and [b_z | b_r | b_h], formed into d_u and d_b after the
    loop. H_prev may be H0's rows after its first b, the states themselves:
    step t writes block t, which only step t + 1 reads, from block t - 1.
    dh_buf starts at zero.
    """
    d_h = u.shape[0]
    zr_cols, h_cols = slice(0, 2 * d_h), slice(2 * d_h, None)
    for k, lo, prev in reversed(steps):
        hi = lo + k
        da = A[lo:hi]
        g = da[:, h_cols]  # read before da_g overwrites it
        da_zr, da_z, da_r, da_g = (da[:, zr_cols], da[:, :d_h], da[:, d_h:2 * d_h],
                                   da[:, h_cols])
        zr = zr_buf[:k]
        zr[...] = da_zr
        z, r = zr[:, :d_h], zr[:, d_h:]
        h, rh = H_prev[lo:hi], gout[lo:hi]
        h[...] = H0[prev:prev + k]
        # Rows k_{t+1}..k_t end at step t, so their dh is still zero here.
        dh, tmp, d_rh = dh_buf[:k], tmp_buf[:k], d_rh_buf[:k]
        dh += rh
        np.multiply(np.subtract(1.0, z, out=tmp), dh, out=tmp)
        np.multiply(np.subtract(h, g, out=da_z), dh, out=da_z)
        np.subtract(1.0, np.multiply(g, g, out=da_g), out=da_g)
        np.matmul(np.multiply(tmp, da_g, out=da_g), u, out=d_rh)  # at r * h
        np.multiply(d_rh, h, out=da_r)
        np.multiply(h, r, out=rh)  # r * h_{t-1}, which U multiplies
        da_zr *= zr
        da_zr *= np.subtract(1.0, zr, out=c_buf[:k])
        dh *= z
        dh += np.multiply(d_rh, r, out=tmp)
        dh += np.matmul(da_zr, u_zr, out=tmp)
    np.matmul(A[:, zr_cols].T, H_prev, out=d_u[:2 * d_h])
    np.matmul(A[:, h_cols].T, gout, out=d_u[2 * d_h:])
    np.sum(A, axis=0, out=d_b)


_SCAN_INPUTS = ("U_z", "U_r", "U", "b_z", "b_r", "b_h")


def _sole_refcount() -> int:
    """What ``sys.getrefcount`` reads of an array that only a closure's cell
    holds, read in the closure as ``gru_scan``'s backward reads its states.
    The reading is the interpreter's: a call's own references differ between
    versions (one that borrows its operands reads lower)."""
    H0 = np.empty(0)

    def probe():
        nonlocal H0
        return sys.getrefcount(H0)

    return probe()


_SOLE_REFCOUNT = _sole_refcount()


def gru_scan(x: Tensor, directions: Sequence[Sequence[Tensor]], batch_sizes,
             weights: Sequence[Sequence[Tensor]] | None = None) -> Tensor:
    """The GRU recurrence of one or more directions over packed gate inputs,
    as one tape node.

    The gate inputs P are x itself or, given weights, x's projections
    (``_project_forward(x, weights)``), formed here (gru and shallow pass one
    group [W_z, W_r, W] per direction, deep_enhanced three groups of one).
    Then neither P nor its gradient dP reaches a tape.

    P: (T, D 3 d_h), direction i's [P_z | P_r | P_h] in columns 3 i d_h to
    3 (i + 1) d_h, in the packed layout of batch_sizes (``_packed_sizes``).
    directions: one (U_z, U_r, U, b_z, b_r, b_h) per direction, of one width
    d_h; U_*: (d_h, d_h); b_*: (d_h,). From h_{-1} = 0, each row computes

      z = sigmoid(P_z,t + h U_z^T + b_z),  r = sigmoid(P_r,t + h U_r^T + b_r)
      g = tanh(P_h,t + (r * h) U^T + b_h),  h_t = z * h + (1 - z) * g

    and the result holds every h_t side by side, (T, D d_h), direction i's
    in columns i d_h to (i + 1) d_h. Both gates that read h_{t-1} share one
    (d_h, 2 d_h) matmul, and h_{t-1} is the first k_t rows of the block
    before, so every step reads and writes contiguous blocks. The forward
    keeps every row's [z | r | g] in one (T, D 3 d_h) gate array, in P's
    column layout: P itself when P is formed here, as each step reads its
    rows of P before it writes theirs of the gates, and a new array when P is
    x.

    Backward is a reverse loop that carries dh through two small matmuls per
    step and writes each step's gate gradients over its rows of the gate
    array, which then is dP: it goes to the projection's backward for the
    gradients of x and of the weights, and is freed, or is x's gradient
    itself. The weight and bias gradients are formed after the loop, each one
    T-row matmul or sum, over two T-row operands that need no array of their
    own: r * h_{t-1} goes into the upstream gradient's rows once they are
    added in, and h_{t-1} into the states' block t, which is dead once step
    t + 1 has read it. The states are written only once the caller holds
    neither the result nor any view of it; while it does, h_{t-1} goes into a
    new array. x's gradient then goes over the upstream gradient where it
    fits (gru and shallow, whose x is D d wide, with d <= d_h), and into a new
    array where it does not (deep_enhanced, 3 D d). So the backward consumes
    the gates, the states and the upstream gradient, and the states go before
    x's gradient is formed.

    When the first step's h U^T has at least ``_CONCURRENT_STEP_WORK``
    multiply-adds, direction 0's loops run on the calling thread and the
    others' on the worker thread, forward and backward, in numpy and BLAS
    calls that release the GIL. Every array the loops write is allocated here
    first. Each direction's arithmetic is the same either way, and so are the
    results.
    """
    directions = [tuple(d) for d in directions]
    if not directions or any(len(d) != len(_SCAN_INPUTS) for d in directions):
        raise ContractError(f"gru_scan: each direction needs {', '.join(_SCAN_INPUTS)}")
    sizes = _packed_sizes("gru_scan", batch_sizes)
    b, total, D = sizes[0], sum(sizes), len(directions)
    d_h = directions[0][2].shape[0] if directions[0][2].ndim == 2 else -1
    shapes = ((d_h, d_h),) * 3 + ((d_h,),) * 3
    for i, direction in enumerate(directions):
        for name, t, shape in zip(_SCAN_INPUTS, direction, shapes):
            if t.shape != shape:
                raise DimensionError(f"gru_scan: direction {i}'s {name} must have shape "
                                     f"{shape}, got {t.shape}")
    groups = [] if weights is None else [list(g) for g in weights]
    P, project_backward = (x.data, None) if weights is None else _project_forward(x, groups)
    if P.shape != (total, D * 3 * d_h):
        raise DimensionError(f"gru_scan: P must have shape {(total, D * 3 * d_h)} for {D} "
                             f"directions of width {d_h}, got {P.shape}")
    # Block t starts at starts[t]; the block before it starts at prevs[t] of
    # H0, whose first b rows are the zero state h_{-1}.
    starts = list(accumulate(sizes[:-1], initial=0))
    prevs = [0] + [b + s for s in starts[:-1]]
    steps = list(zip(sizes, starts, prevs))
    concurrent = D > 1 and b * d_h * d_h >= _CONCURRENT_STEP_WORK
    cols = [slice(i * d_h, (i + 1) * d_h) for i in range(D)]
    gates = [slice(3 * i * d_h, 3 * (i + 1) * d_h) for i in range(D)]
    u_zrs = [np.concatenate([d[0].data, d[1].data]) for d in directions]  # (2 d_h, d_h)
    us = [d[2].data for d in directions]
    # Each direction writes its states and its [z | r | g] straight into its
    # own columns of H0 and of the gate array A. Step t reads its rows of P
    # before it writes theirs of A, so a P formed here becomes A; x itself is
    # never written.
    H0 = np.empty((b + total, D * d_h))
    H0[:b] = 0.0
    A = np.empty((total, D * 3 * d_h)) if project_backward is None else P
    _run_loops([partial(_scan_forward, P[:, gates[i]], u_zrs[i].T, us[i].T,
                        np.concatenate([d[3].data, d[4].data]), d[5].data,
                        H0[:, cols[i]], A[:, gates[i]], steps, np.empty((b, 2 * d_h)),
                        *(np.empty((b, d_h)) for _ in range(3)))
                for i, d in enumerate(directions)], concurrent)

    width = 0 if project_backward is None else x.shape[-1]

    def apply(gout, emit):
        nonlocal H0
        # Block t of the states is dead once reverse step t+1 has read it, so
        # each step writes its h_{t-1} rows there, unless anything still
        # reads the states. Every view of them (the output's data, a reshape
        # of it) has H0 as its base, so H0 has no reference beyond this
        # closure's only once all of them are gone: then its count reads as
        # the probe's does.
        H_prev = (H0[b:] if sys.getrefcount(H0) == _SOLE_REFCOUNT
                  else np.empty((total, D * d_h)))
        grads = [(np.empty((3 * d_h, d_h)), np.empty(3 * d_h)) for _ in directions]
        _run_loops([partial(_scan_backward, gout[:, cols[i]], A[:, gates[i]], H0[:, cols[i]],
                            u_zrs[i], us[i], steps, *grads[i], H_prev[:, cols[i]],
                            np.zeros((b, d_h)), np.empty((b, 2 * d_h)), np.empty((b, d_h)),
                            np.empty((b, d_h)), np.empty((b, 2 * d_h))) for i in range(D)],
                   concurrent)
        H0 = H_prev = None
        for i, (d_u, d_b) in enumerate(grads):
            at = 1 + i * len(_SCAN_INPUTS)
            for j in range(3):
                emit(at + j, d_u[j * d_h:(j + 1) * d_h])
                emit(at + 3 + j, d_b[j * d_h:(j + 1) * d_h])
        # A is now dP, handed over without a copy, so only once nothing here
        # reads it. A dP formed from x's gradient is freed with this node.
        # gout, whose rows hold r * h_{t-1}, is dead by then: x's gradient
        # goes over it where it fits.
        fits = gout.flags.c_contiguous and gout.size >= total * width
        dx = gout.reshape(-1)[:total * width].reshape(total, width) if fits else None
        emit(0, A if project_backward is None
             else project_backward(A, emit, 1 + D * len(_SCAN_INPUTS), dx), owned=True)

    return _emit_op("gru_scan", [x] + [t for d in directions for t in d]
                    + [w for g in groups for w in g], Tensor(H0[b:]), apply)


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_param: dict[str, float]
    max_rel_err: float
    passed: bool


def _scalar(v) -> float:
    return v.item() if isinstance(v, Tensor) else float(v)


def finite_diff_gradcheck(f, params: dict[str, Tensor], h: float = 1e-5,
                          tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    f is a zero-argument callable evaluating the loss from the current values
    of params; it must be deterministic, so disable dropout before checking.
    Relative error per entry is |a - b| / max(|a|, |b|, floor). Each f(p ± h)
    is rounded to units in the last place of the loss, about eps·|loss|, so a
    central difference carries about eps·|loss|/(2h) of roundoff per unit in
    the last place. The floor is the magnitude at which four such units are a
    relative error of 1e-4, the contract's bound: 2·eps·|loss|/(h·1e-4), and
    at least 1e-8. Above it, every entry is held to tol relative to itself;
    below it, to tol relative to the floor. The floor does not move with tol,
    so a tighter tol tightens every entry.
    """
    if not 0 < h < np.inf:
        raise ConfigError(f"finite-difference step must be positive and finite, got {h}")
    if not 0 < tol < np.inf:
        raise ConfigError(f"gradcheck tolerance must be positive and finite, got {tol}")

    base1, base2 = _scalar(f()), _scalar(f())
    if base1 != base2:
        raise ContractError(
            f"f is not deterministic: baseline evaluations differ ({base1!r} vs {base2!r})"
        )

    for p in params.values():
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        if not isinstance(loss, Tensor):
            raise ContractError("f must return a Tensor built from recorded ops")
        tape.backward(loss)

    floor = max(2.0 * np.finfo(np.float64).eps * abs(base1) / (h * 1e-4), 1e-8)
    per_param: dict[str, float] = {}
    for name, p in params.items():
        analytic = np.asarray(p.grad) if p.grad is not None else np.zeros_like(p.data)
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = _scalar(f())
            flat[i] = orig - h
            f_minus = _scalar(f())
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
        per_param[name] = float(np.max(np.abs(analytic - numeric) / denom))

    max_rel = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(per_param=per_param, max_rel_err=max_rel, passed=max_rel < tol)
