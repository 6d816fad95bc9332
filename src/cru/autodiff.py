"""Dense float64 tensors with tape-based reverse-mode differentiation.

Ops executed while a ``Tape`` is active are recorded as an append-only list
of nodes; ``Tape.backward`` walks that list in reverse, so every gradient is
finalized before any consumer reads it. With no active tape the same ops run
as plain numpy forward computations, which is what evaluation and the
finite-difference oracle use.

A tape and its tensors are a single-threaded unit of work; the active-tape
stack is thread-local, so distinct tapes may run on distinct threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
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

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NumericError("tensor holds non-finite entries")
        self.requires_grad = requires_grad
        self.grad: Array | None = None

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

    # Small operator sugar; floats are wrapped as constant scalars.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)


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
    nid: int
    op: str
    input_ids: tuple
    tensor: Tensor
    apply: Callable | None  # apply(grad_out, emit); None for leaves


class Tape:
    """Append-only computation record for one reverse pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._ids: dict[int, int] = {}  # id(tensor) -> node id

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _stack().pop()
        if popped is not self:
            raise ContractError("tape context exited out of order")
        return False

    def _node_id(self, t: Tensor) -> int | None:
        nid = self._ids.get(id(t))
        if nid is None and t.requires_grad:
            nid = len(self.nodes)
            self.nodes.append(Node(nid, "leaf", (), t, None))
            self._ids[id(t)] = nid
        return nid

    def watches(self, t: Tensor) -> bool:
        return id(t) in self._ids or t.requires_grad

    def record(self, op: str, inputs: Sequence[Tensor], out: Tensor, apply: Callable) -> None:
        input_ids = tuple(self._node_id(t) for t in inputs)
        nid = len(self.nodes)
        # Append-only construction keeps the list topologically ordered.
        assert all(i is None or i < nid for i in input_ids)
        self.nodes.append(Node(nid, op, input_ids, out, apply))
        self._ids[id(out)] = nid

    def backward(self, loss: Tensor) -> None:
        """Populate .grad for every requires_grad tensor reachable from loss.

        Gradients accumulate across calls; reset with zero_grad between steps.
        """
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss_nid = self._ids.get(id(loss))
        if loss_nid is None:
            # The loss is an unrecorded leaf; dL/dL = 1 is the only gradient.
            if loss.requires_grad:
                seed = np.ones_like(loss.data)
                loss.grad = seed if loss.grad is None else loss.grad + seed
            return

        nodes = self.nodes
        buf: list[Array | None] = [None] * len(nodes)
        buf[loss_nid] = np.ones_like(loss.data)

        for node in reversed(nodes):
            g = buf[node.nid]
            if g is None:
                continue  # not reachable backward from the loss
            t = node.tensor
            if t.requires_grad:
                # g is a fresh buffer this pass owns, so the leaf can keep it.
                t.grad = g if t.grad is None else t.grad + g
            if node.apply is not None:
                input_ids = node.input_ids

                def emit(i: int, grad, rows=None, where=None) -> None:
                    nid = input_ids[i]
                    if nid is None:
                        return  # constant input
                    cur = buf[nid]
                    if cur is None:
                        cur = buf[nid] = np.zeros_like(nodes[nid].tensor.data)
                    if rows is not None:
                        np.add.at(cur, rows, grad)
                    elif where is not None:
                        cur[where] += grad
                    else:
                        cur += grad

                node.apply(g, emit)
            buf[node.nid] = None

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

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    out = Tensor(a.data @ b.data)

    def apply(g, emit):
        emit(0, g @ b.data.T)
        emit(1, a.data.T @ g)

    return _emit_op("matmul", (a, b), out, apply)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise DimensionError(f"transpose needs rank 2, got shape {x.shape}")
    out = Tensor(x.data.T.copy())

    def apply(g, emit):
        emit(0, g.T)

    return _emit_op("transpose", (x,), out, apply)


def _check_elementwise(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} differ "
            "(only scalar-with-tensor broadcast is supported)"
        )


def _reduce_to(g: Array, shape: tuple[int, ...]) -> Array:
    # Undo scalar broadcast by total reduction; identity otherwise.
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise("add", a, b)
    out = Tensor(a.data + b.data)

    def apply(g, emit):
        emit(0, _reduce_to(g, a.shape))
        emit(1, _reduce_to(g, b.shape))

    return _emit_op("add", (a, b), out, apply)


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise("sub", a, b)
    out = Tensor(a.data - b.data)

    def apply(g, emit):
        emit(0, _reduce_to(g, a.shape))
        emit(1, _reduce_to(-g, b.shape))

    return _emit_op("sub", (a, b), out, apply)


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _check_elementwise("mul", a, b)
    out = Tensor(a.data * b.data)

    def apply(g, emit):
        emit(0, _reduce_to(g * b.data, a.shape))
        emit(1, _reduce_to(g * a.data, b.shape))

    return _emit_op("mul", (a, b), out, apply)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    out = Tensor(np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))
    y = out.data

    def apply(g, emit):
        emit(0, g * y * (1.0 - y))

    return _emit_op("sigmoid", (x,), out, apply)


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.data))
    y = out.data

    def apply(g, emit):
        emit(0, g * (1.0 - y * y))

    return _emit_op("tanh", (x,), out, apply)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    # Subgradient at 0 is defined as 0.
    mask = x.data > 0.0

    def apply(g, emit):
        emit(0, g * mask)

    return _emit_op("relu", (x,), out, apply)


def identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "identity": identity,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "relu": relu,
}


def activation(kind: str, x: Tensor) -> Tensor:
    if kind not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {kind!r}")
    return ACTIVATIONS[kind](x)


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise NumericError("log needs strictly positive input")
    out = Tensor(np.log(x.data))

    def apply(g, emit):
        emit(0, g / x.data)

    return _emit_op("log", (x,), out, apply)


def clip_values(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp entries to [lo, hi]; gradient passes only where unclamped."""
    out = Tensor(np.clip(x.data, lo, hi))
    mask = (x.data > lo) & (x.data < hi)

    def apply(g, emit):
        emit(0, g * mask)

    return _emit_op("clip", (x,), out, apply)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.sum(x.data))

    def apply(g, emit):
        emit(0, np.broadcast_to(g, x.shape))

    return _emit_op("sum_all", (x,), out, apply)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(np.mean(x.data))
    n = x.size

    def apply(g, emit):
        emit(0, np.broadcast_to(g / n, x.shape))

    return _emit_op("mean_all", (x,), out, apply)


def reshape(x: Tensor, shape) -> Tensor:
    out = Tensor(np.reshape(x.data, shape))
    orig = x.shape

    def apply(g, emit):
        emit(0, g.reshape(orig))

    return _emit_op("reshape", (x,), out, apply)


def concat_rows(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate along the leading axis; trailing dims must agree."""
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ContractError("concat_rows needs at least one part")
    first = parts[0]
    for p in parts[1:]:
        if p.ndim != first.ndim or p.shape[1:] != first.shape[1:]:
            raise DimensionError(
                f"concat_rows: trailing dims differ, {first.shape} vs {p.shape}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    sizes = [p.shape[0] for p in parts]

    def apply(g, emit):
        at = 0
        for i, n in enumerate(sizes):
            emit(i, g[at:at + n])
            at += n

    return _emit_op("concat_rows", parts, out, apply)


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
    """Gather rows of a matrix; backward accumulates into duplicate rows."""
    if x.ndim != 2:
        raise DimensionError(f"take_rows needs rank 2, got shape {x.shape}")
    idx = np.asarray(ids, dtype=np.intp).reshape(-1)
    if idx.size == 0:
        raise ContractError("take_rows needs at least one index")
    if np.any(idx < 0) or np.any(idx >= x.shape[0]):
        bad = idx[(idx < 0) | (idx >= x.shape[0])][0]
        raise IndexError(f"row id {bad} out of range [0, {x.shape[0]})")
    out = Tensor(x.data[idx])

    def apply(g, emit):
        emit(0, g, rows=idx)

    return _emit_op("take_rows", (x,), out, apply)


def time_step(x: Tensor, t: int) -> Tensor:
    """Select step t along the time axis: (B, n, d) -> (B, d)."""
    if x.ndim != 3:
        raise DimensionError(f"time_step needs rank 3, got shape {x.shape}")
    n = x.shape[1]
    if not 0 <= t < n:
        raise IndexError(f"step {t} out of range [0, {n})")
    where = (slice(None), t)
    out = Tensor(x.data[where])

    def apply(g, emit):
        emit(0, g, where=where)

    return _emit_op("time_step", (x,), out, apply)


def bias_add(x: Tensor, v: Tensor) -> Tensor:
    """Add a rank-1 vector to every row (last-axis slice) of x."""
    if v.ndim != 1 or x.shape[-1] != v.shape[0]:
        raise DimensionError(f"bias_add: shapes {x.shape} and {v.shape} do not align")
    out = Tensor(x.data + v.data)

    def apply(g, emit):
        emit(0, g)
        emit(1, g.reshape(-1, v.shape[0]).sum(axis=0))

    return _emit_op("bias_add", (x, v), out, apply)


def conv1d_same(x: Tensor, filters: Tensor) -> Tensor:
    """Same-length 1-D convolution over the time axis with full-width filters.

    x: (B, n, d_in); filters: (d_out, k, d_in) with odd k. Each sequence is
    zero-padded by (k-1)/2 steps on each end, so the output has exactly n
    steps. No bias, no nonlinearity.
    """
    if filters.ndim != 3:
        raise DimensionError(f"filters need rank 3, got shape {filters.shape}")
    d_out, k, d_in = filters.shape
    if k % 2 == 0 or k < 1:
        raise ConfigError(f"filter window must be odd and >= 1, got {k}")
    if x.ndim != 3 or x.shape[-1] != d_in:
        raise DimensionError(
            f"conv1d_same: input shape {x.shape} does not match filters {filters.shape}"
        )
    b, n, _ = x.shape
    if n < 1:
        raise ContractError("conv1d_same needs at least one step")
    pad = (k - 1) // 2

    # im2col: row (b, i) of win holds the k padded steps around step i, in
    # the (j, c) order of filters.reshape, so one matmul does the whole conv.
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

    return _emit_op("conv1d_same", (x, filters), out, apply)


# --------------------------------------------------------------------------
# Finite-difference oracle
# --------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    tol: float
    h: float
    per_param: dict[str, float]
    max_rel_err: float
    passed: bool

    def worst(self) -> str:
        if not self.per_param:
            return "<no parameters>"
        return max(self.per_param, key=self.per_param.get)


def _scalar(v) -> float:
    return v.item() if isinstance(v, Tensor) else float(v)


def finite_diff_gradcheck(f, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    f is a zero-argument callable evaluating the loss from the current values
    of params (a dict or sequence of (name, Tensor)); it must be deterministic,
    so disable dropout before checking. Relative error per entry is
    |a - b| / max(|a|, |b|, 1e-8).
    """
    if h <= 0:
        raise ConfigError(f"finite-difference step must be positive, got {h}")
    items = list(params.items()) if isinstance(params, dict) else list(params)

    base1, base2 = _scalar(f()), _scalar(f())
    if base1 != base2:
        raise ContractError(
            f"f is not deterministic: baseline evaluations differ ({base1!r} vs {base2!r})"
        )

    for _, p in items:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
        if not isinstance(loss, Tensor):
            raise ContractError("f must return a Tensor built from recorded ops")
        tape.backward(loss)

    per_param: dict[str, float] = {}
    for name, p in items:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
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
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        per_param[name] = float(np.max(np.abs(analytic - numeric) / denom))

    max_rel = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(tol=tol, h=h, per_param=per_param,
                           max_rel_err=max_rel, passed=max_rel < tol)
