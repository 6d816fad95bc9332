"""Adam with global-norm clipping and L2 terms, in two sweeps over blocks of
``BLOCK_ROWS`` leading rows, so that a block's temporaries stay in cache (Lam,
Rothberg & Wolf, ASPLOS 1991): the norm pass, ``clip_gradients``, and the
update pass, ``step`` (Kingma & Ba, arXiv:1412.6980).

Both sweeps read each gradient block, with its L2 term added, through one
block rule, ``_Grad.block``, at the same coefficient. The norm pass writes
into no gradient, and a ``RowGrad`` (the embedding table's gradient) is never
made dense.

A sweep's work units are the blocks of every parameter that has a gradient,
in order. From ``_CONCURRENT_SWEEP_BLOCK`` elements per block on average, the
calling thread runs the units up to the one where their running element count
reaches half the total, and the ``autodiff`` worker thread runs the rest
(``autodiff._run_loops``). A block's update is elementwise, and the calling
thread adds the norm pass's per-block terms in block order, so either split
gives the same bits. The worker runs numpy on arrays only: every scratch
buffer is allocated on the calling thread, and only that thread calls
``l2_penalty`` or any other function a tracer may wrap.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .autodiff import RowGrad, Tensor, _run_loops
from .errors import ConfigError, ContractError, NumericError

BLOCK_ROWS = 256

# Adam's moment decay rates and denominator floor. They are fixed: a
# checkpoint's optimizer state does not store them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# The sweeps split their blocks between the two threads when the blocks hold
# at least this many elements on average. Each numpy call takes the GIL, and a
# thread that has to wait for it pays a hand-over, so a split pays only where
# the calls are long; one block's calls are the same few for any size, so the
# gain against that cost grows with the mean block. Norm pass plus step of
# gru-shaped parameters (a V x d table with a RowGrad and an L2 term, twelve
# d x d matrices, a 4d x 2d head; V = 50-18,284, d = 8-200) took 0.67-0.89
# times as long split as in turn at means of 2^14 elements and up (18,296-
# 44,596, d = 96-200), and 0.84-2.16 times below it (78-15,134, d = 8-128;
# over 1 at every mean up to 11,015), on a 2-CPU VM with BLAS on one thread.
_CONCURRENT_SWEEP_BLOCK = 2 ** 14


class _Grad:
    """One parameter's gradient plus its L2 term, g + 2 lam W, read by blocks
    of BLOCK_ROWS leading rows (a scalar is one block)."""

    def __init__(self, grad: np.ndarray | RowGrad, weights: np.ndarray, lam: float):
        self.weights, self.lam = np.atleast_1d(weights), lam
        self.blocks = -(-len(self.weights) // BLOCK_ROWS)
        self.row_size = self.weights[:1].size
        self.sparse = isinstance(grad, RowGrad)
        # Only a dense gradient at lam = 0 is read in place.
        self.formed = self.sparse or lam > 0
        if self.sparse:
            self.cuts = np.searchsorted(grad.ids, np.arange(self.blocks + 1) * BLOCK_ROWS)
            self.ids, self.rows = grad.ids % BLOCK_ROWS, grad.rows
        else:
            self.dense = np.atleast_1d(grad)

    def size(self, i: int) -> int:
        return min(BLOCK_ROWS, len(self.weights) - i * BLOCK_ROWS) * self.row_size

    def block(self, i: int, buf: np.ndarray) -> np.ndarray:
        """Block i of g + 2 lam W. A dense g at lam = 0 is its own block.
        Every other block is formed in buf, which the next block overwrites:
        2 lam W_i (zeros at lam = 0), then the block's gradient added, its
        dense rows or a RowGrad's rows. Training runs the dense-with-L2 path
        on no tensor (the table, the one tensor with an L2 term, has a
        RowGrad), but it stays as the reference that
        test_classifier::test_row_gradient_steps_equal_dense_gradient_steps
        holds the RowGrad path to, bit for bit."""
        s = i * BLOCK_ROWS
        if not self.formed:
            return self.dense[s:s + BLOCK_ROWS]
        wb = self.weights[s:s + BLOCK_ROWS]
        gb = buf[:wb.size].reshape(wb.shape)
        if self.lam > 0:
            np.multiply(wb, 2.0 * self.lam, out=gb)
        else:
            gb.fill(0.0)
        if self.sparse:
            lo, hi = self.cuts[i], self.cuts[i + 1]
            gb[self.ids[lo:hi]] += self.rows[lo:hi]
        else:
            gb += self.dense[s:s + BLOCK_ROWS]
        return gb


def _l2_term(weights: np.ndarray, lam: float) -> float:
    return lam * float(np.vdot(weights, weights))


def l2_penalty(weights: np.ndarray, lam: float) -> float:
    """lam * ||weights||^2. The norm pass calls it per block on the calling
    thread; the worker's blocks take the same term from ``_l2_term``, which
    no tracer wraps."""
    return _l2_term(weights, lam)


def _sweep(loop, units: list, scratch: int, *args, **kwargs) -> None:
    """Run loop(half, g_buf, *buffers, *args, calling, **kwargs) over units,
    a list of (grad, i, ...) in block order: all of them on the calling
    thread or, from _CONCURRENT_SWEEP_BLOCK elements per block on average,
    those up to the one where the running element count reaches half the
    total there and the rest on the worker. Each half gets its own scratch,
    made here: g_buf for the blocks it forms, and ``scratch`` buffers the
    size of its largest block. ``calling`` is True for the calling thread's
    half."""
    sizes = [g.size(i) for g, i, *_ in units]
    cut = len(units)
    if cut > 1 and sum(sizes) >= _CONCURRENT_SWEEP_BLOCK * cut:
        cut = int(np.searchsorted(np.cumsum(sizes), sum(sizes) / 2)) + 1
    loops = []
    for lo, hi in ((0, cut), (cut, len(units))):
        if lo == hi:
            continue
        formed = max((n for n, (g, *_) in zip(sizes[lo:hi], units[lo:hi]) if g.formed),
                     default=0)
        loops.append(partial(loop, units[lo:hi], np.empty(formed),
                             *(np.empty(max(sizes[lo:hi])) for _ in range(scratch)), *args,
                             calling=not loops, **kwargs))
    _run_loops(loops, len(loops) > 1)


def _norm_loop(units, buf, sq_norms, terms, calling):
    """The norm pass over units: each block's squared norm into sq_norms and,
    where lam > 0, its L2 term into terms, at the unit's k: units are
    (grad, i, k)."""
    term = l2_penalty if calling else _l2_term
    for g, i, k in units:
        gb = g.block(i, buf)
        if g.lam > 0:
            terms[k] = term(g.weights[i * BLOCK_ROWS:(i + 1) * BLOCK_ROWS], g.lam)
        sq_norms[k] = float(np.vdot(gb, gb))


def _update_loop(units, g_buf, a_buf, c_buf, calling, scale, lr, c1, c2):
    """The update pass over units, (grad, i, m, v): Adam's step on each
    block, its gradient scaled first."""
    for g, i, m, v in units:
        gb = g.block(i, g_buf)
        rows = slice(i * BLOCK_ROWS, (i + 1) * BLOCK_ROWS)
        mb, vb, wb = m[rows], v[rows], g.weights[rows]
        if scale is not None:
            gb *= scale
        # Written through two buffers: fresh temporaries cost more than the math.
        a, c = a_buf[:gb.size].reshape(gb.shape), c_buf[:gb.size].reshape(gb.shape)
        mb *= BETA1
        mb += np.multiply(gb, 1.0 - BETA1, out=a)
        vb *= BETA2
        vb += np.multiply(np.multiply(gb, 1.0 - BETA2, out=a), gb, out=a)
        np.add(np.sqrt(np.divide(vb, c2, out=a), out=a), EPS, out=a)
        wb -= np.divide(np.multiply(np.divide(mb, c1, out=c), lr, out=c), a, out=c)


class Adam:
    """Moment-tracking optimizer over named parameters.

    update: m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2
            theta <- theta - lr * m_hat / (sqrt(v_hat) + eps)
    with bias-corrected m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t), and
    b1, b2, eps = BETA1, BETA2, EPS.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        # Written so that NaN fails the check.
        if not 0 <= lr < np.inf:
            raise ConfigError(f"learning rate must be >= 0 and finite, got {lr}")
        self.params: list[tuple[str, Tensor]] = list(params.items())
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}
        self.penalty = 0.0  # sum of lam * ||W||^2 found by the last norm pass
        # Clip factor and L2 coefficients of the last norm pass, for the next step.
        self._scale: float | None = None
        self._l2: dict[str, float] = {}

    def _check_grads(self) -> None:
        for name, p in self.params:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ContractError(f"gradient shape {p.grad.shape} does not match "
                                    f"parameter {name} {p.data.shape}")

    def _grads(self, l2: dict[str, float]) -> list[tuple[str, _Grad]]:
        return [(name, _Grad(p.grad, p.data, l2.get(name, 0.0)))
                for name, p in self.params if p.grad is not None]

    def step(self) -> None:
        """One update from the .grad buffers (missing grads are zero) with the
        last norm pass's L2 terms added, clip scale first. Every gradient's
        shape is checked before anything changes."""
        self._check_grads()
        grads = self._grads(self._l2)
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        scale, self._scale, self._l2 = self._scale, None, {}
        units = [(g, i, np.atleast_1d(self.m[name]), np.atleast_1d(self.v[name]))
                 for name, g in grads for i in range(g.blocks)]
        _sweep(_update_loop, units, 2, scale=scale, lr=self.lr, c1=c1, c2=c2)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def clip_gradients(self, max_norm: float, l2: dict[str, float] | None = None) -> float:
        """Norm pass, once per step: return the pre-clip norm of the gradients
        with 2 * l2[name] * W added to each named one, and keep the sum of
        l2[name] * ||W||^2 in self.penalty. It writes into no gradient (a
        named parameter with none gets an empty RowGrad): the next step()
        adds the same L2 terms and scales the sum to a joint norm <= max_norm."""
        if not 0 < max_norm < np.inf:
            raise ConfigError(f"max_norm must be positive and finite, got {max_norm}")
        l2 = l2 or {}
        if set(l2) - set(self.m) or not all(0 <= lam < np.inf for lam in l2.values()):
            raise ConfigError(f"l2 must map parameter names to finite coefficients >= 0, "
                              f"got {l2}")
        self._check_grads()
        for name, p in self.params:
            if p.grad is None and l2.get(name, 0.0) > 0:
                p.grad = RowGrad.empty(p.data.shape)
        blocks = [(g, i) for _, g in self._grads(l2) for i in range(g.blocks)]
        units = [(g, i, k) for k, (g, i) in enumerate(blocks)]
        sq_norms, terms = [0.0] * len(units), [0.0] * len(units)
        _sweep(_norm_loop, units, 0, sq_norms, terms)
        # Added here in block order, as one thread would add them.
        total = penalty = 0.0
        for (g, _), sq, term in zip(blocks, sq_norms, terms):
            if g.lam > 0:
                penalty += term
            total += sq
        norm = float(np.sqrt(total))
        if not np.isfinite(norm + penalty):
            raise NumericError(f"gradient norm {norm} or L2 term {penalty} is not finite")
        self.penalty = penalty
        self._scale = max_norm / norm if norm > max_norm else None
        self._l2 = dict(l2)
        return norm

    def state_dict(self) -> dict[str, np.ndarray]:
        out = {"step_count": np.array(float(self.t))}
        for name in self.m:
            out[f"m.{name}"] = self.m[name].copy()
            out[f"v.{name}"] = self.v[name].copy()
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        if "step_count" not in state:
            raise ContractError("optimizer state is missing step_count")
        self.t = int(state["step_count"])
        for name in self.m:
            for slot, store in (("m", self.m), ("v", self.v)):
                key = f"{slot}.{name}"
                if key not in state:
                    raise ContractError(f"optimizer state is missing {key}")
                if state[key].shape != store[name].shape:
                    raise ContractError(
                        f"optimizer state {key} has shape {state[key].shape}, "
                        f"expected {store[name].shape}"
                    )
                store[name] = state[key].astype(np.float64).copy()