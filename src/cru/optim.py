"""Adam with global-norm clipping and L2 terms, in two sweeps over blocks of
``BLOCK_ROWS`` leading rows, so that a block's temporaries stay in cache (Lam,
Rothberg & Wolf, ASPLOS 1991): the norm pass, ``clip_gradients``, and the
update pass, ``step`` (Kingma & Ba, arXiv:1412.6980).

Both sweeps read each gradient block, with its L2 term added, through one
block rule, ``_grad_blocks``, at the same coefficient. The norm pass writes
into no gradient, and a ``RowGrad`` (the embedding table's gradient) is never
made dense.
"""

from __future__ import annotations

import numpy as np

from .autodiff import RowGrad, Tensor
from .errors import ConfigError, ContractError, NumericError

BLOCK_ROWS = 256

# Adam's moment decay rates and denominator floor. They are fixed: a
# checkpoint's optimizer state does not store them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def _blocks(x: np.ndarray) -> list[np.ndarray]:
    """Views of x's blocks of BLOCK_ROWS leading rows; a scalar is one block."""
    x = np.atleast_1d(x)
    return [x[s:s + BLOCK_ROWS] for s in range(0, len(x), BLOCK_ROWS)]


def _grad_blocks(grad: np.ndarray | RowGrad, weights: np.ndarray, lam: float):
    """Each block of grad + 2 * lam * weights, as _blocks splits them. A dense
    grad at lam = 0 is its own blocks. Every other block is formed in one
    reused buffer, which the next block overwrites: 2 * lam * W_b (zeros at
    lam = 0), then the block's gradient added, its dense rows or a RowGrad's
    rows. Training runs the dense-with-L2 path on no tensor (the table, the
    one tensor with an L2 term, has a RowGrad), but it stays as the reference
    that test_classifier::test_row_gradient_steps_equal_dense_gradient_steps
    holds the RowGrad path to, bit for bit."""
    sparse = isinstance(grad, RowGrad)
    if not sparse and lam == 0:
        yield from _blocks(grad)
        return
    w_blocks = _blocks(weights)
    buf = np.empty_like(w_blocks[0])
    if sparse:
        cuts = np.searchsorted(grad.ids, np.arange(len(w_blocks) + 1) * BLOCK_ROWS)
    else:
        g_blocks = _blocks(grad)
    for i, wb in enumerate(w_blocks):
        gb = buf[:len(wb)]
        if lam > 0:
            np.multiply(wb, 2.0 * lam, out=gb)
        else:
            gb.fill(0.0)
        if sparse:
            gb[grad.ids[cuts[i]:cuts[i + 1]] - i * BLOCK_ROWS] += grad.rows[cuts[i]:cuts[i + 1]]
        else:
            gb += g_blocks[i]
        yield gb


def l2_penalty(weights: np.ndarray, lam: float) -> float:
    """lam * ||weights||^2. The norm pass calls it per block."""
    return lam * float(np.vdot(weights, weights))


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

    def step(self) -> None:
        """One update from the .grad buffers (missing grads are zero) with the
        last norm pass's L2 terms added, clip scale first."""
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        scale, self._scale = self._scale, None
        l2, self._l2 = self._l2, {}
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ContractError(f"gradient shape {g.shape} does not match "
                                    f"parameter {name} {p.data.shape}")
            m_blocks = _blocks(self.m[name])
            a_buf, c_buf = np.empty_like(m_blocks[0]), np.empty_like(m_blocks[0])
            for gb, mb, vb, wb in zip(_grad_blocks(g, p.data, l2.get(name, 0.0)), m_blocks,
                                      _blocks(self.v[name]), _blocks(p.data)):
                if scale is not None:
                    gb *= scale
                # Written through two buffers: fresh temporaries cost more than the math.
                a, c = a_buf[:len(gb)], c_buf[:len(gb)]
                mb *= BETA1
                mb += np.multiply(gb, 1.0 - BETA1, out=a)
                vb *= BETA2
                vb += np.multiply(np.multiply(gb, 1.0 - BETA2, out=a), gb, out=a)
                np.add(np.sqrt(np.divide(vb, c2, out=a), out=a), EPS, out=a)
                wb -= np.divide(np.multiply(np.divide(mb, c1, out=c), self.lr, out=c), a, out=c)

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
        total = penalty = 0.0
        for name, p in self.params:
            lam = l2.get(name, 0.0)
            if p.grad is None and lam > 0:
                p.grad = RowGrad.empty(p.data.shape)
            if p.grad is None:
                continue
            for gb, wb in zip(_grad_blocks(p.grad, p.data, lam), _blocks(p.data)):
                if lam > 0:
                    penalty += l2_penalty(wb, lam)
                total += float(np.vdot(gb, gb))
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
