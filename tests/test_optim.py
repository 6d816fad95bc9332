"""Adam update math, and the norm pass that clips and adds the L2 term."""

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import RowGrad, Tape, Tensor
from cru.errors import ConfigError, ContractError, NumericError
from cru.optim import BETA1, BETA2, BLOCK_ROWS, EPS, Adam
from oracles import add, l2_penalty, matmul, mul


def make_param(values):
    return Tensor(np.array(values, dtype=float), requires_grad=True)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_single_step_hand_oracle():
    p = make_param([1.0, -2.0])
    g = np.array([0.5, -1.5])
    p.grad = g.copy()
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    # t=1: m=(1-b1)g, v=(1-b2)g^2; m_hat=g, v_hat=g^2
    # update = lr * g / (|g| + eps)
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, atol=1e-12)


def test_adam_two_steps_tracked_against_reference():
    # Independent reference implementation of the moment recursions.
    p = make_param([0.3])
    opt = Adam({"p": p}, lr=0.05)
    m = v = 0.0
    theta = 0.3
    for t in range(1, 4):
        g = float(2.0 * theta)  # gradient of theta^2
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        theta -= 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.allclose(p.data, [theta], atol=1e-12)


def test_adam_zero_gradient_is_fixed_point():
    p = make_param([1.0, 2.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    before = p.data.copy()
    for _ in range(5):
        opt.step()
    assert np.array_equal(p.data, before)


def test_adam_lr_zero_never_moves_parameters():
    p = make_param([1.0])
    opt = Adam({"p": p}, lr=0.0)
    p.grad = np.array([3.0])
    opt.step()
    assert np.array_equal(p.data, [1.0])


def test_adam_missing_grad_is_skipped():
    p = make_param([1.0])
    q = make_param([2.0])
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert not np.array_equal(p.data, [1.0])
    assert np.array_equal(q.data, [2.0])


def test_adam_validation():
    p = make_param([1.0])
    with pytest.raises(ConfigError):
        Adam({"p": p}, lr=-0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            Adam({"p": p}, lr=bad)


def test_adam_shape_drift_detected():
    p = make_param([1.0, 2.0])
    opt = Adam({"p": p})
    p.grad = np.zeros(3)
    with pytest.raises(ContractError):
        opt.step()


def test_step_that_raises_changes_nothing():
    # The first parameter's gradient is good and the second's has the wrong
    # shape: step() raises before it moves t, any m or v, or any parameter,
    # and keeps the clip scale for the step after the gradient is mended.
    p, q = make_param([1.0, 2.0]), make_param([3.0])
    opt, twin = Adam({"p": p, "q": q}, lr=0.1), Adam({"p": make_param([1.0, 2.0]),
                                                       "q": make_param([3.0])}, lr=0.1)
    for o in (opt, twin):
        for _, t in o.params:
            t.grad = np.ones_like(t.data)
        o.step()
        for _, t in o.params:
            t.grad = np.full_like(t.data, 40.0)
        o.clip_gradients(1.0)
    before = ([p.data.copy(), q.data.copy()], {n: a.copy() for n, a in opt.m.items()},
              {n: a.copy() for n, a in opt.v.items()}, opt.t)
    q.grad = np.zeros(2)
    with pytest.raises(ContractError, match="parameter q"):
        opt.step()
    after = ([p.data, q.data], opt.m, opt.v, opt.t)
    for got, want in zip(after[:3], before[:3]):
        for a, b in zip(got.values() if isinstance(got, dict) else got,
                        want.values() if isinstance(want, dict) else want):
            assert np.array_equal(a, b)
    assert after[3] == before[3] == 1
    q.grad = np.full(1, 40.0)
    opt.step()
    twin.step()
    for (_, a), (_, b) in zip(opt.params, twin.params):
        assert np.array_equal(a.data, b.data)


def test_norm_pass_checks_gradient_shapes_first():
    p, q = make_param([1.0, 2.0]), make_param([3.0])
    opt = Adam({"p": p, "q": q})
    p.grad = np.ones(3)
    with pytest.raises(ContractError, match="parameter p"):
        opt.clip_gradients(1.0, {"q": 0.1})
    assert q.grad is None and opt.penalty == 0.0


def test_adam_zero_grad_clears_buffers():
    p = make_param([1.0])
    opt = Adam({"p": p})
    p.grad = np.array([1.0])
    opt.zero_grad()
    assert p.grad is None


def test_adam_state_round_trip():
    p = make_param([1.0, -1.0])
    opt = Adam({"p": p}, lr=0.01)
    for _ in range(3):
        p.grad = np.array([0.2, -0.4])
        opt.step()
    state = opt.state_dict()

    q = make_param(p.data.copy())
    opt2 = Adam({"p": q}, lr=0.01)
    opt2.load_state_dict(state)
    p.grad = np.array([0.1, 0.1])
    q.grad = np.array([0.1, 0.1])
    opt.step()
    opt2.step()
    assert np.array_equal(p.data, q.data)


def test_adam_state_round_trip_errors():
    p = make_param([1.0])
    opt = Adam({"p": p})
    with pytest.raises(ContractError):
        opt.load_state_dict({})
    bad = opt.state_dict()
    bad["m.p"] = np.zeros(2)
    with pytest.raises(ContractError):
        opt.load_state_dict(bad)


# ---------------------------------------------------------------------------
# Clipping: clip_gradients finds the scale, the next step applies it
# ---------------------------------------------------------------------------

def clip_and_step(grads, max_norm):
    """Run the norm pass and one step; returns (pre-clip norm, clipped grads)."""
    params = {f"p{i}": make_param(np.zeros_like(g)) for i, g in enumerate(grads)}
    for p, g in zip(params.values(), grads):
        p.grad = g
    opt = Adam(params)
    norm = opt.clip_gradients(max_norm)
    opt.step()
    return norm, [p.grad for p in params.values()]


def test_clip_noop_under_threshold():
    norm, (g,) = clip_and_step([np.array([0.3, 0.4])], 5.0)  # norm 0.5
    assert norm == pytest.approx(0.5)
    assert np.allclose(g, [0.3, 0.4])


def test_clip_scales_to_max_norm():
    norm, g = clip_and_step([np.array([3.0, 4.0]), np.array([0.0, 12.0])], 5.0)
    assert norm == pytest.approx(13.0)
    total = np.sqrt(sum(float(np.sum(x * x)) for x in g))
    assert total == pytest.approx(5.0)


def test_clip_is_idempotent():
    p = make_param([0.0, 0.0])
    p.grad = np.array([30.0, 40.0])
    opt = Adam({"p": p})
    opt.clip_gradients(5.0)
    opt.step()
    after_first = p.grad.copy()
    assert opt.clip_gradients(5.0) == pytest.approx(5.0)
    opt.step()
    assert np.allclose(p.grad, after_first, atol=1e-12)


def test_clip_preserves_direction():
    original = np.array([6.0, -8.0])
    _, (g,) = clip_and_step([original.copy()], 5.0)
    ratio = g / original
    assert np.allclose(ratio, ratio[0])
    assert ratio[0] > 0


def test_clip_rejects_nonpositive_norm():
    opt = Adam({"p": make_param([1.0])})
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            opt.clip_gradients(bad)


def test_optimizer_clip_helper():
    p = make_param([30.0, 40.0])
    opt = Adam({"p": p})
    p.grad = np.array([30.0, 40.0])
    pre = opt.clip_gradients(5.0)
    assert pre == pytest.approx(50.0)
    assert np.array_equal(p.grad, [30.0, 40.0])  # the scale waits for step()
    opt.step()
    assert np.linalg.norm(p.grad) == pytest.approx(5.0)


def test_clip_scale_is_spent_by_one_step():
    p = make_param([0.0, 0.0])
    opt = Adam({"p": p})
    p.grad = np.array([30.0, 40.0])
    opt.clip_gradients(5.0)
    opt.step()
    p.grad = np.array([30.0, 40.0])
    opt.step()  # no clip_gradients call before it: the gradient is used as is
    assert np.array_equal(p.grad, [30.0, 40.0])


def test_clip_rejects_non_finite_norm():
    p = make_param([1.0, 2.0])
    opt = Adam({"p": p})
    p.grad = np.array([np.inf, 0.0])
    with pytest.raises(NumericError, match="not finite"):
        opt.clip_gradients(5.0)


# ---------------------------------------------------------------------------
# L2 term, folded into the norm pass
# ---------------------------------------------------------------------------

def test_l2_penalty_value_and_gradient():
    # A dense gradient with lam > 0: the norm pass leaves w.grad as it was,
    # and the step is a twin's step on g + 2 lam W with no L2 term, clipped
    # or not.
    data = np.array([[1.0, -2.0], [0.5, 0.0]])
    g = np.array([[0.25, 0.0], [-1.0, 3.0]])
    for max_norm in (1e3, 0.01):
        w, twin = make_param(data), make_param(data)
        w.grad, twin.grad = g.copy(), g + (2.0 * 0.01) * data
        opt, twin_opt = Adam({"w": w}), Adam({"w": twin})
        assert opt.clip_gradients(max_norm, {"w": 0.01}) == twin_opt.clip_gradients(max_norm)
        assert opt.penalty == pytest.approx(0.01 * (1 + 4 + 0.25))
        assert np.array_equal(w.grad, g)
        opt.step()
        twin_opt.step()
        for got, want in [(w.data, twin.data), (opt.m["w"], twin_opt.m["w"]),
                          (opt.v["w"], twin_opt.v["w"])]:
            assert np.array_equal(got, want)


def test_norm_pass_writes_no_gradient():
    rng = np.random.Generator(np.random.PCG64(5))
    shape = (BLOCK_ROWS + 5, 3)
    dense, table = make_param(rng.standard_normal(shape)), make_param(rng.standard_normal(shape))
    dense.grad = rng.standard_normal(shape)
    ids = np.array([0, 7, BLOCK_ROWS, BLOCK_ROWS + 4])
    table.grad = RowGrad(shape, ids, rng.standard_normal((len(ids), 3)))
    before = [dense.grad.copy(), table.grad.ids.copy(), table.grad.rows.copy()]
    Adam({"dense": dense, "table": table}).clip_gradients(0.01, {"dense": 0.3, "table": 0.3})
    for got, want in zip([dense.grad, table.grad.ids, table.grad.rows], before):
        assert np.array_equal(got, want)


def test_l2_penalty_zero_lambda_detached():
    w = make_param([1.0])
    opt = Adam({"w": w})
    assert opt.clip_gradients(5.0, {"w": 0.0}) == 0.0
    assert opt.penalty == 0.0
    assert w.grad is None


def test_missing_gradient_steps_on_its_l2_term_alone():
    # A parameter with no gradient gets an empty RowGrad from a norm pass
    # with lam > 0, and its step is the dense step on 2 lam W. A step with
    # no norm pass before it adds no L2 term.
    data = np.random.Generator(np.random.PCG64(3)).standard_normal((BLOCK_ROWS + 5, 3))
    w, ref = make_param(data), make_param(data)
    opt, ref_opt = Adam({"w": w}), Adam({"w": ref})
    assert opt.clip_gradients(1e6, {"w": 0.3}) == pytest.approx(np.linalg.norm(0.6 * data))
    assert isinstance(w.grad, RowGrad) and len(w.grad.ids) == 0
    assert opt.penalty == pytest.approx(0.3 * np.sum(data * data))
    for g in ((2.0 * 0.3) * data, np.zeros_like(data)):
        ref.grad = g
        opt.step()
        ref_opt.step()
        assert np.array_equal(w.data, ref.data)
        assert np.array_equal(opt.m["w"], ref_opt.m["w"])


def test_l2_penalty_rejects_negative():
    opt = Adam({"w": make_param([1.0])})
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ConfigError, match="l2 must map"):
            opt.clip_gradients(5.0, {"w": bad})
    with pytest.raises(ConfigError, match="l2 must map"):
        opt.clip_gradients(5.0, {"u": 0.1})


@pytest.mark.parametrize("rows", [3, BLOCK_ROWS, BLOCK_ROWS + 5])
def test_norm_pass_gradient_equals_tape_l2_gradient(rows):
    # The norm pass and the step use the gradient of the loss with the L2
    # term on the tape, and the pass finds that gradient's norm and the
    # term's value. The table's gradient stays row-sparse (a RowGrad) and the
    # step adds its L2 term, so the step is compared, not w.grad.
    rng = np.random.Generator(np.random.PCG64(rows))
    w = make_param(rng.standard_normal((rows, 3)))
    u = make_param(rng.standard_normal((3, 2)))
    ids = rng.integers(0, rows, size=7)
    x = rng.standard_normal((7, 2))

    def data_loss():
        return ad.sum_all(mul(matmul(ad.take_rows(w, ids), u), Tensor(x)))

    with Tape() as tape:
        ref = add(data_loss(), l2_penalty(w, 0.3))
        tape.backward(ref)
    ref_grads = [w.grad, u.grad]
    ref_norm = np.sqrt(sum(float(np.sum(g * g)) for g in ref_grads))
    w.zero_grad()
    u.zero_grad()
    with Tape() as tape:
        loss = data_loss()
        tape.backward(loss)
    opt = Adam({"w": w, "u": u})
    norm = opt.clip_gradients(1e6, {"w": 0.3})
    assert abs(norm - ref_norm) <= 1e-12 * ref_norm
    assert abs(loss.item() + opt.penalty - ref.item()) <= 1e-12 * abs(ref.item())
    # First step: m = (1 - beta1) g, and a whole-array Adam step on g.
    before = [w.data.copy(), u.data.copy()]
    opt.step()
    for name, p, p0, g in zip("wu", (w, u), before, ref_grads):
        m = (1.0 - BETA1) * g
        v = (1.0 - BETA2) * g * g
        want = p0 - opt.lr * (m / (1.0 - BETA1)) / (np.sqrt(v / (1.0 - BETA2)) + EPS)
        for got, ref in [(opt.m[name], m), (p.data, want)]:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
