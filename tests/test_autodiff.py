"""Tape engine: per-op gradients against finite differences, tape semantics,
and the shape/validity contracts of each primitive.
"""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor, active_tape, finite_diff_gradcheck
from cru.errors import ConfigError, ContractError, DimensionError, NumericError
from cru.recurrent import make_cell, pack, run_sequence
from oracles import (activation, add, bce_composed, bias_add, clip_values, conv_banks_composed,
                     dense_composed, gate_inputs_per_direction, log, matmul, mean_all, mul,
                     packed_positions, packing_window, project, sub, transpose)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def check(f, params, tol=1e-4):
    report = finite_diff_gradcheck(f, params, tol=tol)
    assert report.passed, f"per_param={report.per_param} err={report.max_rel_err:.3e}"
    return report


@contextmanager
def held_outputs():
    """Every op output recorded inside, held in the list it yields: a tape
    holds an output only weakly."""
    outputs, record = [], Tape.record

    def holding(tape, op, inputs, out, apply):
        outputs.append(out)
        record(tape, op, inputs, out, apply)

    Tape.record = holding
    try:
        yield outputs
    finally:
        Tape.record = record


# ---------------------------------------------------------------------------
# Tensor basics
# ---------------------------------------------------------------------------

def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        Tensor(np.inf)


def test_tensor_rejects_rank_4():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_tensor_item_requires_single_element():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ContractError):
        Tensor([1.0, 2.0]).item()


def test_tensor_is_float64():
    t = Tensor(np.array([1, 2], dtype=np.int32))
    assert t.data.dtype == np.float64


# ---------------------------------------------------------------------------
# Tape mechanics
# ---------------------------------------------------------------------------

def test_no_tape_records_nothing():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = mul(a, a)
    assert active_tape() is None
    assert b.grad is None and a.grad is None


def test_backward_requires_scalar():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        b = mul(a, a)
        with pytest.raises(ContractError):
            tape.backward(b)


def test_backward_on_leaf_loss():
    a = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        tape.backward(a)
    assert a.grad == np.ones(())
    with Tape() as tape:
        tape.backward(a)  # gradients accumulate across tapes
    assert a.grad == 2 * np.ones(())
    c = Tensor(2.0)
    with Tape() as tape:
        tape.backward(c)  # a constant loss reaches no gradient
    assert c.grad is None and len(tape) == 0


def test_gradients_accumulate_across_backward_calls():
    a = Tensor([1.0, 3.0], requires_grad=True)
    grads = []
    for _ in range(2):  # one tape each
        with Tape() as tape:
            tape.backward(ad.sum_all(mul(a, a)))
        grads.append(a.grad.copy())
    assert np.allclose(grads[1], 2 * grads[0])
    a.zero_grad()
    assert a.grad is None


def test_a_tape_runs_one_backward():
    # The backward consumes the tape: a second one, or an op on a tensor that
    # needs a gradient, is a contract error, and neither adds a gradient. An
    # op on constants still runs, untaped.
    a = Tensor([1.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(mul(a, a))
        tape.backward(loss)
        assert len(tape) == 0
        with pytest.raises(ContractError, match="backward has run"):
            tape.backward(loss)
        with pytest.raises(ContractError, match="mul: this tape's backward has run"):
            mul(a, a)
        assert mul(Tensor(2.0), Tensor(3.0)).item() == 6.0
    assert np.array_equal(a.grad, [2.0, 6.0])
    with Tape() as tape:
        tape.backward(Tensor(2.0))  # a constant loss consumes the tape too
        with pytest.raises(ContractError, match="backward has run"):
            tape.backward(Tensor(2.0))


def test_leaf_gradients_own_their_memory():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)

    def loss():
        return ad.sum_all(mul(add(a, b), add(a, b)))

    with Tape() as tape, held_outputs() as outputs:
        total = loss()
        tape.backward(total)
    assert not np.shares_memory(a.grad, b.grad)
    for arr in [a.data, b.data] + [t.data for t in outputs]:
        assert not np.shares_memory(a.grad, arr)
        assert not np.shares_memory(b.grad, arr)
    first = a.grad
    g1 = first.copy()
    with Tape() as tape:
        tape.backward(loss())
    # Accumulation makes a new array; the first tape's gradient is untouched.
    assert np.array_equal(a.grad, 2 * g1)
    assert np.array_equal(b.grad, 2 * g1)
    assert np.array_equal(first, g1)


def test_first_gradient_is_a_writable_copy():
    # add sends its own gradient buffer to both inputs, and sum_all sends a
    # read-only broadcast view; the leaf must own a writable array either way.
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    with Tape() as tape, held_outputs() as outputs:
        y = add(x, x)
        loss = ad.sum_all(mul(y, Tensor([[1.0, 2.0], [3.0, 4.0]])))
        tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0, 4.0], [6.0, 8.0]])
    z = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape, held_outputs() as more:
        loss = ad.sum_all(z)
        tape.backward(loss)
    views = [t.data for t in [x, z] + outputs + more]
    assert np.array_equal(z.grad, [1.0, 1.0, 1.0])
    for g in (x.grad, z.grad):
        assert g.flags.writeable and g.base is None
        assert not any(np.shares_memory(g, arr) for arr in views)
    z.grad += 1.0
    assert np.array_equal(z.grad, [2.0, 2.0, 2.0])


def test_a_dead_output_leaves_the_tape():
    # A tape holds an op's output weakly: the output dies with its last
    # holder, the tape forgets it, and its node reads as an empty tensor. A
    # new constant is not watched, and the op's backward still runs.
    a = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = mul(a, a)
        node = tape.nodes[-1]
        assert node.tensor is out and len(tape._ids) == 2
        loss = ad.sum_all(out)  # keeps out's shape, not out
        del out
        assert len(tape._ids) == 2  # the leaf a and the loss
        assert node.tensor.size == 0 and tape.nodes[0].tensor is a
        assert not tape.watches(Tensor([3.0, 4.0]))
        tape.backward(loss)
    assert np.array_equal(a.grad, 2 * a.data)


def test_gradient_of_the_wrong_shape_is_a_contract_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = ad._emit_op("bad", (x,), Tensor(3.0), lambda g, emit: emit(0, np.ones(3)))
        with pytest.raises(ContractError, match=r"bad: gradient of shape \(3,\)"):
            tape.backward(out)


def test_constants_get_no_gradient():
    a = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([5.0, 6.0])  # constant
    with Tape() as tape:
        loss = ad.sum_all(mul(a, c))
        tape.backward(loss)
    assert np.allclose(a.grad, c.data)
    assert c.grad is None


class CountingArray(np.ndarray):
    """An array that counts the ufunc calls (products included) it takes
    part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        CountingArray.calls += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_constant_inputs_get_no_gradient_products():
    # The gradient a constant would get (g * x for a mask, x^T g for a fixed
    # weight) is never formed: x takes part only in the forward product.
    rng = rng_for(3)
    for op, const in ((mul, Tensor(rng.standard_normal((4, 3)))),
                      (matmul, Tensor(rng.standard_normal((3, 2))))):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x.data = x.data.view(CountingArray)
        CountingArray.calls = 0
        with Tape() as tape:
            y = op(x, const)
            assert CountingArray.calls == 1
            tape.backward(ad.sum_all(y))
        assert CountingArray.calls == 1, op.__name__
        assert const.grad is None
        expect = const.data if op is mul else np.tile(const.data.sum(axis=1), (4, 1))
        assert np.allclose(x.grad, expect)


def test_reuse_of_intermediate_accumulates():
    # y used twice: dL/dy must sum both paths.
    a = Tensor(3.0, requires_grad=True)
    with Tape() as tape:
        y = mul(a, a)          # a^2
        loss = add(y, y)       # 2 a^2
        tape.backward(loss)
    assert np.allclose(a.grad, 4 * a.data)


def test_tapes_are_thread_local():
    results = {}

    def worker(name, val):
        x = Tensor(val, requires_grad=True)
        with Tape() as tape:
            loss = mul(x, x)
            tape.backward(loss)
        results[name] = float(x.grad)

    threads = [threading.Thread(target=worker, args=(i, float(i + 1)))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {i: 2.0 * (i + 1) for i in range(4)}


def test_nested_tapes_exit_in_order():
    with Tape() as outer:
        with Tape() as inner:
            assert active_tape() is inner
        assert active_tape() is outer
    assert active_tape() is None


# ---------------------------------------------------------------------------
# Elementwise and matmul gradients vs. finite differences
# ---------------------------------------------------------------------------

def test_matmul_gradcheck():
    rng = rng_for(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    check(lambda: ad.sum_all(matmul(a, b)), {"a": a, "b": b})


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


def test_elementwise_gradchecks():
    rng = rng_for(1)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    for op in (add, sub, mul):
        check(lambda op=op: ad.sum_all(op(a, b)), {"a": a, "b": b})


def test_scalar_broadcast_gradcheck():
    rng = rng_for(2)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    s = Tensor(0.7, requires_grad=True)
    check(lambda: ad.sum_all(mul(a, s)), {"a": a, "s": s})
    check(lambda: ad.sum_all(sub(s, a)), {"a": a, "s": s})


def test_elementwise_rejects_mismatched_shapes():
    for op in (add, mul):
        with pytest.raises(DimensionError):
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# Activations and scalar reductions
# ---------------------------------------------------------------------------

def test_activation_gradchecks():
    rng = rng_for(3)
    x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    for kind in ("sigmoid", "tanh", "relu"):
        check(lambda kind=kind: ad.sum_all(activation(kind, x)), {"x": x})


def test_activation_unknown_kind():
    with pytest.raises(ConfigError):
        activation("softsign", Tensor([0.0]))


def test_sigmoid_extremes_are_stable():
    y = activation("sigmoid", Tensor([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(y.data))
    assert y.data[0] == 0.0 and y.data[1] == 0.5 and y.data[2] == 1.0


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([0.0, -1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(activation("relu", x)))
    assert np.allclose(x.grad, [0.0, 0.0, 1.0])


def test_log_gradcheck_and_domain():
    x = Tensor([0.5, 1.5, 2.0], requires_grad=True)
    check(lambda: ad.sum_all(log(x)), {"x": x})
    with pytest.raises(NumericError):
        log(Tensor([1.0, 0.0]))


def test_clip_values_gradient_only_interior():
    x = Tensor([-2.0, -1.0, 0.0, 1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(ad.sum_all(clip_values(x, -1.0, 1.0)))
    # Boundary values count as clamped: no gradient there.
    assert np.allclose(x.grad, [0, 0, 1, 0, 0])


def test_sum_and_mean_values_and_grads():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    assert ad.sum_all(x).item() == 15.0
    assert mean_all(x).item() == 2.5
    with Tape() as tape:
        tape.backward(mean_all(x))
    assert np.allclose(x.grad, np.full((2, 3), 1 / 6))


# ---------------------------------------------------------------------------
# Structural ops
# ---------------------------------------------------------------------------

def test_reshape_transpose_gradcheck():
    rng = rng_for(4)
    x = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
    check(lambda: ad.sum_all(mul(ad.reshape(x, (3, 4)),
                                    ad.reshape(x, (3, 4)))), {"x": x})
    check(lambda: ad.sum_all(mul(transpose(x), transpose(x))), {"x": x})


def test_concat_cols():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full((1, 3), 2.0), requires_grad=True)
    c = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.concat_cols([a, c])
    assert out.shape == (2, 5)
    with pytest.raises(DimensionError):
        ad.concat_cols([a, b])


def test_concat_gradchecks():
    rng = rng_for(5)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    c = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    check(lambda: ad.sum_all(mul(ad.concat_cols([a, c]),
                                    ad.concat_cols([a, c]))), {"a": a, "c": c})


def test_take_rows_gather_and_duplicate_accumulation():
    w = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    out = ad.take_rows(w, [2, 0, 2])
    assert np.allclose(out.data, w.data[[2, 0, 2]])
    with Tape() as tape:
        tape.backward(ad.sum_all(ad.take_rows(w, [2, 0, 2])))
    expected = np.zeros((4, 3))
    expected[2] = 2.0  # picked twice
    expected[0] = 1.0
    assert np.allclose(w.grad, expected)


def test_take_rows_scatter_equals_add_at():
    # A permutation's gradient is a dense gather and ids with repeats scatter
    # by np.add.at; a second gather of the same matrix accumulates onto the
    # first, and the columns of (N, 2) ids accumulate in column order.
    rng = rng_for(20)
    for ids in (rng.permutation(6), np.array([4, 1, 4, 4, 0]), np.arange(6)[::-1],
                np.stack([rng.permutation(6), rng.permutation(6)], axis=1),
                np.stack([rng.permutation(6), [5, 0, 5, 2, 2, 1]], axis=1)):
        cols = ids.reshape(len(ids), -1).T
        for second in (None, rng.permutation(6)):
            w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
            G1 = rng.standard_normal((len(ids), 3 * len(cols)))
            G2 = rng.standard_normal((6, 3))
            with Tape() as tape:
                loss = ad.sum_all(mul(ad.take_rows(w, ids), Tensor(G1)))
                if second is not None:
                    loss = add(loss, ad.sum_all(mul(ad.take_rows(w, second),
                                                          Tensor(G2))))
                tape.backward(loss)
            expected = np.zeros((6, 3))  # in the tape's reverse order
            if second is not None:
                np.add.at(expected, second, G2)
            for j, c in enumerate(cols):
                np.add.at(expected, c, G1[:, 3 * j:3 * (j + 1)])
            assert np.array_equal(w.grad, expected), (ids, second)


def test_row_gathered_leaf_gets_row_gradient_equal_to_add_at():
    # A leaf that only gathers with repeated ids read gets a RowGrad: its
    # unique ids ascending, and bit for bit the np.add.at into zeros, in the
    # tape's reverse order, that a dense gradient was. It holds for ids with
    # repeats, two columns, a leaf gathered twice on one tape, and across two
    # backward calls; a leaf that also gets a dense gradient gets an array.
    rng = rng_for(22)
    ids_a = np.array([4, 1, 4, 4, 0, 1])
    ids_b = np.stack([[5, 0, 5, 2, 2, 1], [3, 3, 0, 1, 1, 1]], axis=1)
    w = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
    G_a = rng.standard_normal((6, 3))
    G_b = rng.standard_normal((6, 6))
    G_w = rng.standard_normal((7, 3))

    def run(dense):
        with Tape() as tape:
            loss = add(ad.sum_all(mul(ad.take_rows(w, ids_a), Tensor(G_a))),
                          ad.sum_all(mul(ad.take_rows(w, ids_b), Tensor(G_b))))
            if dense:
                loss = add(loss, ad.sum_all(mul(w, Tensor(G_w))))
            tape.backward(loss)

    one = np.zeros((7, 3))  # in the tape's reverse order
    for c, g in ((ids_b[:, 0], G_b[:, :3]), (ids_b[:, 1], G_b[:, 3:]), (ids_a, G_a)):
        np.add.at(one, c, g)
    run(dense=False)
    assert isinstance(w.grad, ad.RowGrad) and w.grad.shape == (7, 3)
    assert np.array_equal(w.grad.ids, [0, 1, 2, 3, 4, 5])
    assert np.array_equal(np.asarray(w.grad), one)
    run(dense=False)
    assert isinstance(w.grad, ad.RowGrad)
    assert np.array_equal(np.asarray(w.grad), one + one)

    mixed = G_w.copy()
    for c, g in ((ids_b[:, 0], G_b[:, :3]), (ids_b[:, 1], G_b[:, 3:]), (ids_a, G_a)):
        np.add.at(mixed, c, g)
    run(dense=True)
    assert type(w.grad) is np.ndarray and np.array_equal(w.grad, (one + one) + mixed)
    w.zero_grad()
    run(dense=True)
    assert type(w.grad) is np.ndarray and np.array_equal(w.grad, mixed)
    run(dense=False)
    assert type(w.grad) is np.ndarray and np.array_equal(w.grad, mixed + one)


def test_take_rows_range_check():
    w = Tensor(np.zeros((4, 3)))
    for bad in (4, -1):
        with pytest.raises(ContractError, match=rf"row id {bad} out of range \[0, 4\)"):
            ad.take_rows(w, [0, bad])
    with pytest.raises(ContractError):
        ad.take_rows(w, [])


def test_bias_add_gradcheck():
    rng = rng_for(6)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    v = Tensor(rng.standard_normal(3), requires_grad=True)
    check(lambda: ad.sum_all(mul(bias_add(x, v), bias_add(x, v))),
          {"x": x, "v": v})
    x3 = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    check(lambda: ad.sum_all(mul(bias_add(x3, v), bias_add(x3, v))),
          {"x3": x3, "v": v})
    with pytest.raises(DimensionError):
        bias_add(x, Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv_reference(x: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Brute-force same-length convolution used as an independent oracle."""
    d_out, k, d_in = filters.shape
    n = x.shape[0]
    pad = (k - 1) // 2
    xp = np.zeros((n + k - 1, d_in))
    xp[pad:pad + n] = x
    out = np.zeros((n, d_out))
    for i in range(n):
        for o in range(d_out):
            acc = 0.0
            for j in range(k):
                for c in range(d_in):
                    acc += filters[o, j, c] * xp[i + j, c]
            out[i, o] = acc
    return out


def conv(x, f, batch_sizes):
    """One bank of one direction, with a zero bias: the relu of a bare
    convolution."""
    return ad.conv1d_same(x, [[(f, Tensor(np.zeros(f.shape[0])))]], batch_sizes)


def packed_conv(x, f, lengths, reverse=False):
    """conv1d_same over one direction's packed rows of the token rows x."""
    packing = pack(lengths, (reverse,))
    return conv(ad.take_rows(x, packing.rows), f, packing.batch_sizes)


def test_conv1d_same_matches_brute_force():
    # A single sequence is a packing of one row.
    rng = rng_for(7)
    for n, k in [(1, 1), (1, 3), (2, 5), (5, 3), (8, 7), (4, 1)]:
        x = rng.standard_normal((n, 3))
        f = rng.standard_normal((3, k, 3))
        got = conv(Tensor(x), Tensor(f), pack([n]).batch_sizes).data
        assert np.allclose(got, np.maximum(conv_reference(x, f), 0.0), atol=1e-12), (n, k)


def test_conv1d_same_batched_matches_per_sequence():
    # Ragged rows in either direction: each packed row is its own row's
    # convolution at that step, the reversed direction reading the row
    # reversed.
    rng = rng_for(8)
    lengths = [6, 2, 4]
    xs = [rng.standard_normal((n, 2)) for n in lengths]
    f = rng.standard_normal((2, 3, 2))
    for reverse in (False, True):
        batched = packed_conv(Tensor(np.concatenate(xs)), Tensor(f), lengths, reverse).data
        for (b, t), got in zip(packed_positions(lengths), batched):
            seq = xs[b][::-1] if reverse else xs[b]
            assert np.allclose(got, np.maximum(conv_reference(seq, f)[t], 0.0), atol=1e-12)


def test_conv1d_same_gradcheck():
    rng = rng_for(9)
    x = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    f = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
    check(lambda: ad.sum_all(mul(packed_conv(x, f, [5]), packed_conv(x, f, [5]))),
          {"x": x, "f": f})
    xb = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
    for reverse in (False, True):
        check(lambda: ad.sum_all(mul(packed_conv(xb, f, [4, 2], reverse),
                                        packed_conv(xb, f, [4, 2], reverse))),
              {"xb": xb, "f": f})
    # Edges: a width-1 window, a window wider than one-step rows, and a
    # ragged batch of wider rows.
    for lengths, shape_f in [([3, 3], (2, 1, 2)), ([1, 1], (3, 5, 3)),
                             ([6, 1, 4], (4, 3, 4))]:
        xe = Tensor(rng.standard_normal((sum(lengths), shape_f[2])), requires_grad=True)
        fe = Tensor(rng.standard_normal(shape_f), requires_grad=True)
        for reverse in (False, True):
            check(lambda: ad.sum_all(mul(packed_conv(xe, fe, lengths, reverse),
                                            packed_conv(xe, fe, lengths, reverse))),
                  {"x": xe, "f": fe})


def test_conv1d_same_validation():
    x = Tensor(np.zeros((4, 3)))
    sizes = pack([4]).batch_sizes
    with pytest.raises(ConfigError):
        conv(x, Tensor(np.zeros((3, 2, 3))), sizes)  # even window
    with pytest.raises(DimensionError):
        conv(x, Tensor(np.zeros((4, 3, 4))), sizes)  # channel mismatch
    with pytest.raises(DimensionError):  # a padded (B, n, d) batch is not packed rows
        conv(Tensor(np.zeros((1, 4, 3))), Tensor(np.zeros((3, 3, 3))), sizes)
    for shape in ((2, 3, 3), (4, 3, 3)):  # a bank maps d channels to d
        with pytest.raises(DimensionError):
            conv(x, Tensor(np.zeros(shape)), sizes)
        with pytest.raises(DimensionError):
            ad.conv1d_same(x, [[(Tensor(np.zeros(shape)), Tensor(np.zeros(shape[0])))]],
                           sizes, residual=True)
    # Banks of several directions: as many per direction, of one shape, with
    # biases of their width, and an input as wide as every direction's
    # together.
    bank = (Tensor(np.zeros((3, 3, 3))), Tensor(np.zeros(3)))
    x2 = Tensor(np.zeros((4, 6)))
    with pytest.raises(ContractError):
        ad.conv1d_same(x2, [[bank], [bank, bank]], sizes)
    with pytest.raises(ContractError):
        ad.conv1d_same(x2, [], sizes)
    with pytest.raises(DimensionError):
        ad.conv1d_same(x2, [[bank], [(Tensor(np.zeros((3, 1, 3))), Tensor(np.zeros(3)))]],
                       sizes)
    with pytest.raises(DimensionError):
        ad.conv1d_same(x2, [[bank], [(bank[0], Tensor(np.zeros(2)))]], sizes)
    with pytest.raises(DimensionError):  # three directions' worth of banks
        ad.conv1d_same(x2, [[bank]] * 3, sizes)


@pytest.mark.parametrize("batch_sizes, dtype, error", [
    ([3], np.intp, DimensionError),        # the sizes of a different batch: T = 3, not 4
    ([2, 1, 1, 1], np.intp, DimensionError),
    ([], np.intp, ContractError),          # no step
    ([2, 2, 0], np.intp, ContractError),   # a step with no rows
    ([1, 3], np.intp, ContractError),      # a step with more rows than the one before
    ([4, -1, 1], np.intp, ContractError),
    ([2, 2], np.float64, ContractError),   # sizes that sum to 4, but not integers
], ids=["sum-3", "sum-5", "empty", "zero", "increasing", "negative", "float"])
def test_both_packed_ops_reject_bad_batch_sizes(batch_sizes, dtype, error):
    # One rule for both ops that read a packed layout: conv1d_same and
    # gru_scan raise the same error class for each bad batch_sizes of 4 rows.
    f = Tensor(np.zeros((3, 3, 3)))
    with pytest.raises(error):
        conv(Tensor(np.zeros((4, 3))), f, np.array(batch_sizes, dtype=dtype))
    direction = [Tensor(np.zeros((2, 2))) for _ in range(3)] + [Tensor(np.zeros(2))] * 3
    with pytest.raises(error):
        ad.gru_scan(Tensor(np.zeros((4, 6))), [direction], np.array(batch_sizes, dtype=dtype))


def conv_banks(rng, directions, m, d, k):
    """m random (filters, bias) leaves per direction."""
    return [[(Tensor(rng.standard_normal((d, k, d)) / np.sqrt(k * d), requires_grad=True),
              Tensor(rng.uniform(-0.5, 0.5, d), requires_grad=True)) for _ in range(m)]
            for _ in range(directions)]


def named_banks(banks):
    return {f"{i}.{j}.{name}": t for i, g in enumerate(banks) for j, pair in enumerate(g)
            for name, t in zip(("filters", "bias"), pair)}


def test_conv1d_same_fused_gradcheck():
    # Two directions of three banks each, with biases, relu and the residual
    # add, over both packed directions of a ragged batch; then one bank of
    # one direction without the residual.
    rng = rng_for(32)
    packing = pack([4, 1, 3])
    x = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    banks = conv_banks(rng, 2, 3, 3, 3)
    readout = Tensor(rng.standard_normal((8, 18)))
    check(lambda: ad.sum_all(mul(ad.conv1d_same(
        ad.take_rows(x, packing.rows), banks, packing.batch_sizes, residual=True), readout)),
        {"x": x, **named_banks(banks)})
    # x's rows read as one direction's packed rows: a reversed direction has
    # the same batch_sizes.
    bank = conv_banks(rng, 1, 1, 3, 3)
    readout = Tensor(rng.standard_normal((8, 3)))
    check(lambda: ad.sum_all(mul(ad.conv1d_same(x, bank, packing.batch_sizes), readout)),
          {"x": x, **named_banks(bank)})


@pytest.mark.parametrize("residual", [True, False], ids=["relu-True", "relu-False"])
def test_conv1d_same_equals_composed_banks(residual):
    # Bit for bit, the fused op against each direction's banks composed of
    # the per-bank ops it replaced (convolution, bias, relu, residual add):
    # the output and every gradient.
    rng = rng_for(35)
    packing = pack([5, 2, 7, 1])
    window = packing_window(packing.batch_sizes, 3)
    xs = [Tensor(rng.standard_normal((15, 4)), requires_grad=True) for _ in range(2)]
    banks = conv_banks(rng, 2, 3, 4, 3)
    leaves = xs + [t for g in banks for pair in g for t in pair]
    G = Tensor(rng.standard_normal((15, 24)))
    results = []
    for fused in (True, False):
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            if fused:
                out = ad.conv1d_same(ad.concat_cols(xs), banks, packing.batch_sizes,
                                     residual)
            else:
                out = ad.concat_cols([conv_banks_composed(x, g, window, residual)
                                      for x, g in zip(xs, banks)])
            tape.backward(ad.sum_all(mul(out, G)))
        results.append([out.data] + [t.grad for t in leaves])
    for got, ref in zip(*results):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("rows, d, concurrent", [(64, 128, True), (3, 4, False)])
def test_two_directions_equal_one_direction_convs_and_projections(monkeypatch, rows, d,
                                                                  concurrent):
    # deep_enhanced's gate inputs: one gather, convolution and projection
    # over both directions, against one of each per direction, bit for bit:
    # the gate inputs and the gradients of the token rows and of every
    # filter, bias and weight. At 64 rows of width 128 each op runs its second
    # direction on the worker, forward and backward; at 3 rows of width 4
    # everything runs on this thread.
    rng = rng_for(33)
    packing = pack(rng.integers(11, 21, size=rows))
    T, window = packing.size, packing_window(packing.batch_sizes, 3)
    assert (T * 3 * d * d >= ad._CONCURRENT_MATMUL_WORK) == concurrent  # project's share
    E = Tensor(rng.standard_normal((T, d)), requires_grad=True)
    banks = conv_banks(rng, 2, 3, d, 3)
    ws = [[Tensor(rng.standard_normal((d, d)) / np.sqrt(d), requires_grad=True)
           for _ in range(3)] for _ in range(2)]
    leaves = [E] + [t for g in banks for pair in g for t in pair] + [w for g in ws for w in g]
    G = Tensor(rng.standard_normal((T, 6 * d)))
    pool = CountingPool()
    monkeypatch.setattr(ad, "_WORKER", pool)
    results = []
    for together in (True, False):
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            if together:
                C = ad.conv1d_same(ad.take_rows(E, packing.rows), banks, packing.batch_sizes,
                                   residual=True)
                P = project(C, [[w] for g in ws for w in g])
            else:
                C, P = gate_inputs_per_direction(E, packing, banks, ws, window)
            tape.backward(ad.sum_all(mul(P, G)))
        results.append([C.data, P.data] + [t.grad for t in leaves])
        if together:  # conv and project, each forward and backward
            assert pool.submitted == (4 if concurrent else 0)
    for got, ref in zip(*results):
        assert np.array_equal(got, ref)
    pool.pool.shutdown()


class NoAddAt:
    """Stands in for np.add and fails on np.add.at."""

    def __init__(self):
        self.add = np.add

    def __call__(self, *args, **kwargs):
        return self.add(*args, **kwargs)

    def __getattr__(self, name):
        if name == "at":
            raise AssertionError("np.add.at called")
        return getattr(self.add, name)


def test_two_direction_gather_scatters_without_add_at(monkeypatch):
    # Each column of a packing's (T, D) index is a permutation of the token
    # rows, so the gradient of the side-by-side gather scatters by assignment
    # and indexed +=, through a whole two-direction run, forward and backward.
    rng = rng_for(34)
    cells = [make_cell("deep_enhanced", rng, 3, 3) for _ in range(2)]
    E = Tensor(rng.standard_normal((9, 3)), requires_grad=True)
    packing = pack([4, 2, 3])
    monkeypatch.setattr(np, "add", NoAddAt())
    with Tape() as tape:
        tape.backward(ad.sum_all(run_sequence(cells, E, packing)))
    assert E.grad is not None and np.all(np.isfinite(E.grad))
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(AssertionError, match="np.add.at"):  # ids with repeats use it
        with Tape() as tape:
            tape.backward(ad.sum_all(ad.take_rows(w, [1, 1])))


def test_take_rows_side_by_side_equals_one_gather_per_column():
    # ids (N, D) of permutations give the D gathers side by side, bit for
    # bit, and so does the gradient.
    rng = rng_for(36)
    ids = np.stack([rng.permutation(6), rng.permutation(6)], axis=1)
    w = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    G = Tensor(rng.standard_normal((6, 6)))
    results = []
    for together in (True, False):
        w.zero_grad()
        with Tape() as tape:
            if together:
                out = ad.take_rows(w, ids)
            else:
                out = ad.concat_cols([ad.take_rows(w, c) for c in ids.T])
            tape.backward(ad.sum_all(mul(out, G)))
        results.append((out.data, w.grad))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    with pytest.raises(DimensionError):
        ad.take_rows(w, np.zeros((2, 2, 2), dtype=int))


def scan_inputs(rng, sizes, d_h):
    """Packed gate inputs for batch_sizes ``sizes``, then the six weights."""
    P = Tensor(rng.standard_normal((sum(sizes), 3 * d_h)), requires_grad=True)
    weights = [Tensor(0.6 * rng.standard_normal((d_h, d_h)), requires_grad=True)
               for _ in range(3)]
    biases = [Tensor(rng.uniform(-0.5, 0.5, d_h), requires_grad=True) for _ in range(3)]
    return [P] + weights + biases


SCAN_NAMES = ["P", "U_z", "U_r", "U", "b_z", "b_r", "b_h"]


def scan(directions, sizes):
    """gru_scan over directions given as [P] + weights each: their gate
    inputs side by side, then their weights."""
    return ad.gru_scan(ad.concat_cols([d[0] for d in directions]),
                       [d[1:] for d in directions], sizes)


def gate_weights(rng, count, groups, c, d_h):
    """Each of count directions' [W_z, W_r, W], (d_h, c) each, in project's
    grouping: one group of three (gru), or three groups of one
    (deep_enhanced)."""
    ws = [[Tensor(rng.standard_normal((d_h, c)), requires_grad=True) for _ in range(3)]
          for _ in range(count)]
    return ws if groups == 1 else [[w] for g in ws for w in g]


def test_gru_scan_gradcheck():
    # A packed ragged batch: three rows, of lengths 4, 2 and 2, in four steps
    # of 3, 3, 2 and 1 rows; one direction alone, then two with their own
    # inputs and weights in one call.
    rng = rng_for(16)
    sizes = [3, 3, 2, 1]
    directions = [scan_inputs(rng, sizes, 3) for _ in range(2)]
    for count in (1, 2):
        readout = Tensor(rng.standard_normal((9, 3 * count)))
        params = {f"{i}.{name}": t for i, d in enumerate(directions[:count])
                  for name, t in zip(SCAN_NAMES, d)}
        check(lambda: ad.sum_all(mul(scan(directions[:count], sizes), readout)),
              params)


def test_gru_scan_validation():
    rng = rng_for(17)
    inputs = scan_inputs(rng, [2, 2, 1], 4)
    P, weights = inputs[0], inputs[1:]
    assert ad.gru_scan(P, [weights], [2, 2, 1]).shape == (5, 4)
    assert scan([inputs, inputs], [2, 2, 1]).shape == (5, 8)
    for sizes in ([1, 2, 2], [2, 2, 0, 1], [3, 2, 0], [], [0]):  # rising, or empty steps
        with pytest.raises((ContractError, DimensionError)):
            ad.gru_scan(P, [weights], sizes)
    for sizes in ([2, 2], [2, 2, 2], [4]):  # the sizes do not add up to P's rows
        with pytest.raises(DimensionError):
            ad.gru_scan(P, [weights], sizes)
    with pytest.raises(DimensionError):  # a padded (B, n, 3 d_h) batch is not packed
        ad.gru_scan(Tensor(np.zeros((1, 5, 12))), [weights], [1] * 5)
    for width in (4, 8, 13):  # the gate inputs are not 3 * d_h wide
        with pytest.raises(DimensionError):
            ad.gru_scan(Tensor(np.zeros((5, width))), [weights], [2, 2, 1])
    with pytest.raises(DimensionError):
        ad.gru_scan(P, [[Tensor(np.zeros((4, 3)))] + weights[1:]], [2, 2, 1])
    with pytest.raises(DimensionError):
        ad.gru_scan(P, [weights[:5] + [Tensor(np.zeros(3))]], [2, 2, 1])
    with pytest.raises(ContractError):  # no direction
        ad.gru_scan(P, [], [2, 2, 1])
    with pytest.raises(ContractError):  # a direction without its biases
        ad.gru_scan(P, [weights, weights[:3]], [2, 2, 1])
    # A second direction whose weights do not match the first's: another
    # hidden width, or one wrong weight.
    other = scan_inputs(rng, [2, 2, 1], 3)
    two = Tensor(np.zeros((5, 24)))
    for second in (other[1:], [Tensor(np.zeros((4, 5)))] + weights[1:],
                   weights[:4] + [Tensor(np.zeros(5))] + weights[5:]):
        with pytest.raises(DimensionError, match="direction 1"):
            ad.gru_scan(two, [weights, second], [2, 2, 1])
    # Gate inputs that are not two directions' worth: one direction's, a
    # second direction of another width, or another batch's.
    for P2 in (P, Tensor(np.zeros((5, 21))), Tensor(np.zeros((4, 24)))):
        with pytest.raises(DimensionError, match="P must have shape"):
            ad.gru_scan(P2, [weights, weights], [2, 2, 1])
    # Weights that do not make the gate inputs from x: the wrong width, too
    # few, not chaining with x, or another batch's rows.
    x = Tensor(rng.standard_normal((5, 3)))
    assert ad.gru_scan(x, [weights], [2, 2, 1], gate_weights(rng, 1, 1, 3, 4)).shape == (5, 4)
    for groups in (gate_weights(rng, 1, 1, 3, 5), [gate_weights(rng, 1, 1, 3, 4)[0][:2]],
                   gate_weights(rng, 1, 1, 2, 4)):
        with pytest.raises(DimensionError):
            ad.gru_scan(x, [weights], [2, 2, 1], groups)
    with pytest.raises(DimensionError, match="P must have shape"):
        ad.gru_scan(x, [weights], [2, 1], gate_weights(rng, 1, 1, 3, 4))


def test_gru_scan_with_weights_gradcheck():
    # The scan forms its gate inputs from x, for both weight groupings and one
    # or two directions, on the ragged batch above.
    rng = rng_for(23)
    sizes, c, d_h = [3, 3, 2, 1], 2, 3
    for groups in (1, 3):
        for count in (1, 2):
            x = Tensor(rng.standard_normal((9, count * groups * c)), requires_grad=True)
            directions = [scan_inputs(rng, sizes, d_h)[1:] for _ in range(count)]
            weights = gate_weights(rng, count, groups, c, d_h)
            readout = Tensor(rng.standard_normal((9, count * d_h)))
            params = {"x": x, **{f"W{i}.{j}": w for i, g in enumerate(weights)
                                 for j, w in enumerate(g)},
                      **{f"{i}.{name}": t for i, d in enumerate(directions)
                         for name, t in zip(SCAN_NAMES[1:], d)}}
            check(lambda: ad.sum_all(mul(ad.gru_scan(x, directions, sizes, weights),
                                            readout)), params)


def test_worker_runs_in_the_callers_numpy_error_state():
    seen = []
    loops = [lambda: seen.append(np.geterr()["over"]) for _ in range(2)]
    with np.errstate(over="raise"):
        ad._run_loops(loops, concurrent=True)
    with np.errstate(over="ignore"):
        ad._run_loops(loops, concurrent=True)
    assert seen == ["raise", "raise", "ignore", "ignore"]


class CountingPool:
    """Stands in for the scan's worker: counts the loops given to it."""

    def __init__(self):
        self.submitted = 0
        self.pool = ThreadPoolExecutor(max_workers=1)

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


@pytest.mark.parametrize("b, d_h, concurrent", [(32, 128, True), (2, 4, False)])
def test_two_directions_equal_two_one_direction_scans(monkeypatch, b, d_h, concurrent):
    # One call over two directions against one call per direction, bit for
    # bit: the states, each direction's gate-input gradient and all twelve
    # weight gradients. At b = 32, d_h = 128 the second direction's loops run
    # on the worker; at b = 2, d_h = 4 everything runs on this thread.
    rng = rng_for(31)
    lengths = rng.integers(1, 41, size=b)  # loops long enough for a race to show
    sizes = pack(lengths).batch_sizes
    total = int(sizes.sum())
    directions = [scan_inputs(rng, sizes, d_h) for _ in range(2)]
    G = rng.standard_normal((total, 2 * d_h))
    pool = CountingPool()
    monkeypatch.setattr(ad, "_WORKER", pool)
    results = []
    for together in (True, False):
        for t in directions[0] + directions[1]:
            t.zero_grad()
        with Tape() as tape:
            if together:
                states = scan(directions, sizes)
            else:
                states = ad.concat_cols([scan([d], sizes) for d in directions])
            tape.backward(ad.sum_all(mul(states, Tensor(G))))
        results.append([states.data] + [t.grad for t in directions[0] + directions[1]])
    for got, ref in zip(*results):
        assert np.array_equal(got, ref)
    assert pool.submitted == (2 if concurrent else 0)  # one forward, one backward
    pool.pool.shutdown()


def test_owned_gradients_take_later_gradients_in_place():
    # gru_scan's dP and dense's dx are kept without a copy. A leaf used
    # first by another op gets that op's gradient last, added into the kept
    # array: its gradient must be the sum, and no op's output may change.
    # Both scan directions read the same gate inputs, so the second
    # direction's block of dP lands on the first's.
    rng = rng_for(22)
    sizes = [3, 2, 2]
    inputs = scan_inputs(rng, sizes, 4)
    second = [inputs[0]] + scan_inputs(rng, sizes, 4)[1:]
    x = Tensor(rng.standard_normal((7, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    bias = Tensor(rng.standard_normal(6))
    G_scan, G_proj = Tensor(rng.standard_normal((7, 8))), Tensor(rng.standard_normal((7, 6)))
    G_p, G_x = rng.standard_normal((7, 12)), rng.standard_normal((7, 5))

    def loss(extra):
        terms = []
        if extra:  # recorded first, so reached last
            terms += [ad.sum_all(mul(inputs[0], Tensor(G_p))),
                      ad.sum_all(mul(x, Tensor(G_x)))]
        terms += [ad.sum_all(mul(scan([inputs, second], sizes), G_scan)),
                  ad.sum_all(mul(ad.dense(x, w, bias, "relu"), G_proj))]
        total = terms[0]
        for term in terms[1:]:
            total = add(total, term)
        return total

    with Tape() as tape:
        tape.backward(loss(False))
    alone = [inputs[0].grad, x.grad]
    inputs[0].zero_grad()
    x.zero_grad()
    with Tape() as tape, held_outputs() as outputs:
        total = loss(True)
        outputs += [*inputs, *second[1:], x, w]  # and the leaves
        kept = [t.data.copy() for t in outputs]
        tape.backward(total)
    assert all(np.array_equal(t.data, k) for t, k in zip(outputs, kept))
    assert np.array_equal(inputs[0].grad, alone[0] + G_p)
    assert np.array_equal(x.grad, alone[1] + G_x)


def test_scan_backward_allocates_no_second_gate_array():
    # The backward writes dP over the gate array the forward kept, so what it
    # traces above where it began stays below one gate array plus one x-sized
    # array: two directions, with weights, at T = 400.
    rng = rng_for(43)
    sizes, c, d_h = [8] * 50, 8, 8
    T = sum(sizes)
    x = Tensor(rng.standard_normal((T, 2 * c)), requires_grad=True)
    directions = [scan_inputs(rng, sizes, d_h)[1:] for _ in range(2)]
    readout = Tensor(rng.standard_normal((T, 2 * d_h)))
    with Tape() as tape:
        loss = ad.sum_all(mul(ad.gru_scan(x, directions, sizes,
                                             gate_weights(rng, 2, 1, c, d_h)), readout))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - start < T * 2 * 3 * d_h * 8 + x.data.nbytes


def test_scan_backward_allocates_no_row_scratch():
    assert_no_row_scratch()


def assert_no_row_scratch():
    # With the states dropped, the backward writes each h_{t-1} over the
    # states' dead block and x's gradient over the upstream gradient, so what
    # it traces above where it began stays below that gradient, the weight
    # and bias gradients (each formed, then copied out) and the b-row buffers,
    # with less than one (T, D d_h) array of headroom: two directions, with
    # weights, d = d_h, at T = 400.
    rng = rng_for(47)
    sizes, d_h = [8] * 50, 16
    T, b = sum(sizes), sizes[0]
    x = Tensor(rng.standard_normal((T, 2 * d_h)), requires_grad=True)
    directions = [scan_inputs(rng, sizes, d_h)[1:] for _ in range(2)]
    weights = gate_weights(rng, 2, 1, d_h, d_h)
    with Tape() as tape:
        loss = ad.sum_all(ad.gru_scan(x, directions, sizes, weights))
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    states = T * 2 * d_h * 8
    grads = 2 * sum(t.data.nbytes for t in [w for g in weights for w in g]
                    + [t for d in directions for t in d])
    rows = 2 * 7 * b * d_h * 8
    assert peak - start < states + grads + rows + states // 2


@pytest.mark.parametrize("groups", [None, 1, 3])
def test_held_and_dropped_states_give_the_same_gradients(groups):
    assert_held_and_dropped_agree(groups)


def assert_held_and_dropped_agree(groups):
    # The backward writes over the states only once the caller holds neither
    # them nor a view of them (a reshape of the dropped output). Held, viewed
    # or dropped, every gradient is the same bit for bit, and held or viewed
    # states are never written: deep (no weights), gru (x's gradient fits in
    # the upstream gradient) and deep_enhanced (three groups; it does not).
    rng = rng_for(48)
    sizes, c, d_h = [4, 3, 3, 1], 3, 3
    T = sum(sizes)
    directions = [scan_inputs(rng, sizes, d_h)[1:] for _ in range(2)]
    if groups is None:
        x = Tensor(rng.standard_normal((T, 2 * 3 * d_h)), requires_grad=True)
        weights = None
    else:
        x = Tensor(rng.standard_normal((T, 2 * groups * c)), requires_grad=True)
        weights = gate_weights(rng, 2, groups, c, d_h)
    params = [x] + [t for d in directions for t in d] + [w for g in weights or [] for w in g]
    readout = Tensor(rng.standard_normal((T, 2 * d_h)))
    grads, held = [], []
    for hold in ("states", "view", None):
        for t in params:
            t.zero_grad()
        with Tape() as tape:
            states = ad.gru_scan(x, directions, sizes, weights)
            if hold == "view":
                states = ad.reshape(states, (T, 2 * d_h))
            loss = ad.sum_all(mul(states, readout))
            if hold:
                held.append((states, states.data.copy()))
            del states
            tape.backward(loss)
        grads.append([t.grad.tobytes() for t in params])
    for states, kept in held:
        assert states.data.tobytes() == kept.tobytes()
    assert grads[0] == grads[1] == grads[2]


@pytest.mark.parametrize("lower", [1, -1])
def test_scan_writes_in_place_by_the_probe_not_a_fixed_count(monkeypatch, lower):
    # An interpreter may count a call's references differently (3.14 borrows
    # some, and reads lower). With sys.getrefcount reading `lower` less than
    # it does here, and the probe's reading taken again under that, held and
    # viewed states are still never written, every gradient is the same, and
    # dropped states are still written over.
    real, probe = sys.getrefcount, object()
    wrapped = (lambda o: real(o))(probe) - real(probe)  # the wrapper's own reference
    monkeypatch.setattr(sys, "getrefcount", lambda o: real(o) - wrapped - lower)
    monkeypatch.setattr(ad, "_SOLE_REFCOUNT", ad._sole_refcount())
    for groups in (None, 1, 3):
        assert_held_and_dropped_agree(groups)
    assert_no_row_scratch()


def test_conv_backward_reuses_the_im2col_buffer():
    # The backward gathers the gradient's windows into the forward's im2col
    # buffers and forms one tap-reversed filter per direction at a time, so
    # what it traces above where it began stays below its gradient, its
    # gradients of x and of the filters, and one im2col-sized buffer per
    # direction: two directions of three banks, at T = 400.
    rng = rng_for(45)
    packing = pack([8] * 50)
    T, d, k = packing.size, 32, 5
    x = Tensor(rng.standard_normal((T, 2 * d)), requires_grad=True)
    banks = conv_banks(rng, 2, 3, d, k)
    with Tape() as tape:
        out = ad.conv1d_same(x, banks, packing.batch_sizes, residual=True)
        loss = ad.sum_all(out)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    filters = sum(f.data.nbytes for g in banks for f, _ in g)
    assert peak - start < out.data.nbytes + x.data.nbytes + filters + 2 * T * k * d * 8


def test_project_gradcheck():
    # One input shared by three weights of unequal widths, three inputs with
    # a weight each, and two directions with three weights each; each against
    # a finite-difference gradient.
    rng = rng_for(18)
    xs = [Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True) for _ in range(3)]
    ws = [Tensor(rng.standard_normal((w, 4)), requires_grad=True) for w in (2, 3, 1)]
    us = [Tensor(rng.standard_normal(w.shape), requires_grad=True) for w in ws]
    vs = [Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(3)]
    named = lambda prefix, ts: {f"{prefix}{i}": t for i, t in enumerate(ts)}
    for inputs, groups, width in ((xs[:1], [ws], 6), (xs, [[v] for v in vs], 9),
                                  (xs[:2], [ws, us], 12)):
        readout = Tensor(rng.standard_normal((2, 3, width)))
        params = {**named("x", inputs), **named("w", [w for g in groups for w in g])}
        check(lambda: ad.sum_all(mul(project(ad.concat_cols(inputs), groups),
                                        readout)), params)
    # A (B, d) batch, as a dense layer projects it.
    x2 = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    check(lambda: ad.sum_all(mul(project(x2, [ws[1:2]]), Tensor(np.ones((3, 3))))),
          {"x": x2, "w": ws[1]})


def test_project_equals_separate_matmuls():
    rng = rng_for(19)
    xs = [rng.standard_normal((2, 3, 4)) for _ in range(3)]
    ws = [rng.standard_normal((5, 4)) for _ in range(3)]
    shared = project(Tensor(xs[0]), [[Tensor(w) for w in ws]]).data
    each = project(Tensor(np.concatenate(xs, axis=-1)), [[Tensor(w)] for w in ws]).data
    assert shared.shape == each.shape == (2, 3, 15)
    for i, w in enumerate(ws):
        assert np.allclose(shared[..., 5 * i:5 * (i + 1)], xs[0] @ w.T, rtol=1e-13)
        assert np.allclose(each[..., 5 * i:5 * (i + 1)], xs[i] @ w.T, rtol=1e-13)


def test_project_validation():
    x = Tensor(np.zeros((2, 3, 4)))
    w = Tensor(np.zeros((5, 4)))
    with pytest.raises(DimensionError):  # two inputs for three groups
        project(Tensor(np.zeros((2, 3, 8))), [[w], [w], [w]])
    with pytest.raises(ContractError):
        project(x, [[]])
    with pytest.raises(ContractError):
        project(x, [])
    with pytest.raises(DimensionError):  # a bare vector is not a batch
        project(Tensor(np.zeros(4)), [[w]])
    with pytest.raises(DimensionError):  # the weight does not chain
        project(x, [[w, Tensor(np.zeros((5, 3)))]])
    with pytest.raises(DimensionError):  # the groups' weights disagree
        project(Tensor(np.zeros((2, 3, 8))), [[w], [Tensor(np.zeros((3, 4)))]])
    with pytest.raises(DimensionError):  # the input does not split into groups
        project(Tensor(np.zeros((2, 3, 9))), [[w], [w]])


# ---------------------------------------------------------------------------
# Head ops: dense and bce
# ---------------------------------------------------------------------------

def same_bits(got, ref):
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["relu", "sigmoid"])
def test_dense_equals_composed_project_bias_activation(kind):
    # Bit for bit, the one dense node against project, bias_add and the
    # activation as three nodes: the output and the gradients of x, W and b.
    # x is also read by a second op, so its gradient adds two terms, and a
    # zero row with a zero bias entry puts relu exactly at 0.
    rng = rng_for(40)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    x.data[2] = 0.0
    W = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    b.data[1] = 0.0
    G, G_x = Tensor(rng.standard_normal((5, 3))), Tensor(rng.standard_normal((5, 4)))
    results = []
    for op in (ad.dense, dense_composed):
        for t in (x, W, b):
            t.zero_grad()
        with Tape() as tape:
            out = op(x, W, b, kind)
            tape.backward(add(ad.sum_all(mul(x, G_x)), ad.sum_all(mul(out, G))))
        results.append([out.data, x.grad, W.grad, b.grad])
    for got, ref in zip(*results):
        assert same_bits(got, ref), kind


def test_dense_gradcheck():
    rng = rng_for(41)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    W = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
    readout = Tensor(rng.standard_normal((4, 2)))
    for kind in ("relu", "sigmoid"):
        check(lambda kind=kind: ad.sum_all(mul(ad.dense(x, W, b, kind), readout)),
              {"x": x, "W": W, "b": b})


def test_dense_validation():
    x, W, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(4))
    assert ad.dense(x, W, b, "relu").shape == (2, 4)
    with pytest.raises(ConfigError):
        ad.dense(x, W, b, "softsign")
    with pytest.raises(DimensionError):  # the bias does not match the weights
        ad.dense(x, W, Tensor(np.zeros(3)), "relu")
    with pytest.raises(DimensionError):  # a bias of one entry does not broadcast
        ad.dense(x, W, Tensor(np.zeros(1)), "relu")
    with pytest.raises(DimensionError):  # x does not chain with W
        ad.dense(x, Tensor(np.zeros((4, 2))), b, "relu")
    with pytest.raises(DimensionError):  # x is not a (N, d_in) batch
        ad.dense(Tensor(np.zeros((2, 2, 3))), W, b, "relu")


@pytest.mark.parametrize("kind", ["sigmoid", "relu"])
def test_dense_overflow_is_a_numeric_error(kind):
    # sigmoid and relu map a pre-activation of -inf to a finite 0, so the
    # check must look at the pre-activation, as the composed project and
    # bias_add outputs were checked: first the product overflows, then only
    # the bias's add does. numpy's overflow warnings are silenced, as the
    # CLI silences them.
    for x, W, b in (([[1e200, 1e200], [0.5, 0.5]], [[-1e200, -1e200]], [0.0]),
                    ([[-1e308], [0.5]], [[1.0]], [-1e308])):
        for op in (dense_composed, ad.dense):
            with np.errstate(over="ignore"), pytest.raises(NumericError):
                op(Tensor(x), Tensor(W), Tensor(b), kind)


def test_bce_equals_composed_clip_log_mean():
    # Bit for bit, the one bce node against its nine composed nodes: the
    # loss and p's gradient, at, inside and beyond the clamp's bounds, for
    # labels 0, 1 and in between, as the loss itself and scaled inside a
    # larger loss (an upstream gradient other than 1).
    lo, hi = 1e-7, 1.0 - 1e-7
    p = Tensor([lo, hi, 0.0, 1.0, -0.5, 1.5, 1e-9, 1.0 - 1e-9, 0.3, 0.5, 0.9, 2e-7],
               requires_grad=True)
    for y in (np.tile([0.0, 1.0], 6), np.tile([1.0, 0.0, 0.25], 4)):
        for scale in (None, 2.5):
            results = []
            for op in (ad.bce, bce_composed):
                p.zero_grad()
                with Tape() as tape:
                    loss = op(p, y)
                    tape.backward(loss if scale is None else mul(loss, scale))
                results.append([loss.data, p.grad])
            for got, ref in zip(*results):
                assert same_bits(got, ref), (y, scale)


def test_bce_gradcheck():
    # Inside the clamp's bounds, through a sigmoid dense layer as the
    # classifier's output layer runs it.
    rng = rng_for(42)
    p = Tensor([0.2, 0.7, 0.95, 0.01, 0.5], requires_grad=True)
    check(lambda: ad.bce(p, np.array([1.0, 0.0, 1.0, 0.0, 1.0])), {"p": p})
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    W = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-0.5, 0.5, 1), requires_grad=True)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    check(lambda: ad.bce(ad.reshape(ad.dense(x, W, b, "sigmoid"), (4,)), y),
          {"x": x, "W": W, "b": b})


def test_bce_validation():
    with pytest.raises(DimensionError):
        ad.bce(Tensor([0.5]), np.array([1.0, 0.0]))
    with pytest.raises(NumericError):
        ad.bce(Tensor([0.5, 0.5]), np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# finite_diff_gradcheck contract
# ---------------------------------------------------------------------------

def test_gradcheck_detects_nondeterminism():
    state = {"n": 0}

    def f():
        state["n"] += 1
        return Tensor(float(state["n"]))

    with pytest.raises(ContractError):
        finite_diff_gradcheck(f, {})


def test_gradcheck_rejects_bad_step():
    with pytest.raises(ConfigError):
        finite_diff_gradcheck(lambda: Tensor(0.0), {}, h=0.0)
    for h in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            finite_diff_gradcheck(lambda: Tensor(0.0), {}, h=h)


def test_gradcheck_rejects_bad_tolerance():
    # A NaN tolerance would fail no entry (e >= nan is false), so the check
    # would pass whatever the gradients.
    for tol in (0.0, -1e-4, np.nan, np.inf):
        with pytest.raises(ConfigError, match="tolerance"):
            finite_diff_gradcheck(lambda: Tensor(0.0), {}, tol=tol)


def test_gradcheck_flags_wrong_gradient():
    # The value depends on x but the computation bypasses the tape entirely,
    # so the analytic gradient is zero while the numeric one is 2x: the
    # checker must flag the disagreement.
    x = Tensor([1.5], requires_grad=True)

    def g():
        return Tensor(float(np.sum(x.data * x.data)))

    report = finite_diff_gradcheck(g, {"x": x})
    assert not report.passed
    assert report.max_rel_err > 0.1


def matmul_with(dW):
    """x @ W on the tape, whose backward sends W the gradient dW(x, g)."""
    def op(x, W):
        def apply(g, emit):
            emit(1, dW(x.data, g))
        return ad._emit_op("matmul", (x, W), Tensor(x.data @ W.data), apply)
    return op


@pytest.mark.parametrize("planted", [
    lambda x, g: (x.T @ g).T,  # dW transposed
    lambda x, g: (x.T @ g) * (1 + 1e-3),  # dW off by 0.1%, ten times the bound
])
def test_gradcheck_flags_planted_gradient_errors(planted):
    rng = rng_for(5)
    x = rng.standard_normal((4, 3))
    W = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    for op, right in ((matmul_with(lambda x, g: x.T @ g), True), (matmul_with(planted), False)):
        report = finite_diff_gradcheck(
            lambda: ad.sum_all(activation("tanh", op(Tensor(x), W))), {"W": W})
        assert report.passed == right, report.per_param


def test_gradcheck_compares_entries_below_the_roundoff_floor_absolutely():
    # loss = 4.5·p0 + 1e-10·p1. A central difference of the loss moves in
    # units of its last place, 8.9e-16, so the numeric 1e-10 reads 8.9e-11 or
    # 1.3e-10: a relative error near 1e-1, and 1e-3 against the old 1e-8
    # floor. Below 2·eps·4.5/(h·1e-4) = 2e-6 the error is taken relative to
    # that floor, and the check passes. A wrong entry there still fails.
    c = np.array([4.5, 1e-10])
    p = Tensor([1.0, 1.0], requires_grad=True)
    assert finite_diff_gradcheck(lambda: ad.sum_all(mul(Tensor(c), p)), {"p": p}).passed

    def p_with_wrong_small_entry():  # p, whose backward adds 1e-9 to p1's gradient
        return ad._emit_op("plant", (p,), Tensor(p.data.copy()),
                           lambda g, emit: emit(0, g + np.array([0.0, 1e-9])))

    report = finite_diff_gradcheck(
        lambda: ad.sum_all(mul(Tensor(c), p_with_wrong_small_entry())), {"p": p})
    assert not report.passed, report.per_param
