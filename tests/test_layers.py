"""Embedding, convolution bank, dense layer, and dropout behavior.

The layers take their tensors as arguments and check nothing; each shape
test here runs the tensors through the op that checks them."""

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor, finite_diff_gradcheck
from cru.classifier import SentimentModel, TrainConfig
from cru.data import Vocab
from cru.errors import ConfigError, ContractError, DimensionError
from cru.layers import PAD_ID, dense_forward, dropout_apply, glorot_uniform, same_length_conv
from cru.recurrent import draw, make_cell, pack, run_sequence
from oracles import fresh_bank, mul


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

def embed_config(dim):
    return TrainConfig(variant="gru", embed_dim=dim, hidden_dim=2, fc_dim=2)


def test_embedding_init_zeroes_pad_row():
    table = SentimentModel.build(embed_config(4), 6, rng_for(0)).embedding
    assert np.all(table.data[PAD_ID] == 0.0)
    assert table.requires_grad
    assert table.shape == (6, 4)


def test_embedding_needs_special_rows():
    # Every vocabulary holds the pad and unk rows, so a table without them
    # never matches one.
    assert len(Vocab([])) == 2
    with pytest.raises(ConfigError):
        SentimentModel.build(embed_config(4), len(Vocab([])), rng_for(0),
                             embedding=Tensor(np.zeros((1, 4))))


# The lookup is the one forward_batch does: take_rows on the table with the
# flattened (B, n) ids.

def table_for(seed, rows, dim):
    return Tensor(rng_for(seed).uniform(-0.05, 0.05, (rows, dim)), requires_grad=True)


def test_embed_lookup_gathers_rows():
    table = table_for(1, 5, 3)
    ids = np.array([2, 4, 2])
    out = ad.take_rows(table, ids)
    assert np.allclose(out.data, table.data[ids])


def test_embed_lookup_2d_ids():
    table = table_for(2, 5, 3)
    ids = np.array([[1, 2], [3, 4]])
    out = ad.reshape(ad.take_rows(table, ids.reshape(-1)), (2, 2, 3))
    assert np.allclose(out.data, table.data[ids])


def test_embed_lookup_rejects_empty():
    table = table_for(3, 5, 3)
    with pytest.raises(ContractError):
        ad.take_rows(table, np.array([], dtype=np.intp))


def test_embed_lookup_gradient_accumulates_per_row():
    table = table_for(4, 5, 2)
    with Tape() as tape:
        out = ad.take_rows(table, np.array([3, 3, 1]))
        tape.backward(ad.sum_all(out))
    g = np.asarray(table.grad)
    assert np.allclose(g[3], 2.0) and np.allclose(g[1], 1.0)
    assert np.allclose(g[[0, 2, 4]], 0.0)


# ---------------------------------------------------------------------------
# Convolution bank
# ---------------------------------------------------------------------------

def conv_of(bank):
    """The bank over one sequence of two rows of three channels."""
    return same_length_conv([[bank]], Tensor(np.zeros((2, 3))), pack([2]).batch_sizes)


def test_conv_bank_rejects_even_window():
    with pytest.raises(ConfigError):
        conv_of((Tensor(np.zeros((3, 4, 3))), Tensor(np.zeros(3))))
    # Nor does a cell's bank run: a cell built with an even width fails on
    # its first run.
    cell = make_cell("shallow", rng_for(0), 3, 3, k=4)
    with pytest.raises(ConfigError):
        run_sequence([cell], Tensor(np.zeros((2, 3))), pack([2], (False,)))


def test_conv_bank_rejects_bad_bias():
    with pytest.raises(DimensionError):
        conv_of((Tensor(np.zeros((3, 3, 3))), Tensor(np.zeros(2))))


def test_same_length_conv_hand_oracle():
    # Two filters of width 3 over a 2-channel length-3 input, then relu;
    # values small enough to verify by hand.
    x = np.array([[1.0, 0.0],
                  [0.0, 1.0],
                  [2.0, 0.0]])
    f = np.zeros((2, 3, 2))
    f[0, 0, 0] = 1.0   # left neighbor, channel 0
    f[0, 1, 1] = 10.0  # center, channel 1
    f[0, 2, 0] = 100.0  # right neighbor, channel 0
    f[1, 1, 0] = -1.0  # center, channel 0
    f[1, 2, 1] = 5.0   # right neighbor, channel 1
    bank = (Tensor(f), Tensor(np.zeros(2)))
    out = same_length_conv([[bank]], Tensor(x), pack([3]).batch_sizes)
    # filter 0, position 0: left pad (0) + 10*x[0,1] + 100*x[1,0] = 0
    #           position 1: 1*x[0,0] + 10*x[1,1] + 100*x[2,0] = 1 + 10 + 200 = 211
    #           position 2: 1*x[1,0] + 10*x[2,1] + 100*pad = 0
    # filter 1, position 0: -x[0,0] + 5*x[1,1] = -1 + 5 = 4
    #           position 1: -x[1,0] + 5*x[2,1] = 0
    #           position 2: -x[2,0] + 5*pad = -2, which relu makes 0
    assert np.allclose(out.data, [[0.0, 4.0], [211.0, 0.0], [0.0, 0.0]])


def test_same_length_conv_applies_bias_then_activation():
    x = np.zeros((2, 3))
    bank = (Tensor(np.zeros((3, 1, 3))), Tensor([-1.0, 0.5, 2.0]))
    out = same_length_conv([[bank]], Tensor(x), pack([2]).batch_sizes)
    assert np.allclose(out.data, np.tile([0.0, 0.5, 2.0], (2, 1)))


def test_same_length_conv_shape_contract():
    rng = rng_for(5)
    for n in (1, 2, 7, 16):
        for k in (1, 3, 5):
            bank = fresh_bank(rng, 4, k)
            packing = pack([n, n])
            out = same_length_conv([[bank]], Tensor(rng.standard_normal((2 * n, 4))),
                                   packing.batch_sizes)
            assert out.shape == (2 * n, 4)


def test_same_length_conv_gradcheck():
    rng = rng_for(6)
    bank = fresh_bank(rng, 2, 3)
    x = Tensor(rng.standard_normal((10, 2)), requires_grad=True)
    sizes = pack([5, 5]).batch_sizes
    params = {"filters": bank[0], "bias": bank[1], "x": x}
    report = finite_diff_gradcheck(
        lambda: ad.sum_all(mul(same_length_conv([[bank]], x, sizes),
                                  same_length_conv([[bank]], x, sizes))), params)
    assert report.passed, report.per_param


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------

def fresh_dense(rng, d_out, d_in):
    """A dense layer's (W, b), drawn as the model's head."""
    return tuple(draw({"fc.weights": (d_out, d_in), "fc.bias": (d_out,)}, rng).values())


def test_dense_forward_matches_numpy():
    rng = rng_for(7)
    W, b = fresh_dense(rng, 3, 4)
    b.data[:] = rng.standard_normal(3)
    x = rng.standard_normal((2, 4))
    out = dense_forward(Tensor(x), W, b, "relu")
    assert np.allclose(out.data, np.maximum(x @ W.data.T + b.data, 0.0))


def test_dense_forward_shape_mismatch():
    W, b = fresh_dense(rng_for(9), 3, 4)
    with pytest.raises(DimensionError):
        dense_forward(Tensor(np.zeros((2, 5))), W, b, "relu")
    with pytest.raises(DimensionError):  # a bare vector is not a batch
        dense_forward(Tensor(np.zeros(4)), W, b, "relu")
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        dense_forward(x, W, Tensor(np.zeros(4)), "relu")
    with pytest.raises(DimensionError):
        dense_forward(x, Tensor(np.zeros(4)), b, "relu")
    with pytest.raises(ConfigError):
        dense_forward(x, W, b, "swish")


def test_dense_gradcheck():
    rng = rng_for(10)
    W, b = fresh_dense(rng, 2, 3)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    report = finite_diff_gradcheck(
        lambda: ad.sum_all(dense_forward(x, W, b, "sigmoid")), {"w": W, "b": b, "x": x})
    assert report.passed


def test_glorot_uniform_bound():
    w = glorot_uniform(rng_for(11), (50, 20))
    bound = np.sqrt(6.0 / 70)
    assert np.all(np.abs(w) <= bound)
    assert np.max(np.abs(w)) > 0.5 * bound  # actually fills the range


# ---------------------------------------------------------------------------
# Dropout
# ---------------------------------------------------------------------------

def test_dropout_eval_mode_is_identity():
    x = Tensor(np.ones((3, 3)))
    out = dropout_apply(x, 0.5, train=False)
    assert out is x


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.ones((3, 3)))
    out = dropout_apply(x, 0.0, train=True, rng=rng_for(12))
    assert out is x


def test_dropout_rejects_rate_one():
    with pytest.raises(ConfigError):
        dropout_apply(Tensor(np.ones(3)), 1.0, train=True, rng=rng_for(13))
    with pytest.raises(ConfigError):
        dropout_apply(Tensor(np.ones(3)), -0.1, train=True, rng=rng_for(13))


def test_dropout_mask_values_are_zero_or_scaled():
    mask = dropout_apply(Tensor(np.ones(1000)), 0.3, train=True, rng=rng_for(14)).data
    keep = 1.0 - 0.3
    vals = set(np.round(np.unique(mask), 12))
    assert vals <= {0.0, round(1.0 / keep, 12)}
    # Inverted scaling keeps the expectation near 1.
    assert abs(mask.mean() - 1.0) < 0.06


def test_dropout_needs_rng_or_mask_in_train_mode():
    with pytest.raises(ContractError):
        dropout_apply(Tensor(np.ones(3)), 0.5, train=True)


def test_dropout_with_explicit_mask_and_gradient():
    # The mask is drawn from the rng; replaying the stream reproduces it.
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    mask = (rng_for(15).random((2, 2)) < 0.5) / 0.5
    with Tape() as tape:
        out = dropout_apply(x, 0.5, train=True, rng=rng_for(15))
        tape.backward(ad.sum_all(out))
    assert np.allclose(out.data, mask)
    assert np.allclose(x.grad, mask)


def test_dropout_op_equals_the_product_with_a_float_mask():
    # ad.dropout keeps a boolean mask. Forward and gradient, it gives the bits
    # of the product with the float mask kept / keep, signed zeros included:
    # a negative entry or gradient under a dropped entry gives -0.0.
    rng = rng_for(18)
    keep = 0.7
    kept = rng.random((5, 4)) < keep
    X, G = rng.standard_normal((2, 5, 4))
    X[~kept], G[~kept] = -np.abs(X[~kept]), -np.abs(G[~kept])
    results = []
    for op in (lambda x: ad.dropout(x, kept, keep), lambda x: mul(x, Tensor(kept / keep))):
        x = Tensor(X, requires_grad=True)
        with Tape() as tape:
            out = op(x)
            tape.backward(ad.sum_all(mul(out, Tensor(G))))
        results.append((out.data.tobytes(), x.grad.tobytes()))
        assert np.signbit(out.data[~kept]).all() and np.signbit(x.grad[~kept]).all()
    assert results[0] == results[1]
    for bad in (kept[:2], kept / keep):  # a mask of x's shape, and boolean
        with pytest.raises(DimensionError):
            ad.dropout(Tensor(X), bad, keep)


def test_dropout_of_selected_rows_draws_over_the_whole_matrix():
    # The token rows of a padded batch get exactly the mask entries that a
    # mask over all its positions gives them, and the rows must match.
    rng = rng_for(16)
    X = rng.standard_normal((6, 4))
    rows = np.array([True, True, False, True, False, False])
    full = dropout_apply(Tensor(X), 0.5, train=True, rng=rng_for(17)).data
    part = dropout_apply(Tensor(X[rows]), 0.5, train=True, rng=rng_for(17), rows=rows)
    assert np.array_equal(part.data, full[rows])
    with pytest.raises(DimensionError):  # two rows for three selected
        dropout_apply(Tensor(X[:2]), 0.5, train=True, rng=rng_for(17), rows=rows)
    with pytest.raises(DimensionError):  # a selection is a boolean vector
        dropout_apply(Tensor(X[:3]), 0.5, train=True, rng=rng_for(17),
                      rows=np.array([0, 1, 3]))
