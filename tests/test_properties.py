"""Property tests: a zero-padded batch equals one-row batches of its rows,
and the im2col convolution equals its einsum reference."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor
from cru.classifier import SentimentModel, TrainConfig, seeded_rng
from cru.data import EncodedSample, batch_and_pad
from cru.recurrent import VARIANTS, make_cell, run_sequence
from oracles import conv1d_same_einsum

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

cases = st.tuples(st.sampled_from(VARIANTS),
                  st.lists(st.integers(1, 9), min_size=1, max_size=5),
                  st.integers(0, 2**32 - 1))


@PROPERTY
@given(cases)
def test_run_sequence_masked_batch_equals_rows(case):
    variant, lengths, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    d = 3
    cell = make_cell(variant, rng, d, d)
    width = max(lengths)
    Eb = np.zeros((len(lengths), width, d))
    for row, n in enumerate(lengths):
        Eb[row, :n] = rng.standard_normal((n, d))
    states = run_sequence(cell, Tensor(Eb))
    for row, n in enumerate(lengths):
        one = run_sequence(cell, Tensor(Eb[row:row + 1, :n]))
        assert np.max(np.abs(states[n - 1].data[row] - one[-1].data[0])) < 1e-12
        for t in range(n):
            assert np.max(np.abs(states[t].data[row] - one[t].data[0])) < 1e-12


@PROPERTY
@given(cases)
def test_forward_batch_padded_equals_rows(case):
    variant, lengths, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    config = TrainConfig(variant=variant, embed_dim=3, hidden_dim=3, fc_dim=4,
                         dropout=0.0, vocab_cap=None, pretrained=None)
    model = SentimentModel.build(config, vocab_size=8, rng=seeded_rng(seed, 1))
    samples = [EncodedSample(rng.integers(2, 8, size=n), 0) for n in lengths]
    (batch,) = batch_and_pad(samples, len(samples))
    together = model.forward_batch(batch).data
    for row, sample in enumerate(samples):
        (one,) = batch_and_pad([sample], 1)
        assert abs(together[row] - model.forward_batch(one).data[0]) < 1e-12


conv_cases = st.tuples(st.integers(1, 4), st.integers(1, 9), st.sampled_from([1, 3, 5, 7]),
                       st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))


@PROPERTY
@given(conv_cases)
@example((2, 1, 7, 3, 2, 0))  # the padding (3 steps) is wider than the sequence
@example((1, 2, 7, 1, 5, 1))
def test_conv1d_same_equals_einsum_reference(case):
    b, n, k, d_in, d_out, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    x = Tensor(rng.standard_normal((b, n, d_in)), requires_grad=True)
    f = Tensor(rng.standard_normal((d_out, k, d_in)), requires_grad=True)
    G = rng.standard_normal((b, n, d_out))
    with Tape() as tape:
        out = ad.conv1d_same(x, f)
        tape.backward(ad.sum_all(ad.mul(out, Tensor(G))))
    ref_out, ref_dx, ref_df = conv1d_same_einsum(x.data, f.data, G)
    for got, ref in [(out.data, ref_out), (x.grad, ref_dx), (f.grad, ref_df)]:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
