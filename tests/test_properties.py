"""Property tests: a padded, masked batch equals one-row batches of its rows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cru.autodiff import Tensor
from cru.classifier import SentimentModel, TrainConfig, seeded_rng
from cru.data import EncodedSample, batch_and_pad
from cru.recurrent import VARIANTS, make_cell, run_sequence

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
    mask = np.zeros((len(lengths), width))
    for row, n in enumerate(lengths):
        Eb[row, :n] = rng.standard_normal((n, d))
        mask[row, :n] = 1.0
    states, final = run_sequence(cell, Tensor(Eb), mask=mask)
    for row, n in enumerate(lengths):
        one, one_final = run_sequence(cell, Tensor(Eb[row:row + 1, :n]))
        assert np.max(np.abs(final.data[row] - one_final.data[0])) < 1e-12
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
