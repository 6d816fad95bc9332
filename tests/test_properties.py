"""Property tests: a zero-padded batch equals one-row batches of its rows,
the packed run of either direction equals the padded scan it replaced, the
packed convolution equals its einsum reference and the padded convolution
it replaced and builds the window its packing built before, every cell's
single gate-input tensor equals its three per-gate inputs side by side, the
fused GRU scan equals its per-step composed reference and, given the
projection's weights, the projection then the scan, bit for bit; training
with the optimizer's blocked sweeps equals the dense update with the L2 term
on the tape; ``build_vocab`` ranks as its first-occurrence reference;
``tokenize``, ``encode_corpus`` and ``batch_and_pad`` give what the
per-character, per-sample and per-row data path gave; a
model that holds a tensor of any shape fails only with a ``CruError``; and the settings, word-vector, vocabulary and checkpoint
readers, fed arbitrary files, raise only their documented errors."""

import math
import string
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor
from cru.checkpoint import MAGIC, load_tensors, save_tensors
from cru.classifier import SentimentModel, TrainConfig, seeded_rng, train_epoch
from cru.data import (Corpus, EncodedSample, Sample, Vocab, batch_and_pad, build_vocab,
                      encode_corpus, load_document_corpus, load_line_corpus, load_pretrained_embeddings,
                      parse_kv_file, tokenize)
from cru.errors import ConfigError, CruError, ParseError
from cru.optim import BLOCK_ROWS, Adam
from cru.layers import dense_forward, same_length_conv
from cru.recurrent import VARIANTS, _CellBase, make_cell, pack, run_sequence
from oracles import (activation, add, batch_rows, conv1d_same_einsum, conv1d_same_padded,
                     dense_update, encode_per_sample, gru_scan_composed, gru_scan_padded,
                     load_tensors_blob, mul, packed_positions, packing_window,
                     prepare_per_gate, project, project_then_scan, run_padded, run_row,
                     save_tensors_tobytes, token_positions, tokenize_peeling,
                     vocab_first_seen)

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
    states = run_padded(cell, Eb, lengths)
    for row, n in enumerate(lengths):
        one, _ = run_row(cell, Eb[row, :n])
        assert np.max(np.abs(states[row, n - 1] - one[-1])) < 1e-12
        for t in range(n):
            assert np.max(np.abs(states[row, t] - one[t])) < 1e-12


ragged = st.one_of(
    st.lists(st.integers(1, 9), min_size=1, max_size=6),
    st.tuples(st.integers(1, 6), st.integers(1, 9)).map(lambda bn: [bn[1]] * bn[0]),
    st.integers(1, 6).map(lambda b: [1] * b),
    st.tuples(st.integers(1, 6), st.integers(0, 5), st.integers(2, 9)).map(
        lambda c: [c[2] if row == c[1] % c[0] else 1 for row in range(c[0])]),
)


@PROPERTY
@given(st.tuples(st.sampled_from(VARIANTS), ragged, st.booleans(), st.integers(0, 2**32 - 1)))
@example(("gru", [1], False, 0))
@example(("deep_enhanced", [2, 9, 1, 9, 4], True, 1))
@example(("shallow", [1, 1, 7, 1], True, 2))
def test_packed_run_equals_padded_oracle(case):
    # Either direction of a padded ragged batch in unsorted row order,
    # against the padded per-gate preparation and the padded scan, fed the
    # same batch rows reversed row by row in numpy for the reversed direction.
    # States at every token, and the gradients of the batch rows and of
    # every cell parameter, under a readout of the true steps only.
    variant, lengths, reverse, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    b, n, d = len(lengths), max(lengths), 3
    cell = make_cell(variant, rng, d, d)
    for bias in ("b_z", "b_r", "b_h"):
        cell.params[bias].data = rng.uniform(-0.5, 0.5, d)
    # The padding holds garbage, which neither path may read.
    E = Tensor(rng.standard_normal((b * n, d)), requires_grad=True)
    read = np.arange(b * n).reshape(b, n)  # the batch row at each oracle position
    tokens = np.zeros((b, n, d))  # the oracle zeroes the padding, as the packed path does
    for row, ln in enumerate(lengths):
        tokens[row, :ln] = 1.0
    if reverse:
        for row, ln in enumerate(lengths):
            read[row, :ln] = read[row, :ln][::-1]
    G = rng.standard_normal((b, n, d))
    positions = packed_positions(lengths)
    G_packed = np.array([G[r, t] for r, t in positions])
    for r in range(b):
        G[r, lengths[r]:] = 0.0
    leaves = [E] + list(cell.params.values())
    p = cell.params
    results = []
    for packed in (True, False):
        for x in leaves:
            x.zero_grad()
        with Tape() as tape:
            if packed:
                token_rows = ad.take_rows(E, token_positions(lengths, n))
                states = run_sequence([cell], token_rows, pack(lengths, (reverse,)))
                readout = G_packed
            else:
                X = mul(ad.reshape(ad.take_rows(E, read.reshape(-1)), (b, n, d)),
                           Tensor(tokens))
                P = ad.concat_cols(prepare_per_gate(cell, X))
                states = gru_scan_padded(P, *(p[n] for n in ("U_z", "U_r", "U", "b_z", "b_r",
                                                              "b_h")))
                readout = G
            tape.backward(ad.sum_all(mul(states, Tensor(readout))))
        if not packed:
            states = Tensor(np.array([states.data[r, t] for r, t in positions]))
        results.append([states.data] + [x.grad for x in leaves])
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(cases)
@example(("deep_enhanced", [2, 9, 1, 9, 4], 3))  # unsorted, with a tie
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


def tiny_model(variant):
    config = TrainConfig(variant=variant, embed_dim=3, hidden_dim=3, fc_dim=4,
                         dropout=0.0, vocab_cap=None, pretrained=None)
    return SentimentModel.build(config, vocab_size=8, rng=seeded_rng(0, 1))


# Every tensor that a cell, a bank or a dense layer of some variant holds.
RECORD_TENSORS = sorted({name for v in VARIANTS for name in tiny_model(v).named_params()}
                        - {"embedding.weights"})


def with_tensor(model, name, t):
    """The model with t in place of the tensor called name, built straight
    from its dict, which ``from_params`` would check against the shape table
    first: here only the ops' own checks stand between t and the run."""
    return SentimentModel({**model.params, name: t}, model.variant, model.dropout)


def fails_cleanly(run) -> bool:
    """Whether run raised a CruError; any other exception escapes."""
    try:
        run()
    except CruError:
        return True
    return False


@PROPERTY
@given(st.sampled_from(VARIANTS), st.sampled_from(RECORD_TENSORS),
       st.lists(st.integers(0, 4), max_size=3))
@example("gru", "fwd.W", [])  # a scalar W, once an IndexError in a parameter record
@example("shallow", "bwd.conv.filters", [3])  # rank 1: no width to draw a window for
@example("deep", "fwd.conv_z.filters", [3, 0, 3])  # a window of width 0
@example("deep_enhanced", "fwd.conv_z.filters", [3, 5, 3])  # a wider window in one bank
@example("deep", "bwd.U", [3, 3])  # the shape it has
def test_malformed_record_raises_only_cru_errors(variant, name, shape):
    # Running every path that reads the tensor either succeeds or fails with
    # a CruError, and succeeds for a tensor of the shape it replaces.
    model = tiny_model(variant)
    params = model.named_params()
    assume(name in params)
    t = Tensor(seeded_rng(len(shape), *shape).uniform(-0.5, 0.5, shape))
    model = with_tensor(model, name, t)
    owner, cells = name.split(".")[0], model.cells
    E = Tensor(seeded_rng(0, 2).standard_normal((4, 3)))
    packing = pack([3, 1])
    (batch,) = batch_and_pad([EncodedSample(np.array([2, 5, 7]), 1),
                              EncodedSample(np.array([3]), 0)], 2)
    runs = [lambda: run_sequence(cells, E, packing),
            lambda: model.forward_batch(batch)]
    if owner in ("fc", "out"):
        x = Tensor(np.ones((2, params[f"{owner}.weights"].shape[1])))
        runs.append(lambda: dense_forward(x, model.params[f"{owner}.weights"],
                                          model.params[f"{owner}.bias"],
                                          "relu" if owner == "fc" else "sigmoid"))
    if "conv" in name:
        runs.append(lambda: same_length_conv([c.banks for c in cells],
                                             ad.take_rows(E, packing.rows), packing.batch_sizes,
                                             residual=variant == "deep_enhanced"))
    failed = [fails_cleanly(run) for run in runs]
    if t.shape == params[name].shape:
        assert not any(failed)


@PROPERTY
@given(st.lists(st.one_of(st.just(1), st.integers(1, 12)), min_size=1, max_size=8),
       st.sampled_from([1, 3, 5, 7]))
@example([1, 1, 1], 7)  # tied one-token rows, under a window wider than every row
@example([3, 12, 1, 3, 12, 1, 5, 2], 5)  # ties and one-token rows among long ones
@example([12], 7)
def test_conv_window_equals_packing_window_oracle(lengths, k):
    # The window conv1d_same builds from a ragged packing's batch_sizes,
    # against the one the packing built before the op took batch_sizes.
    sizes = pack(lengths).batch_sizes
    assert np.array_equal(ad._window(sizes.tolist(), k), packing_window(sizes, k))


conv_cases = st.tuples(st.integers(1, 4), st.integers(1, 9), st.sampled_from([1, 3, 5, 7]),
                       st.integers(1, 5), st.integers(0, 2**32 - 1))


@PROPERTY
@given(conv_cases)
@example((2, 1, 7, 3, 0))  # the padding (3 steps) is wider than the sequence
@example((1, 2, 7, 5, 1))
def test_conv1d_same_equals_einsum_reference(case):
    # b rows of n tokens each, packed time-major: packed row t * b + r holds
    # step t of row r. The einsum convolution is the pre-activation, and the
    # gradient reaches it where that is positive.
    b, n, k, d, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    x = Tensor(rng.standard_normal((n * b, d)), requires_grad=True)
    f = Tensor(rng.standard_normal((d, k, d)), requires_grad=True)
    G = rng.standard_normal((n * b, d))
    with Tape() as tape:
        out = ad.conv1d_same(x, [[(f, Tensor(np.zeros(d)))]], pack([n] * b).batch_sizes)
        tape.backward(ad.sum_all(mul(out, Tensor(G))))

    def batch_major(a):
        return a.reshape(n, b, -1).transpose(1, 0, 2)

    pre, _, _ = conv1d_same_einsum(batch_major(x.data), f.data, batch_major(G))
    _, ref_dx, ref_df = conv1d_same_einsum(batch_major(x.data), f.data,
                                           batch_major(G) * (pre > 0.0))
    ref_out = np.maximum(pre, 0.0)
    for got, ref in [(batch_major(out.data), ref_out), (batch_major(x.grad), ref_dx),
                     (f.grad, ref_df)]:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(st.tuples(ragged, st.sampled_from([1, 3, 5, 7]), st.booleans(), st.integers(1, 4),
                 st.integers(0, 2**32 - 1)))
@example(([1, 2, 1], 7, True, 3, 0))  # every row shorter than the padding
@example(([3, 3, 3], 5, False, 2, 1))
@example(([2, 9, 1, 9, 4], 3, True, 3, 2))
def test_packed_conv_equals_padded_oracle(case):
    # One direction's packed rows of a ragged batch in unsorted row order,
    # against the padded im2col convolution of the same direction's
    # zero-padded batch, then relu, read at the tokens: the output, and the
    # gradients of the token rows and the filters.
    lengths, k, reverse, d, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    b, n = len(lengths), max(lengths)
    x = Tensor(rng.standard_normal((sum(lengths), d)), requires_grad=True)
    f = Tensor(rng.standard_normal((d, k, d)), requires_grad=True)
    # The token row at each padded position of this direction, and its mask.
    first = np.cumsum(lengths) - lengths
    read = np.zeros((b, n), dtype=np.intp)
    tokens = np.zeros((b, n, d))
    for r, ln in enumerate(lengths):
        steps = np.arange(ln)
        read[r, :ln] = first[r] + (ln - 1 - steps if reverse else steps)
        tokens[r, :ln] = 1.0
    positions = packed_positions(lengths)
    G = rng.standard_normal((len(positions), d))
    G_pad = np.zeros((b, n, d))
    for (r, t), g in zip(positions, G):
        G_pad[r, t] = g
    results = []
    for packed in (True, False):
        for leaf in (x, f):
            leaf.zero_grad()
        with Tape() as tape:
            if packed:
                packing = pack(lengths, (reverse,))
                out = ad.conv1d_same(ad.take_rows(x, packing.rows),
                                     [[(f, Tensor(np.zeros(d)))]], packing.batch_sizes)
                tape.backward(ad.sum_all(mul(out, Tensor(G))))
            else:
                X = mul(ad.reshape(ad.take_rows(x, read.reshape(-1)), (b, n, d)),
                           Tensor(tokens))
                out = activation("relu", conv1d_same_padded(X, f))
                tape.backward(ad.sum_all(mul(out, Tensor(G_pad))))
                out = Tensor(np.array([out.data[r, t] for r, t in positions]))
        results.append([out.data, x.grad, f.grad])
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(st.tuples(st.sampled_from(VARIANTS), st.integers(1, 3), st.integers(1, 6),
                 st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1)))
@example(("gru", 1, 1, 1, 1, 0))
@example(("deep_enhanced", 3, 5, 2, 4, 1))
def test_prepare_equals_per_gate_inputs_side_by_side(case):
    # Values and the gradients of E and of every parameter that prepare reads,
    # through the projection of what it returns (the gate inputs that
    # gru_scan forms); the per-gate inputs of the padded batch are read in
    # packed order.
    variant, b, n, d, d_h, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    cell = make_cell(variant, rng, d, d if variant == "deep" else d_h)
    E = Tensor(rng.standard_normal((b * n, d)), requires_grad=True)
    packing = pack([n] * b, (False,))
    in_packed_order = np.array([r * n + t for r, t in packed_positions([n] * b)])
    recurrence = {"U_z", "U_r", "U", "b_z", "b_r", "b_h"}
    leaves = [E] + [t for name, t in cell.params.items() if name not in recurrence]
    G = Tensor(rng.standard_normal((b * n, 3 * cell.params["U"].shape[0])))

    def per_gate(x):
        gates = ad.concat_cols(prepare_per_gate(cell, ad.reshape(x, (b, n, d))))
        return ad.take_rows(ad.reshape(gates, (b * n, 3 * cell.params["U"].shape[0])),
                            in_packed_order)

    def prepared(x):
        X, weights = _CellBase.prepare([cell], x, packing)
        return X if weights is None else project(X, weights)

    results = []
    for prepare in (prepared, per_gate):
        for x in leaves:
            x.zero_grad()
        with Tape() as tape:
            out = prepare(E)
            tape.backward(ad.sum_all(mul(out, G)))
        results.append([out.data] + [x.grad for x in leaves])
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(cases, st.integers(1, 2))
@example(("gru", [1], 0), 1)
@example(("deep_enhanced", [9, 1, 4], 1), 2)
def test_gru_scan_equals_composed_reference(case, count):
    # One or two directions, each with its own cell. Gate inputs come from
    # each cell's prepare on a zero-padded ragged batch; the padded ones are a
    # leaf of the composed scan, and their packed rows a leaf of the packed
    # scan, so their gradients can be compared too. The readout weights only
    # true steps, as forward_batch does.
    variant, lengths, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    d = 3
    cells = []
    for _ in range(count):
        cells.append(make_cell(variant, rng, d, d))
        for b in ("b_z", "b_r", "b_h"):
            cells[-1].params[b].data = rng.uniform(-0.5, 0.5, d)
    Eb = np.zeros((len(lengths), max(lengths), d))
    for row, n in enumerate(lengths):
        Eb[row, :n] = rng.standard_normal((n, d))
    positions = packed_positions(lengths)
    sizes = pack(lengths).batch_sizes
    P_pads, Ps, weights, Gs = [], [], [], []
    for cell in cells:
        P_pads.append(Tensor(ad.concat_cols(prepare_per_gate(cell, Tensor(Eb))).data,
                             requires_grad=True))
        Ps.append(Tensor(np.array([P_pads[-1].data[r, t] for r, t in positions]),
                         requires_grad=True))
        weights.append([cell.params[n] for n in ("U_z", "U_r", "U", "b_z", "b_r", "b_h")])
        G = rng.standard_normal(Eb.shape)
        for row, n in enumerate(lengths):
            G[row, n:] = 0.0
        Gs.append(G)
    G_packed = np.concatenate([np.array([G[r, t] for r, t in positions]) for G in Gs], axis=1)
    results = []
    for packed in (True, False):
        for x in Ps + P_pads + [w for ws in weights for w in ws]:
            x.zero_grad()
        with Tape() as tape:
            if packed:
                out = ad.gru_scan(ad.concat_cols(Ps), weights, sizes)
                tape.backward(ad.sum_all(mul(out, Tensor(G_packed))))
                results.append([x for i, P in enumerate(Ps)
                                for x in (out.data[:, i * d:(i + 1) * d], P.grad)])
            else:
                outs = [gru_scan_composed(P, *ws) for P, ws in zip(P_pads, weights)]
                loss = ad.sum_all(mul(outs[0], Tensor(Gs[0])))
                for out, G in zip(outs[1:], Gs[1:]):
                    loss = add(loss, ad.sum_all(mul(out, Tensor(G))))
                tape.backward(loss)
                results.append([x for out, P in zip(outs, P_pads)
                                for x in (np.array([out.data[r, t] for r, t in positions]),
                                          np.array([P.grad[r, t] for r, t in positions]))])
        results[-1] += [w.grad for ws in weights for w in ws]
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(st.sampled_from((1, 3)), st.integers(1, 2),
       st.lists(st.integers(1, 7), min_size=1, max_size=5), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(1, 1, [1], 1, 1, 0)
@example(3, 2, [6, 1, 3], 2, 3, 1)
def test_gru_scan_with_weights_equals_project_then_scan(groups, count, lengths, c, d_h, seed):
    # The scan that forms its gate inputs from x, against the projection as
    # its own node: states and the gradients of x and of every W, U and b,
    # bit for bit. groups: one group [W_z, W_r, W] per direction (gru), or
    # three groups of one (deep_enhanced); each direction reads its own
    # columns of x, over a ragged packed batch.
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = pack(lengths, (False,)).batch_sizes
    total = sum(lengths)
    x = Tensor(rng.standard_normal((total, count * groups * c)), requires_grad=True)
    ws = [[Tensor(rng.standard_normal((d_h, c)), requires_grad=True) for _ in range(3)]
          for _ in range(count)]
    weights = ws if groups == 1 else [[w] for g in ws for w in g]
    directions = [[Tensor(0.6 * rng.standard_normal((d_h, d_h)), requires_grad=True)
                   for _ in range(3)]
                  + [Tensor(rng.uniform(-0.5, 0.5, d_h), requires_grad=True) for _ in range(3)]
                  for _ in range(count)]
    leaves = [x] + [w for g in ws for w in g] + [t for d in directions for t in d]
    G = Tensor(rng.standard_normal((total, count * d_h)))
    results = []
    for scan in (ad.gru_scan, project_then_scan):
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            out = scan(x, directions, sizes, weights)
            tape.backward(ad.sum_all(mul(out, G)))
        results.append([out.data] + [t.grad for t in leaves])
    for got, ref in zip(*results):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


sweep_cases = st.tuples(st.sampled_from(VARIANTS),
                        st.integers(3, 3 * BLOCK_ROWS),
                        st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4),
                                 min_size=3, max_size=3),
                        st.sampled_from([0.0, 1e-3, 0.5]),
                        st.sampled_from([1e-3, 1e3]),
                        st.integers(0, 2**32 - 1))


@PROPERTY
@given(sweep_cases)
@example(("gru", 9, [[3, 1], [2], [4, 4, 1]], 0.5, 1e-3, 0))
@example(("gru", BLOCK_ROWS, [[5, 2], [1, 3], [2]], 1e-3, 1e3, 1))
@example(("deep_enhanced", 2 * BLOCK_ROWS + 7, [[6], [2, 5], [3, 3]], 0.5, 1e3, 2))
def test_blocked_sweeps_equal_dense_update(case):
    # Three train_epoch steps against the same steps with the L2 term on the
    # tape, whole-array clipping and whole-array Adam. Each batch's ids come
    # from three table rows, so rows repeat within and across its rows.
    variant, vocab, batch_lengths, l2, clip_norm, seed = case
    rng = np.random.Generator(np.random.PCG64(seed))
    config = TrainConfig(variant=variant, embed_dim=3, hidden_dim=3, fc_dim=4,
                         dropout=0.3, lr=0.01, l2=l2, clip_norm=clip_norm,
                         vocab_cap=None, pretrained=None)
    batches = []
    for lengths in batch_lengths:
        pool = rng.integers(2, vocab, size=3)
        samples = [EncodedSample(rng.choice(pool, size=n), int(rng.integers(2)))
                   for n in lengths]
        batches += batch_and_pad(samples, len(samples))
    models = [SentimentModel.build(config, vocab_size=vocab, rng=seeded_rng(seed, 1))
              for _ in range(2)]
    opt = Adam(models[0].named_params(), lr=config.lr)
    drop = seeded_rng(seed, 2)
    losses = [train_epoch(models[0], opt, [b], config, drop)[0] for b in batches]
    ref_losses, ref_m, ref_v = dense_update(models[1], batches, config, seeded_rng(seed, 2))
    for got, ref in zip(losses, ref_losses):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    ref_params = models[1].named_params()
    for name, p in models[0].named_params().items():
        for got, ref in [(p.data, ref_params[name].data), (opt.m[name], ref_m[name]),
                         (opt.v[name], ref_v[name])]:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@PROPERTY
@given(st.lists(st.lists(st.text("abcd", min_size=1, max_size=2), max_size=8),
                min_size=1, max_size=6),
       st.one_of(st.none(), st.sampled_from([3, 5, 17]), st.integers(3, 12)))
@example([["b", "a", "b", "a", "c"]], 3)  # a tie that the cap cuts
@example([[], ["c"], ["a", "c", "a"]], None)
def test_build_vocab_equals_first_seen_ranking(token_lists, cap):
    corpus = Corpus([Sample(tokens, 1) for tokens in token_lists])
    assert build_vocab(corpus, cap).itos == ["<pad>", "<unk>", *vocab_first_seen(corpus, cap)]


# Raw text for the tokenizer: words, runs of ASCII punctuation, chunks that
# are all punctuation, non-ASCII punctuation that stays attached, and
# whitespace that str.split splits at (\x1c, U+0085, U+2028, U+3000); or any
# text.
raw_text = st.one_of(
    st.lists(st.one_of(st.sampled_from(["a", "Film", "don't", "state-of-the-art", "¿qué?",
                                        "…", "«non»", "İ", "x.y"]),
                       st.text(string.punctuation, min_size=1, max_size=4),
                       st.sampled_from([" ", "  ", "\t", "\n", "\x1c", "\x85", "\u2028",
                                        "\u3000", "\xa0"])),
             max_size=12).map("".join),
    st.text(max_size=24))


@PROPERTY
@given(raw_text)
@example("well... (so) \"quoted!\" -- ¿qué? …")
@example("a.\u2028,b\x1c!?\u3000..")
def test_tokenize_equals_peeling_oracle(raw):
    assert tokenize(raw) == tokenize_peeling(raw)


# Samples for the encoder and the batcher: ragged token lists, empty ones
# among them, over tokens of which the vocabulary may miss some.
ragged_tokens = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=9),
                         min_size=1, max_size=12)


@PROPERTY
@given(ragged_tokens, st.one_of(st.none(), st.integers(3, 6)))
@example([[], ["a"], [], ["e", "e"]], 3)
def test_encode_corpus_equals_per_sample_oracle(tokens, cap):
    samples = [Sample(t, i % 2) for i, t in enumerate(tokens)]
    vocab = build_vocab(Corpus(samples[::2]), cap)
    got, ref = encode_corpus(vocab, samples), encode_per_sample(vocab, samples)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.ids.dtype == np.intp and g.ids.shape == (len(r.ids),)
        assert np.array_equal(g.ids, r.ids) and g.label == r.label


@PROPERTY
@given(ragged_tokens, st.integers(1, 5), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@example([[], []], 2, None)
@example([["a"] * 9, [], ["b"], ["c", "d"]], 3, 7)
def test_batch_and_pad_equals_row_oracle(tokens, batch_size, seed):
    samples = [Sample(t, i % 2) for i, t in enumerate(tokens)]
    encoded = encode_corpus(build_vocab(Corpus(samples + [Sample(["a"], 0)])), samples)

    def rng():  # the same shuffle for each
        return None if seed is None else np.random.default_rng(seed)

    got, ref = batch_and_pad(encoded, batch_size, rng()), batch_rows(encoded, batch_size, rng())
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for name in ("ids", "mask", "labels"):
            a, b = getattr(g, name), getattr(r, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Values a settings or vector file may hold: arbitrary text, and the strings
# that parse as numbers outside every documented range.
values = st.one_of(st.text(max_size=12),
                   st.sampled_from(["nan", "-nan", "inf", "-inf", "-1", "1e400", "", "0"]))


@PROPERTY
@given(st.dictionaries(st.one_of(st.sampled_from(sorted(TrainConfig().to_kv())), st.text()),
                       values, max_size=6))
def test_config_parser_raises_only_config_errors(kv):
    try:
        config = TrainConfig.from_kv(kv)
    except ConfigError:
        return
    for name in ("dropout", "lr", "l2", "clip_norm"):
        assert math.isfinite(getattr(config, name)), name
    assert config.seed >= 0


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "<unk>", "zz"]),
                          st.lists(values, min_size=1, max_size=3)), max_size=4))
@example([("a", ["1", "2"]), ("a", ["3", "4"]), ("b", ["5", "6"])])  # a token on two lines
@example([("\udcffa", ["1", "2"])])  # the byte 0xff, which is not UTF-8, before a token
def test_vector_parser_raises_only_parse_errors(lines):
    vocab = Vocab(["a", "b"])
    # A lone surrogate stands for the byte that surrogateescape writes for it.
    data = "".join(" ".join([tok, *vals]) + "\n" for tok, vals in lines).encode(
        "utf-8", "surrogateescape")
    with tempfile.TemporaryDirectory() as tmp:
        vec = Path(tmp) / "vec.txt"
        vec.write_bytes(data)
        try:
            table, coverage = load_pretrained_embeddings(vec, vocab, 2, seeded_rng(0, 5))
        except (ParseError, OSError):
            return
    data.decode("utf-8")  # a file that parses is UTF-8
    assert np.all(np.isfinite(table.data)) and 0 <= coverage <= 1


def tensor_record(name: bytes, shape, values) -> bytes:
    """One tensor of the checkpoint layout, as written, whatever its fields."""
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(shape))
            + b"".join(struct.pack("<I", n) for n in shape)
            + b"".join(struct.pack("<d", v) for v in values))


def written(data: bytes, read):
    """read(path) of a file that holds data."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_bytes(data)
        return read(path)


records = st.lists(st.tuples(st.sampled_from([b"a", b"b", b"\xff", b""]),
                             st.lists(st.one_of(st.integers(0, 3), st.just(0xFFFFFFFF)),
                                      max_size=66),
                             st.lists(st.floats(), max_size=4)), max_size=3)
ZERO_SIZE_HUGE_DIMS = [(b"a", [0, 0xFFFFFFFF, 0xFFFFFFFF], [])]


def malformed_checkpoint(tensors, miscount: int, cut: int, tail: bytes) -> bytes:
    """Records whose fields need not agree, a count off by one either way, the
    last bytes cut off and junk appended."""
    data = (MAGIC + struct.pack("<I", max(0, len(tensors) + miscount))
            + b"".join(tensor_record(*t) for t in tensors))
    return data[:len(data) - cut] + tail


@PROPERTY
@given(records, st.integers(-1, 1), st.integers(0, 12), st.binary(max_size=4))
@example([(b"a", [1] * 65, [0.5])], 0, 0, b"")  # above numpy's 64 dimensions
@example([(b"a", [2], [0.5, float("nan")])], 0, 0, b"")
@example([(b"a", [], [0.5]), (b"a", [], [0.5])], 0, 0, b"")  # a name twice
@example(ZERO_SIZE_HUGE_DIMS, 0, 0, b"")  # no elements, but too big for numpy
def test_checkpoint_reader_raises_only_documented_errors(tensors, miscount, cut, tail):
    try:
        out = written(malformed_checkpoint(tensors, miscount, cut, tail), load_tensors)
    except (CruError, OSError):
        return
    assert all(a.dtype == np.float64 and np.all(np.isfinite(a)) for a in out.values())


def outcome(read, path):
    """read(path)'s tensors as (name, shape, dtype, bytes), or the exception."""
    try:
        return [(name, a.shape, a.dtype, a.tobytes()) for name, a in read(path).items()]
    except (ParseError, ValueError) as e:
        return e


@PROPERTY
@given(records, st.integers(-1, 1), st.integers(0, 12), st.binary(max_size=4))
@example([(b"a", [2, 3], [0.5] * 6), (b"b", [], [-1.0])], 0, 0, b"")
@example(ZERO_SIZE_HUGE_DIMS, 0, 0, b"")
def test_checkpoint_reader_matches_the_blob_oracle(tensors, miscount, cut, tail):
    # The same names, shapes and bits, or a ParseError with the same message.
    # The one difference: a zero-size tensor whose dims numpy cannot index
    # made the oracle raise numpy's ValueError, and is a ParseError now.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        path.write_bytes(malformed_checkpoint(tensors, miscount, cut, tail))
        got, want = outcome(load_tensors, path), outcome(load_tensors_blob, path)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError) and str(got) == str(want)
    elif isinstance(want, ValueError):
        assert isinstance(got, ParseError) and "too large for a numpy array" in str(got)
        assert str(got).startswith(f"{path}: tensor ")
    else:
        assert got == want


# Arrays of rank 0-3 with zero-size dims allowed, of float64, float32 or
# big-endian float64, as drawn or through a view that is not C-contiguous.
stored_arrays = st.builds(
    lambda a, view: view(a),
    hnp.arrays(st.sampled_from([np.float64, np.float32, ">f8"]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements=st.floats(width=32)),
    st.sampled_from([lambda a: a, np.transpose, lambda a: a[::-1] if a.ndim else a]))


@PROPERTY
@given(st.dictionaries(st.text(max_size=4), stored_arrays, max_size=4))
@example({"": np.array(2.5), "θ/é": np.zeros((0, 3)), "w": np.ones((2, 3), np.float32).T})
def test_checkpoint_writer_matches_the_tobytes_oracle(tensors):
    with tempfile.TemporaryDirectory() as tmp:
        save_tensors(Path(tmp) / "new", tensors)
        save_tensors_tobytes(Path(tmp) / "old", tensors)
        assert (Path(tmp) / "new").read_bytes() == (Path(tmp) / "old").read_bytes()


lines = st.lists(st.one_of(st.sampled_from(["<pad>", "<unk>", "a", "a", "k=v", "#", ""]),
                           st.text(max_size=6)), max_size=6)


@PROPERTY
@given(lines)
@example(["<pad>", "<unk>", "a", "a"])  # a duplicate token
@example(["<pad>", "<unk>", "\udcff"])  # the byte 0xff, which is not UTF-8
def test_vocabulary_reader_raises_only_documented_errors(lines):
    data = "\n".join(lines).encode("utf-8", "surrogateescape")
    try:
        vocab = written(data, Vocab.load)
    except (CruError, OSError):
        return
    assert vocab.itos[:2] == ["<pad>", "<unk>"] and len(vocab.stoi) == len(vocab)


@PROPERTY
@given(lines)
@example(["a=1", "# c", "", " b = 2 "])
@example(["k"])  # no "="
@example(["k=\udcff"])  # the byte 0xff, which is not UTF-8
def test_settings_file_reader_raises_only_documented_errors(lines):
    data = "\n".join(lines).encode("utf-8", "surrogateescape")
    try:
        kv = written(data, parse_kv_file)
    except (CruError, OSError):
        return
    assert all(k == k.strip() and v == v.strip() for k, v in kv.items())


# Corpus text: words, punctuation, every separator that str.splitlines ends
# a line at (form feed, \v, \x1c-\x1e, U+0085, U+2028, U+2029, \r), and bytes
# that are not UTF-8; or any bytes.
corpus_bytes = st.one_of(
    st.lists(st.sampled_from([b"a", b"film", b".", b" ", b"\n", b"\r", b"\r\n", b"\x0c",
                              b"\x0b", b"\x1c", b"\x1d", b"\x1e", "\x85".encode(),
                              "\u2028".encode(), "\u2029".encode(), b"\xff", b"\xe2\x80"]),
             max_size=12).map(b"".join),
    st.binary(max_size=24))


def line_samples(data: bytes) -> list[list[str]]:
    """The tokens of each line of data, split at b"\\n", that has a token."""
    return [t for line in data.split(b"\n") if (t := tokenize(line.decode("utf-8", "ignore")))]


@PROPERTY
@given(corpus_bytes, corpus_bytes)
@example("a fine film\x0cbad acting\nwarm \u2028 heart\n".encode(), b"a\r\n\r\n")
def test_line_corpus_reader_raises_only_documented_errors(pos, neg):
    # One sample per "\n" line that has a token, positives first.
    expected = [(t, 1) for t in line_samples(pos)] + [(t, 0) for t in line_samples(neg)]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "pos.txt").write_bytes(pos)
        (Path(tmp) / "neg.txt").write_bytes(neg)
        try:
            corpus = load_line_corpus(tmp)
        except (CruError, OSError):
            assert not expected
            return
    assert [(s.tokens, s.label) for s in corpus.samples] == expected


@PROPERTY
@given(st.lists(corpus_bytes, max_size=3), st.lists(corpus_bytes, max_size=3))
def test_document_corpus_reader_raises_only_documented_errors(pos, neg):
    # One sample per document that has a token, its lines joined.
    expected = [(t, label) for docs, label in ((pos, 1), (neg, 0)) for d in docs
                if (t := tokenize(d.decode("utf-8", "ignore")))]
    with tempfile.TemporaryDirectory() as tmp:
        for sub, docs in (("pos", pos), ("neg", neg)):
            (Path(tmp) / sub).mkdir()
            for i, data in enumerate(docs):
                (Path(tmp) / sub / f"{i}.txt").write_bytes(data)
        try:
            corpus = load_document_corpus(tmp)
        except (CruError, OSError):
            assert not expected
            return
    assert [(s.tokens, s.label) for s in corpus.samples] == expected
