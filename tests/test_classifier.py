"""Model forward paths, loss, training loops, and checkpoint round trips."""

import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor
from cru.classifier import (SentimentModel, TrainConfig, bce_loss, evaluate,
                            load_checkpoint, save_checkpoint, seeded_rng,
                            train_epoch, train_on_split)
from cru.data import Batch, Sample, Vocab, batch_and_pad, build_vocab, Corpus, \
    encode_corpus
from cru.errors import ConfigError, ContractError, CruError, DimensionError, NumericError
from cru.optim import BLOCK_ROWS, Adam
from cru.recurrent import VARIANTS
from oracles import activation, forward_reference


def tiny_config(**kw):
    base = dict(variant="deep_enhanced", filter_k=3, embed_dim=4, hidden_dim=4,
                dropout=0.0, lr=0.01, l2=0.0, batch_size=4, epochs=1, seed=0,
                fc_dim=8)
    base.update(kw)
    return TrainConfig(**base).validate()


def tiny_model(seed=0, **kw):
    config = tiny_config(**kw)
    return SentimentModel.build(config, vocab_size=9, rng=seeded_rng(seed, 1)), config


def batch_from_rows(rows, labels):
    width = max(len(r) for r in rows)
    b = len(rows)
    ids = np.zeros((b, width), dtype=np.intp)
    mask = np.zeros((b, width))
    for i, r in enumerate(rows):
        ids[i, :len(r)] = r
        mask[i, :len(r)] = 1.0
    return Batch(ids=ids, mask=mask, labels=np.asarray(labels, dtype=float))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        tiny_config(epochs=0)
    with pytest.raises(ConfigError):
        tiny_config(variant="deep", hidden_dim=5, embed_dim=4)
    with pytest.raises(ConfigError):
        tiny_config(dropout=1.0)
    with pytest.raises(ConfigError):
        tiny_config(filter_k=4)
    with pytest.raises(ConfigError):
        tiny_config(lr=0.0)
    with pytest.raises(ConfigError):
        tiny_config(variant="rnn")
    with pytest.raises(ConfigError):
        tiny_config(vocab_cap=2)
    with pytest.raises(ConfigError):
        tiny_config(run_folds=11)
    # NaN fails every float check, and a seed must be >= 0.
    for bad in (dict(lr=np.nan), dict(lr=np.inf), dict(l2=np.nan), dict(l2=np.inf),
                dict(clip_norm=np.nan), dict(clip_norm=np.inf), dict(dropout=np.nan),
                dict(seed=-1)):
        with pytest.raises(ConfigError):
            tiny_config(**bad)


def test_config_kv_round_trip():
    c = tiny_config(vocab_cap=None, pretrained=None)
    kv = c.to_kv()
    back = TrainConfig.from_kv(kv)
    assert back == c
    assert back.vocab_cap is None and back.pretrained is None


def test_config_kv_rejects_garbage():
    with pytest.raises(ConfigError):
        TrainConfig.from_kv({"epochs": "three"})
    with pytest.raises(ConfigError):
        TrainConfig.from_kv({"window": "3"})
    # Only a field that may be None takes "".
    assert TrainConfig.from_kv({"run_folds": ""}).run_folds is None
    with pytest.raises(ConfigError):
        TrainConfig.from_kv({"lr": ""})


# ---------------------------------------------------------------------------
# Forward paths
# ---------------------------------------------------------------------------

def test_all_zero_parameters_give_exactly_half():
    model, _ = tiny_model()
    for p in model.named_params().values():
        p.data[:] = 0.0
    batch = batch_from_rows([[2, 3, 4], [5, 6]], [1, 0])
    p = model.forward_batch(batch)
    assert np.all(p.data == 0.5)


def test_probabilities_strictly_inside_unit_interval():
    model, _ = tiny_model(seed=3)
    rng = np.random.Generator(np.random.PCG64(0))
    for trial in range(10):
        rows = [list(rng.integers(2, 9, size=rng.integers(1, 8)))
                for _ in range(3)]
        p = model.forward_batch(batch_from_rows(rows, [1, 0, 1]))
        assert np.all((p.data > 0.0) & (p.data < 1.0))


def test_batch_of_one_matches_unbatched_path():
    for variant in VARIANTS:
        model, _ = tiny_model(seed=5, variant=variant)
        ids = [2, 7, 3, 5, 4]
        batched = model.forward_batch(batch_from_rows([ids], [1])).data[0]
        assert abs(forward_reference(model, ids) - batched) < 1e-12, variant


def test_padded_batch_matches_per_sample_even_with_nonzero_pad_row():
    # Pretrained tables may carry a non-zero pad row; the forward pass zeroes
    # padded positions, so batching must not change any probability.
    rows = [[2, 3, 4, 5, 6, 7], [8, 2], [3]]
    for variant in VARIANTS:
        model, _ = tiny_model(seed=6, variant=variant)
        model.embedding.data[0] = 99.0
        batched = model.forward_batch(batch_from_rows(rows, [1, 0, 1])).data
        for i, row in enumerate(rows):
            assert abs(batched[i] - forward_reference(model, row)) < 1e-12, variant


def test_padding_records_no_extra_tape_nodes():
    # Only the tokens run, and one gather picks both directions' final
    # states, so padding adds no per-step ops to the tape.
    for variant in VARIANTS:
        model, _ = tiny_model(seed=12, variant=variant)
        counts = []
        for rows in ([[2, 3, 4, 5], [6, 7, 8, 2], [3, 4, 5, 6]],
                     [[2, 3, 4, 5], [6], [3, 4]]):
            with Tape() as tape:
                model.forward_batch(batch_from_rows(rows, [1, 0, 1]))
            counts.append(len(tape))
        assert counts[0] == counts[1], variant


def test_tape_size_does_not_grow_with_width():
    # The recurrence is one tape node for both directions, whatever the width.
    rng = np.random.default_rng(3)
    for variant in VARIANTS:
        model, _ = tiny_model(seed=13, variant=variant)
        counts = []
        for width in (3, 30):
            rows = [list(rng.integers(2, 9, size=width)), [4, 5]]
            with Tape() as tape:
                model.forward_batch(batch_from_rows(rows, [1, 0]))
            counts.append(len(tape))
        assert counts[0] == counts[1], (variant, counts)


def test_training_tape_is_small_and_does_not_grow_with_width():
    # A gru training step (dropout on, so both dropout masks are recorded)
    # recorded 79 nodes when each gate had its own projection chain and the
    # scan took three gate-input tensors.
    rng = np.random.default_rng(4)
    model, _ = tiny_model(seed=15, variant="gru", dropout=0.3)
    counts = []
    for width in (3, 30):
        b = batch_from_rows([list(rng.integers(2, 9, size=width)), [4, 5]], [1, 0])
        with Tape() as tape:
            bce_loss(model.forward_batch(b, train=True, rng=np.random.default_rng(0)),
                     b.labels)
        counts.append(len(tape))
    assert counts[0] == counts[1] < 79, counts


def test_training_tape_holds_no_gate_inputs():
    # The scan forms the (T, D 3 d_h) gate inputs from its input and frees
    # them, so no tape node keeps an array of their shape. deep has no
    # projection: its gate inputs are the convolution's output.
    rows = [[2, 3, 4, 5], [6, 7], [3, 4, 8]]
    b = batch_from_rows(rows, [1, 0, 1])
    for variant in ("gru", "shallow", "deep_enhanced"):
        model, _ = tiny_model(seed=16, variant=variant, hidden_dim=5, dropout=0.3)
        with Tape() as tape:
            bce_loss(model.forward_batch(b, train=True, rng=np.random.default_rng(0)),
                     b.labels)
        shapes = {node.shape for node in tape.nodes}
        assert (9, 2 * 5) in shapes and (9, 2 * 3 * 5) not in shapes, (variant, shapes)


def test_training_tape_holds_one_node_per_head_layer():
    # After the recurrence: the final-state gather, the fc layer, its
    # dropout, the output layer, the reshape and the loss, one node each.
    # Composed of per-step ops, the head took 17 nodes.
    b = batch_from_rows([[2, 3, 4, 5], [6, 7], [3, 4, 8]], [1, 0, 1])
    for variant in VARIANTS:
        model, _ = tiny_model(seed=16, variant=variant, dropout=0.3)
        with Tape() as tape:
            bce_loss(model.forward_batch(b, train=True, rng=np.random.default_rng(0)),
                     b.labels)
        ops = [node.op for node in tape.nodes if node.op != "leaf"]
        assert ops[ops.index("gru_scan") + 1:] == ["take_rows", "dense", "dropout", "dense",
                                                   "reshape", "bce"], (variant, ops)


def test_training_tape_holds_no_op_output_the_caller_drops():
    # A tape holds each op's output weakly, and each backward keeps only the
    # arrays it reads: after the forward, the only outputs alive are the
    # probabilities and the loss, which the caller holds.
    b = batch_from_rows([[2, 3, 4, 5], [6, 7], [3, 4, 8]], [1, 0, 1])
    for variant in VARIANTS:
        model, _ = tiny_model(seed=16, variant=variant, dropout=0.3)
        with Tape() as tape:
            p = model.forward_batch(b, train=True, rng=np.random.default_rng(0))
            loss = bce_loss(p, b.labels)
            alive = [(node.op, node.ref()) for node in tape.nodes if node.ref is not None]
            assert [op for op, t in alive if t is not None] == ["reshape", "bce"], variant
            assert alive[-2][1] is p and alive[-1][1] is loss
            tape.backward(loss)


def test_zero_length_row_is_a_contract_error():
    model, _ = tiny_model(seed=14)
    batch = batch_from_rows([[2, 3, 4], [5]], [1, 0])
    batch.mask[1] = 0.0
    with pytest.raises(ContractError, match="row 1"):
        model.forward_batch(batch)


def test_token_id_past_the_table_is_a_cru_error():
    config = tiny_config(variant="gru")
    model = SentimentModel.build(config, vocab_size=8, rng=seeded_rng(15, 1))
    with pytest.raises(CruError, match=r"row id 9 out of range \[0, 8\)"):
        model.forward_batch(batch_from_rows([[2, 9, 3]], [1]))


def test_dropout_draws_are_shared_between_directions():
    # In train mode with dropout, the reversed direction must see the same
    # dropped embeddings, so replaying the same rng stream replays the same
    # probabilities.
    model, _ = tiny_model(seed=7, dropout=0.5)
    ids = [2, 3, 4, 5]
    p1 = model.forward_batch(batch_from_rows([ids], [1]), train=True,
                             rng=seeded_rng(0, 9)).data[0]
    p2 = model.forward_batch(batch_from_rows([ids], [1]), train=True,
                             rng=seeded_rng(0, 9)).data[0]
    assert p1 == p2  # same rng stream, same mask, bitwise equal


def test_build_rejects_mismatched_embedding():
    config = tiny_config(embed_dim=4)
    for shape in ((9, 6), (8, 4), (36,)):
        table = Tensor(seeded_rng(0, 2).uniform(-0.05, 0.05, shape))
        with pytest.raises(ConfigError):
            SentimentModel.build(config, 9, seeded_rng(0, 1), embedding=table)


def test_named_params_have_expected_prefixes():
    model, _ = tiny_model()
    names = set(model.named_params())
    assert "embedding.weights" in names
    assert "fwd.U_z" in names and "bwd.U_z" in names
    assert "fc.weights" in names and "out.bias" in names


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_bce_at_half_is_ln2():
    p = Tensor([0.5, 0.5])
    assert bce_loss(p, np.array([1.0, 0.0])).item() == pytest.approx(np.log(2.0))


def test_bce_is_tiny_when_confidently_correct():
    p = Tensor([1.0 - 1e-9, 1e-9])
    loss = bce_loss(p, np.array([1.0, 0.0])).item()
    assert 0 < loss < 1e-6


def test_bce_gradient_through_sigmoid_is_p_minus_y():
    logits = Tensor([0.3, -1.2, 2.0], requires_grad=True)
    y = np.array([1.0, 0.0, 1.0])
    with Tape() as tape:
        p = activation("sigmoid", logits)
        tape.backward(bce_loss(p, y))
    expected = (1.0 / 3.0) * (1.0 / (1.0 + np.exp(-logits.data)) - y)
    assert np.allclose(logits.grad, expected, atol=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        bce_loss(Tensor([0.5]), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def test_lr_zero_epoch_is_identity_on_parameters():
    model, config = tiny_model(seed=8)
    params = model.named_params()
    before = {k: v.data.copy() for k, v in params.items()}
    opt = Adam(params, lr=0.0)
    batch = batch_from_rows([[2, 3, 4], [5, 6]], [1, 0])
    train_epoch(model, opt, [batch], config, rng=None)
    for k, v in params.items():
        assert np.array_equal(v.data, before[k]), k


def test_repeated_batch_overfits_to_tiny_loss():
    model, config = tiny_model(seed=9, lr=0.02)
    opt = Adam(model.named_params(), lr=0.02)
    batch = batch_from_rows([[2, 5, 3], [4, 6], [7, 8, 2, 3], [5]],
                            [1, 0, 1, 0])
    losses = []
    for _ in range(200):
        loss, _ = train_epoch(model, opt, [batch], config, rng=None)
        losses.append(loss)
    assert losses[-1] < 0.05
    assert losses[-1] < losses[0]


def test_train_epoch_is_deterministic():
    metrics = []
    for run in range(2):
        model, config = tiny_model(seed=10, dropout=0.2)
        opt = Adam(model.named_params(), lr=config.lr)
        batch = batch_from_rows([[2, 3], [4, 5, 6]], [1, 0])
        metrics.append([train_epoch(model, opt, [batch], config,
                                    rng=seeded_rng(1, 2, 3)) for _ in range(3)])
    assert metrics[0] == metrics[1]


WIDE_ROWS = [[2, 3, 4, 5, 6, 7], [8, 2, 3, 4, 5], [6, 7, 8, 2, 3], [4, 5, 6, 7],
             [8, 2, 3], [4, 5, 6], [7, 8], [2]]


def train_wide(seed, steps, variant="gru", copies=1):
    """The parameters of a model after ``steps`` training steps at d = 256 on
    a batch of ``copies`` times the 8 rows, where the scan runs its
    directions concurrently, and at 8 copies deep_enhanced's convolution
    and projection do too."""
    config = tiny_config(variant=variant, embed_dim=256, hidden_dim=256, dropout=0.2)
    model = SentimentModel.build(config, vocab_size=9, rng=seeded_rng(seed, 1))
    opt = Adam(model.named_params(), lr=config.lr)
    batch = batch_from_rows(WIDE_ROWS * copies, [1, 0] * 4 * copies)
    for step in range(steps):
        train_epoch(model, opt, [batch], config, rng=seeded_rng(seed, 2, step))
    return {name: t.data.copy() for name, t in model.named_params().items()}


def test_training_on_several_threads_equals_training_in_turn():
    # Distinct tapes may run on distinct threads, and their ops share the one
    # worker thread. Three threads on two CPUs, with a short switch interval,
    # must give every model exactly the parameters it gets alone: gru models,
    # then deep_enhanced ones, whose convolution and projection use the
    # worker too.
    tokens = sum(len(row) for row in WIDE_ROWS)
    assert len(WIDE_ROWS) * 256 ** 2 >= ad._CONCURRENT_STEP_WORK
    assert 8 * tokens * 3 * 256 ** 2 >= ad._CONCURRENT_MATMUL_WORK  # project's share
    seeds = (1, 2, 3)
    for variant, copies in (("gru", 1), ("deep_enhanced", 8)):
        alone = [train_wide(seed, 2, variant, copies) for seed in seeds]
        together = [None] * len(seeds)
        start = threading.Barrier(len(seeds))

        def run(i):
            start.wait(timeout=60)
            together[i] = train_wide(seeds[i], 2, variant, copies)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(seeds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for params, ref in zip(together, alone):
            assert params is not None and params.keys() == ref.keys()
            for name in ref:
                assert np.array_equal(params[name], ref[name]), (variant, name)


class RecordingPool:
    """Stands in for the worker: records the functions given to it, and
    fails on any if it is to refuse work."""

    def __init__(self, refuse=False):
        self.refuse, self.submitted = refuse, []
        self.pool = ThreadPoolExecutor(max_workers=1)

    def submit(self, fn, *args):
        loop = args[-1] if args else fn  # fn may be a context's run
        self.submitted.append(getattr(loop, "func", loop).__qualname__)
        if self.refuse:
            raise AssertionError("work submitted to the worker")
        return self.pool.submit(fn, *args)


def test_single_sentence_never_uses_the_worker(monkeypatch):
    # A one-row batch at the mr width (d = 200), of 7 tokens or of 60, the
    # longest mr sentence, runs both directions of every op on the calling
    # thread, forward and backward: the convolution, the projection and the
    # scan. 32 rows of 12 tokens use the worker in each.
    model, _ = tiny_model(seed=16, variant="deep_enhanced", embed_dim=200, hidden_dim=200)
    monkeypatch.setattr(ad, "_WORKER", RecordingPool(refuse=True))
    for n in (7, 60):
        one = batch_from_rows([[2 + t % 7 for t in range(n)]], [1])
        with Tape() as tape:
            tape.backward(bce_loss(model.forward_batch(one), one.labels))
    pool = RecordingPool()
    monkeypatch.setattr(ad, "_WORKER", pool)
    many = batch_from_rows([[2, 3, 4, 5, 6, 7, 8, 2, 3, 4, 5, 6]] * 32, [1] * 32)
    with Tape() as tape:
        tape.backward(bce_loss(model.forward_batch(many), many.labels))
    assert sorted(set(pool.submitted)) == [
        "_matmuls", "_scan_backward", "_scan_forward",
        "conv1d_same.<locals>.apply.<locals>.backward", "conv1d_same.<locals>.forward"]
    pool.pool.shutdown()


def test_train_epoch_reports_its_telemetry(monkeypatch):
    # The mean of the pre-clip norms clip_gradients returned, the fraction of
    # them above clip_norm, the wall time and the token rate, while the
    # returned loss and accuracy stay those of a run without stats.
    norms = []
    clip = Adam.clip_gradients

    def recorded(self, max_norm, l2):
        norms.append(clip(self, max_norm, l2))
        return norms[-1]

    batches = [batch_from_rows([[2, 3], [4, 5, 6]], [1, 0]),
               batch_from_rows([[7], [8, 2, 3, 4]], [0, 1]),
               batch_from_rows([[5, 6, 7]], [1])]
    results = []
    for stats in (None, {}):
        model, config = tiny_model(seed=14, clip_norm=0.45)
        results.append(train_epoch(model, Adam(model.named_params(), lr=config.lr), batches,
                                   config, rng=None, stats=stats))
        monkeypatch.setattr(Adam, "clip_gradients", recorded)
    assert results[0] == results[1]
    assert len(norms) == 3 and any(n > 0.45 for n in norms) and not all(n > 0.45 for n in norms)
    assert stats["grad_norm"] == pytest.approx(np.mean(norms), rel=1e-15)
    assert stats["clip_frac"] == pytest.approx(np.mean([n > 0.45 for n in norms]))
    assert stats["seconds"] > 0
    assert stats["tokens_per_s"] == pytest.approx(13 / stats["seconds"])


def test_tape_is_released_before_the_optimizer_runs(monkeypatch):
    # Clipping and Adam must not run while the tape still holds a forward
    # tensor or backward closure of the batch: by then the tape is empty and
    # every closure it recorded is freed.
    tapes, applies, held = [], [], []

    class TrackedTape(Tape):
        def backward(self, loss):
            tapes.append(self)
            applies.extend(weakref.ref(n.apply) for n in self.nodes if n.apply is not None)
            super().backward(loss)

    clip = Adam.clip_gradients

    def checked_clip(self, max_norm, l2):
        held.append(len(tapes[-1]) + sum(ref() is not None for ref in applies))
        return clip(self, max_norm, l2)

    monkeypatch.setattr(ad, "Tape", TrackedTape)
    monkeypatch.setattr(Adam, "clip_gradients", checked_clip)
    model, config = tiny_model(seed=13)
    opt = Adam(model.named_params(), lr=config.lr)
    batch = batch_from_rows([[2, 3, 4], [5, 6]], [1, 0])
    train_epoch(model, opt, [batch, batch], config, rng=None)
    assert held == [0, 0] and applies


def test_backward_frees_each_node_before_the_next_runs(monkeypatch):
    # A deep_enhanced training step: each node's backward runs only after
    # every node recorded after it, its closure and the forward arrays that
    # holds, is freed, and none is left once the backward returns.
    refs, freed, ops = {}, [], set()
    backward = Tape.backward

    def checked(nid, apply):
        def run(g, emit):
            freed.append(all(ref() is None for j, ref in refs.items() if j > nid))
            apply(g, emit)
        return run

    def watched(tape, loss):
        for node in tape.nodes:
            if node.apply is not None:
                node.apply = checked(node.nid, node.apply)
                refs[node.nid] = weakref.ref(node.apply)
                ops.add(node.op)
        del node  # which would keep the last node alive
        backward(tape, loss)
        freed.append(all(ref() is None for ref in refs.values()))

    monkeypatch.setattr(Tape, "backward", watched)
    model, config = tiny_model(seed=17, variant="deep_enhanced", dropout=0.3)
    opt = Adam(model.named_params(), lr=config.lr)
    batch = batch_from_rows([[2, 3, 4, 5], [6, 7], [3, 4, 8]], [1, 0, 1])
    train_epoch(model, opt, [batch], config, rng=seeded_rng(17, 2))
    assert {"conv1d_same", "gru_scan", "bce"} <= ops
    assert len(freed) == len(refs) + 1 and all(freed), freed


@pytest.mark.parametrize("l2, clip_norm", [(0.0, 1e3), (0.5, 1e3), (0.5, 0.05)])
def test_row_gradient_steps_equal_dense_gradient_steps(monkeypatch, l2, clip_norm):
    # Three train_epoch steps with the table's row-sparse gradient leave every
    # parameter and Adam's m and v bit for bit where the same steps leave
    # them when each gradient is made dense before the norm pass. The table
    # spans three sweep blocks, and ids repeat within and across batches.
    batches = [batch_from_rows([[3, 300, 3, 515], [300, 9]], [1, 0]),
               batch_from_rows([[515, 515, 2], [5]], [0, 1]),
               batch_from_rows([[260, 3, 511, 512]], [1])]
    clip = Adam.clip_gradients
    runs = []
    for densify in (False, True):
        kinds = []

        def norm_pass(self, max_norm, l2):
            kinds.append(type(dict(self.params)["embedding.weights"].grad))
            if densify:
                for _, p in self.params:
                    if p.grad is not None:
                        p.grad = np.asarray(p.grad)
            return clip(self, max_norm, l2)

        monkeypatch.setattr(Adam, "clip_gradients", norm_pass)
        config = tiny_config(variant="gru", l2=l2, clip_norm=clip_norm, dropout=0.3)
        model = SentimentModel.build(config, vocab_size=2 * BLOCK_ROWS + 7,
                                     rng=seeded_rng(5, 1))
        opt = Adam(model.named_params(), lr=config.lr)
        result = train_epoch(model, opt, batches, config, seeded_rng(5, 2))
        assert kinds == [ad.RowGrad] * 3
        runs.append((result, model.named_params(), opt))
    (got, params, opt), (want, ref_params, ref_opt) = runs
    assert got == want
    for name, p in params.items():
        assert np.array_equal(p.data, ref_params[name].data), name
        assert np.array_equal(opt.m[name], ref_opt.m[name]), name
        assert np.array_equal(opt.v[name], ref_opt.v[name]), name


def test_train_step_builds_no_table_sized_gradient():
    # One step at V = 50,000, d = 64 traces less than one V x d array above
    # where it began: the table's gradient holds only the rows the batch
    # read, and the norm and update passes write blocks of BLOCK_ROWS rows.
    V, d = 50_000, 64
    config = tiny_config(variant="gru", embed_dim=d, hidden_dim=8, l2=0.1)
    model = SentimentModel.build(config, vocab_size=V, rng=seeded_rng(3, 1))
    opt = Adam(model.named_params(), lr=config.lr)
    batch = batch_from_rows([[2, V - 1, 7, 2], [V // 2, 3]], [1, 0])
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        train_epoch(model, opt, [batch], config, rng=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < V * d * 8


def test_train_step_imports_no_masked_arrays():
    # One training step, in a fresh interpreter, leaves numpy.ma unimported:
    # the table's row gradient merges its ids with np.unique, not
    # np.union1d, whose first call imports numpy.ma.
    step = ("import sys\n"
            "import numpy as np\n"
            "from cru.classifier import SentimentModel, TrainConfig, seeded_rng, train_epoch\n"
            "from cru.data import Batch\n"
            "from cru.optim import Adam\n"
            "config = TrainConfig(variant='gru', embed_dim=4, hidden_dim=4, fc_dim=4)\n"
            "model = SentimentModel.build(config, 9, seeded_rng(4, 1))\n"
            "opt = Adam(model.named_params(), lr=config.lr)\n"
            "batch = Batch(np.array([[2, 5, 7, 2], [5, 3, 0, 0]]),\n"
            "              np.array([[1.0] * 4, [1.0, 1.0, 0.0, 0.0]]), np.array([1.0, 0.0]))\n"
            "train_epoch(model, opt, [batch, batch], config, seeded_rng(4, 2))\n"
            "print('numpy.ma' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", step], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(ad.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_train_epoch_names_batch_on_non_finite():
    model, config = tiny_model(seed=11)
    model.embedding.data[3, 0] = np.nan
    opt = Adam(model.named_params(), lr=config.lr)
    batches = [batch_from_rows([[2, 2]], [1]), batch_from_rows([[3, 4]], [0])]
    with pytest.raises(NumericError, match="batch 1"):
        train_epoch(model, opt, batches, config, rng=None)


def test_train_epoch_names_batch_on_non_finite_row_it_never_reads():
    # The L2 term covers the whole table, so a NaN in a row no batch looks up
    # still stops training at the first batch.
    model, config = tiny_model(seed=11, l2=1e-3)
    model.embedding.data[7, 0] = np.nan
    opt = Adam(model.named_params(), lr=config.lr)
    batches = [batch_from_rows([[2, 3]], [1]), batch_from_rows([[4]], [0])]
    with pytest.raises(NumericError, match="non-finite value while training batch 0: "):
        train_epoch(model, opt, batches, config, rng=None)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_zero_model_predicts_positive_fraction():
    # p == 0.5 everywhere; the tie rule predicts positive, so accuracy is the
    # share of positive labels.
    model, _ = tiny_model(seed=12)
    for p in model.named_params().values():
        p.data[:] = 0.0
    batch = batch_from_rows([[2], [3], [4], [5]], [1, 1, 1, 0])
    assert evaluate(model, [batch])[1] == pytest.approx(0.75)


def test_perfectly_separated_set_scores_one():
    model, config = tiny_model(seed=13, lr=0.05)
    opt = Adam(model.named_params(), lr=0.05)
    batch = batch_from_rows([[2, 3], [4, 5]], [1, 0])
    for _ in range(150):
        train_epoch(model, opt, [batch], config, rng=None)
    assert evaluate(model, [batch])[1] == 1.0


def test_evaluate_empty_is_contract_error():
    model, _ = tiny_model()
    with pytest.raises(ContractError):
        evaluate(model, [])


def test_evaluate_is_bitwise_stable():
    model, _ = tiny_model(seed=14)
    batch = batch_from_rows([[2, 3, 4], [5, 6]], [1, 0])
    p1 = model.forward_batch(batch).data
    p2 = model.forward_batch(batch).data
    assert np.array_equal(p1, p2)


# ---------------------------------------------------------------------------
# Split training and checkpoints
# ---------------------------------------------------------------------------

def toy_split():
    pos = [Sample(t.split(), 1) for t in
           ("fine warm lovely", "warm lovely", "fine lovely warm glow")]
    neg = [Sample(t.split(), 0) for t in
           ("cold dull gray", "gray dull", "cold gray dull fog")]
    train = pos[:2] + neg[:2]
    test = pos[2:] + neg[2:]
    vocab = build_vocab(Corpus(train + test))
    return train, test, vocab


def test_train_on_split_history_schema_and_determinism():
    train, test, vocab = toy_split()
    config = tiny_config(epochs=3, batch_size=2, dropout=0.1)
    _, h1 = train_on_split(train, test, config, vocab, fold=2)
    _, h2 = train_on_split(train, test, config, vocab, fold=2)
    # Equal but for the wall-time telemetry of the train rows.
    timed = ("seconds", "tokens_per_s")
    assert all(k in r for r in h1 if r["split"] == "train" for k in timed)
    assert [{k: v for k, v in r.items() if k not in timed} for r in h1] == \
        [{k: v for k, v in r.items() if k not in timed} for r in h2]
    assert len(h1) == 6  # train + test rows per epoch
    assert {r["split"] for r in h1} == {"train", "test"}
    assert all(r["fold"] == 2 for r in h1)
    assert [r["epoch"] for r in h1 if r["split"] == "train"] == [1, 2, 3]


def test_train_on_split_requires_samples():
    _, test, vocab = toy_split()
    with pytest.raises(ContractError):
        train_on_split([], test, tiny_config(), vocab)


def test_base_embedding_is_copied_not_shared():
    train, test, vocab = toy_split()
    base = Tensor(seeded_rng(5, 5).uniform(-0.05, 0.05, (len(vocab), 4)), requires_grad=True)
    snapshot = base.data.copy()
    config = tiny_config(epochs=1, batch_size=2)
    train_on_split(train, test, config, vocab, base_embedding=base)
    assert np.array_equal(base.data, snapshot)


def test_checkpoint_round_trip_reproduces_probabilities(tmp_path):
    train, test, vocab = toy_split()
    config = tiny_config(epochs=2, batch_size=2)
    model, _ = train_on_split(train, test, config, vocab)
    save_checkpoint(tmp_path / "ckpt", model, config, vocab)
    loaded, loaded_config, loaded_vocab = load_checkpoint(tmp_path / "ckpt")
    assert loaded_config == config
    assert loaded_vocab.itos == vocab.itos
    batch = batch_and_pad(encode_corpus(vocab, test), 4)[0]
    assert np.array_equal(model.forward_batch(batch).data,
                          loaded.forward_batch(batch).data)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    train, test, vocab = toy_split()
    config = tiny_config(epochs=1, batch_size=2)
    model, _ = train_on_split(train, test, config, vocab)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, model, config, vocab)
    before = {name: (ckpt / name).read_bytes()
              for name in ("params.bin", "vocab.txt", "config.txt")}
    first = {name: t.data.copy() for name, t in model.named_params().items()}

    def broken_save(path, tensors):
        path.write_bytes(b"partial")
        raise OSError("disk full")

    for t in model.named_params().values():
        t.data = t.data + 1.0
    monkeypatch.setattr("cru.classifier.save_tensors", broken_save)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, model, config, vocab)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    for name, data in before.items():
        assert (ckpt / name).read_bytes() == data
    for name, t in load_checkpoint(ckpt)[0].named_params().items():
        assert np.array_equal(t.data, first[name])

    # A save that succeeds replaces the old checkpoint and leaves no sibling.
    monkeypatch.undo()
    save_checkpoint(ckpt, model, config, vocab)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
    saved = model.named_params()
    for name, t in load_checkpoint(ckpt)[0].named_params().items():
        assert np.array_equal(t.data, saved[name].data)


# The tensors a checkpoint stores, in order, for embed 3, hidden 5 (3 for
# deep), fc 6 and a vocabulary of 7: a change to how gate inputs are computed
# must not rename or reshape any of them.
_GATES = [("W_z", (5, 3)), ("W_r", (5, 3)), ("W", (5, 3))]
_RECURRENCE = [("U_z", (5, 5)), ("U_r", (5, 5)), ("U", (5, 5)),
               ("b_z", (5,)), ("b_r", (5,)), ("b_h", (5,))]
_BANKS = [(f"conv_{g}.{p}", shape) for g in "zrh"
          for p, shape in (("filters", (3, 3, 3)), ("bias", (3,)))]
_CELLS = {
    "gru": _GATES + _RECURRENCE,
    "shallow": _GATES + _RECURRENCE + [("conv.filters", (3, 3, 3)), ("conv.bias", (3,))],
    "deep": [(name, tuple(3 for _ in shape)) for name, shape in _RECURRENCE] + _BANKS,
    "deep_enhanced": _GATES + _RECURRENCE + _BANKS,
}


def test_stored_tensor_names_and_shapes_are_pinned():
    for variant, cell in _CELLS.items():
        config = TrainConfig(variant=variant, embed_dim=3,
                             hidden_dim=3 if variant == "deep" else 5, fc_dim=6)
        model = SentimentModel.build(config, 7, seeded_rng(0, 1))
        d_fc = 2 * config.hidden_dim
        expected = ([("embedding.weights", (7, 3))]
                    + [(f"{side}.{name}", shape) for side in ("fwd", "bwd")
                       for name, shape in cell]
                    + [("fc.weights", (6, d_fc)), ("fc.bias", (6,)),
                       ("out.weights", (1, 6)), ("out.bias", (1,))])
        got = [(name, t.shape) for name, t in model.named_params().items()]
        assert got == expected, variant


def test_checkpoint_shape_mismatch_names_tensor(tmp_path):
    train, test, vocab = toy_split()
    config = tiny_config(epochs=1, batch_size=2)
    model, _ = train_on_split(train, test, config, vocab)
    save_checkpoint(tmp_path / "ckpt", model, config, vocab)
    # Corrupt the stored config so the rebuilt model disagrees in shape.
    cfg = (tmp_path / "ckpt" / "config.txt").read_text()
    cfg = cfg.replace("hidden_dim=4", "hidden_dim=6")
    (tmp_path / "ckpt" / "config.txt").write_text(cfg)
    with pytest.raises(ConfigError, match=r"tensor \w+[.\w]* has shape"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_vocab_one_token_short_is_config_error(tmp_path):
    train, test, vocab = toy_split()
    config = tiny_config(epochs=1, batch_size=2)
    model, _ = train_on_split(train, test, config, vocab)
    save_checkpoint(tmp_path / "ckpt", model, config, vocab)
    vocab_file = tmp_path / "ckpt" / "vocab.txt"
    vocab_file.write_text("\n".join(vocab.itos[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="embedding table"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_missing_tensor_is_config_error(tmp_path):
    from cru.checkpoint import load_tensors, save_tensors

    train, test, vocab = toy_split()
    config = tiny_config(epochs=1, batch_size=2)
    model, _ = train_on_split(train, test, config, vocab)
    save_checkpoint(tmp_path / "ckpt", model, config, vocab)
    params = tmp_path / "ckpt" / "params.bin"
    for name in ("embedding.weights", "fc.bias"):
        tensors = load_tensors(params)
        del tensors[name]
        save_tensors(params, tensors)
        with pytest.raises(ConfigError, match=f"missing tensor {name}"):
            load_checkpoint(tmp_path / "ckpt")
        save_checkpoint(tmp_path / "ckpt", model, config, vocab)


def test_checkpoint_of_another_variant_is_config_error(tmp_path):
    # A deep_enhanced checkpoint whose config names gru holds every gru tensor
    # at its shape and twelve bank tensors more; none is dropped silently.
    train, test, vocab = toy_split()
    config = tiny_config(epochs=1, batch_size=2)
    model, _ = train_on_split(train, test, config, vocab)
    save_checkpoint(tmp_path / "ckpt", model, config, vocab)
    cfg = tmp_path / "ckpt" / "config.txt"
    cfg.write_text(cfg.read_text().replace("variant=deep_enhanced", "variant=gru"))
    with pytest.raises(ConfigError, match=r"tensor fwd\.conv_z\.filters is not a parameter "
                                          r"of a gru model"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_load_draws_nothing(tmp_path, monkeypatch):
    # Every variant round-trips with its optimizer state (which the load
    # leaves alone) while any draw from a seeded generator raises.
    train, test, vocab = toy_split()
    batch = batch_and_pad(encode_corpus(vocab, test), 4)[0]
    saved = {}
    for variant in VARIANTS:
        config = tiny_config(variant=variant, epochs=1, batch_size=2)
        model, _ = train_on_split(train, test, config, vocab)
        save_checkpoint(tmp_path / variant, model, config, vocab,
                        optimizer=Adam(model.named_params(), lr=config.lr))
        saved[variant] = model

    def no_draw(*args):
        raise AssertionError("the load drew from a seeded generator")

    monkeypatch.setattr("cru.classifier.seeded_rng", no_draw)
    for variant, model in saved.items():
        loaded, _, _ = load_checkpoint(tmp_path / variant)
        assert list(loaded.named_params()) == list(model.named_params())
        for name, t in loaded.named_params().items():
            assert np.array_equal(t.data, model.named_params()[name].data), (variant, name)
        assert np.array_equal(loaded.forward_batch(batch).data,
                              model.forward_batch(batch).data), variant


def test_checkpoint_load_checks_each_stored_entry_once(tmp_path, monkeypatch):
    # load_tensors checks that every stored entry is finite, and its
    # ParseError names the tensor; the model wraps the checked arrays without
    # a second pass.
    train, test, vocab = toy_split()
    config = tiny_config(variant="deep_enhanced")
    model = SentimentModel.build(config, len(vocab), seeded_rng(0, 1))
    save_checkpoint(tmp_path, model, config, vocab)
    checked, isfinite = [], np.isfinite

    def counted(x, *args, **kwargs):
        checked.append(np.size(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    load_checkpoint(tmp_path)
    assert sum(checked) == sum(t.size for t in model.named_params().values())


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")
