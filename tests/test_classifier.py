"""Model forward paths, loss, training loops, and checkpoint round trips."""

import weakref

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor
from cru.classifier import (SentimentModel, TrainConfig, bce_loss, evaluate,
                            load_checkpoint, save_checkpoint, seeded_rng,
                            train_epoch, train_on_split)
from cru.data import Batch, Sample, Vocab, batch_and_pad, build_vocab, Corpus, \
    encode_corpus
from cru.errors import ConfigError, ContractError, NumericError
from cru.optim import Adam
from cru.recurrent import VARIANTS
from oracles import forward_reference


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
        model.embedding.weights.data[0] = 99.0
        batched = model.forward_batch(batch_from_rows(rows, [1, 0, 1])).data
        for i, row in enumerate(rows):
            assert abs(batched[i] - forward_reference(model, row)) < 1e-12, variant


def test_padding_records_no_extra_tape_nodes():
    # Rows run on over their padding and each direction picks the final
    # states with one gather, so padding adds no per-step ops to the tape.
    for variant in VARIANTS:
        model, _ = tiny_model(seed=12, variant=variant)
        counts = []
        for rows in ([[2, 3, 4, 5], [6, 7, 8, 2], [3, 4, 5, 6]],
                     [[2, 3, 4, 5], [6], [3, 4]]):
            with Tape() as tape:
                model.forward_batch(batch_from_rows(rows, [1, 0, 1]))
            counts.append(len(tape))
        assert counts[0] == counts[1], variant


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
    from cru.layers import EmbeddingTable

    config = tiny_config(embed_dim=4)
    table = EmbeddingTable.init(seeded_rng(0, 2), 9, 6)
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
        p = ad.sigmoid(logits)
        tape.backward(bce_loss(p, y))
    expected = (1.0 / 3.0) * (1.0 / (1.0 + np.exp(-logits.data)) - y)
    assert np.allclose(logits.grad, expected, atol=1e-12)


def test_bce_shape_mismatch():
    with pytest.raises(ContractError):
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


def test_tape_is_released_before_the_optimizer_runs(monkeypatch):
    # Clipping and Adam must not run while the tape still holds every
    # forward tensor and backward closure of the batch.
    tapes, alive = [], []

    class TrackedTape(Tape):
        def __enter__(self):
            tapes.append(weakref.ref(self))
            return super().__enter__()

    clip = Adam.clip_gradients

    def checked_clip(self, max_norm):
        alive.append(tapes[-1]() is not None)
        return clip(self, max_norm)

    monkeypatch.setattr(ad, "Tape", TrackedTape)
    monkeypatch.setattr(Adam, "clip_gradients", checked_clip)
    model, config = tiny_model(seed=13)
    opt = Adam(model.named_params(), lr=config.lr)
    batch = batch_from_rows([[2, 3, 4], [5, 6]], [1, 0])
    train_epoch(model, opt, [batch, batch], config, rng=None)
    assert alive == [False, False]


def test_train_epoch_names_batch_on_non_finite():
    model, config = tiny_model(seed=11)
    model.embedding.weights.data[3, 0] = np.nan
    opt = Adam(model.named_params(), lr=config.lr)
    batches = [batch_from_rows([[2, 2]], [1]), batch_from_rows([[3, 4]], [0])]
    with pytest.raises(NumericError, match="batch 1"):
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
    assert evaluate(model, [batch]) == pytest.approx(0.75)


def test_perfectly_separated_set_scores_one():
    model, config = tiny_model(seed=13, lr=0.05)
    opt = Adam(model.named_params(), lr=0.05)
    batch = batch_from_rows([[2, 3], [4, 5]], [1, 0])
    for _ in range(150):
        train_epoch(model, opt, [batch], config, rng=None)
    assert evaluate(model, [batch]) == 1.0


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
    assert h1 == h2
    assert len(h1) == 6  # train + test rows per epoch
    assert {r["split"] for r in h1} == {"train", "test"}
    assert all(r["fold"] == 2 for r in h1)
    assert [r["epoch"] for r in h1 if r["split"] == "train"] == [1, 2, 3]


def test_train_on_split_requires_samples():
    _, test, vocab = toy_split()
    with pytest.raises(ContractError):
        train_on_split([], test, tiny_config(), vocab)


def test_base_embedding_is_copied_not_shared():
    from cru.layers import EmbeddingTable

    train, test, vocab = toy_split()
    base = EmbeddingTable.init(seeded_rng(5, 5), len(vocab), 4)
    snapshot = base.weights.data.copy()
    config = tiny_config(epochs=1, batch_size=2)
    train_on_split(train, test, config, vocab, base_embedding=base)
    assert np.array_equal(base.weights.data, snapshot)


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


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")
