"""Tokenizer, corpus loaders, vocabulary, pretrained vectors, folds, batching."""

import gc
import logging
import tracemalloc

import numpy as np
import pytest

from cru.data import (Batch, Corpus, Sample, Vocab, batch_and_pad, build_vocab,
                      encode_corpus, load_corpus, load_document_corpus,
                      load_line_corpus, load_pretrained_embeddings, make_folds,
                      tokenize)
from cru.errors import ConfigError, ContractError, ParseError
from oracles import load_corpus_token_copies


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

def test_tokenize_lowercases_and_splits():
    assert tokenize("I like that Smith") == ["i", "like", "that", "smith"]


def test_tokenize_peels_edge_punctuation():
    assert tokenize("clever, but not compelling.") == \
        ["clever", ",", "but", "not", "compelling", "."]


def test_tokenize_empty_is_skip_signal():
    assert tokenize("") == []
    assert tokenize("   \t  ") == []


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("don't stop") == ["don't", "stop"]
    assert tokenize("state-of-the-art") == ["state-of-the-art"]


def test_tokenize_peels_repeated_and_both_edges():
    assert tokenize("well...") == ["well", ".", ".", "."]
    assert tokenize('"quoted!"') == ['"', "quoted", "!", '"']
    assert tokenize("(so)") == ["(", "so", ")"]


def test_tokenize_pure_punctuation_chunk():
    assert tokenize("--") == ["-", "-"]


def test_tokenize_is_deterministic():
    line = "It's a fine, fine line -- truly."
    assert tokenize(line) == tokenize(line)


# ---------------------------------------------------------------------------
# Corpus loaders
# ---------------------------------------------------------------------------

def write_pair(tmp_path, pos_lines, neg_lines, names=("pos.txt", "neg.txt")):
    (tmp_path / names[0]).write_text("\n".join(pos_lines), encoding="utf-8")
    (tmp_path / names[1]).write_text("\n".join(neg_lines), encoding="utf-8")


def test_load_line_corpus_labels_and_order(tmp_path):
    write_pair(tmp_path, ["Good fun.", "Loved it"], ["Dull.", "A slog"])
    corpus = load_line_corpus(tmp_path)
    assert len(corpus) == 4
    assert [s.label for s in corpus.samples] == [1, 1, 0, 0]
    assert corpus.samples[0].tokens == ["good", "fun", "."]


def test_load_line_corpus_dot_pos_layout(tmp_path):
    write_pair(tmp_path, ["yay"], ["nay"], names=("quote.pos", "quote.neg"))
    corpus = load_line_corpus(tmp_path)
    assert len(corpus) == 2


def test_load_line_corpus_skips_empty_lines(tmp_path, caplog):
    write_pair(tmp_path, ["good", "", "  "], ["bad"])
    with caplog.at_level(logging.WARNING, logger="cru.data"):
        corpus = load_line_corpus(tmp_path)
    assert len(corpus) == 2
    assert any("skipping empty line" in r.message for r in caplog.records)


def test_load_line_corpus_ends_lines_at_line_feeds_only(tmp_path, caplog):
    # Form feed, \v, \x1c-\x1e, U+0085, U+2028 and a lone \r end no line:
    # each "\n" line is one sample, and the warning for an empty line names
    # its line in the file.
    (tmp_path / "pos.txt").write_text("a fine film\fbad acting\nwarm \u2028 heart\n",
                                      encoding="utf-8")
    (tmp_path / "neg.txt").write_text("dull\x1c\x1d\x1eslow\v\x85end\rflat\r\n\r\nbad\r\n",
                                      encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="cru.data"):
        corpus = load_line_corpus(tmp_path)
    assert [(s.tokens, s.label) for s in corpus.samples] == [
        (["a", "fine", "film", "bad", "acting"], 1), (["warm", "heart"], 1),
        (["dull", "slow", "end", "flat"], 0), (["bad"], 0)]
    assert [r.getMessage() for r in caplog.records] == [
        f"skipping empty line 2 of {tmp_path / 'neg.txt'}"]


def test_load_line_corpus_drops_undecodable_bytes(tmp_path, caplog):
    (tmp_path / "pos.txt").write_bytes(b"fine \xff\xfe film\n")
    (tmp_path / "neg.txt").write_text("bad film\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="cru.data"):
        corpus = load_line_corpus(tmp_path)
    assert corpus.samples[0].tokens == ["fine", "film"]
    assert any("undecodable" in r.message for r in caplog.records)


def test_load_line_corpus_missing_files(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_line_corpus(tmp_path)


def held_bytes(load):
    """The traced bytes that load()'s result holds."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        corpus = load()
        return tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


def test_load_corpus_holds_each_distinct_token_once(tmp_path):
    # 2,000 lines of ten tokens, drawn from 200 words: the token strings
    # outweigh everything else a corpus holds, unless each is held once.
    rng = rng_for(5)
    words = np.array([f"word{i:03d}" for i in range(200)])
    write_pair(tmp_path, *(
        [" ".join(words[rng.integers(200, size=10)]) for _ in range(1000)] for _ in range(2)))
    assert load_corpus(tmp_path, "mr").samples == load_corpus_token_copies(tmp_path, "mr").samples
    held = held_bytes(lambda: load_corpus(tmp_path, "mr"))
    assert held <= 0.5 * held_bytes(lambda: load_corpus_token_copies(tmp_path, "mr"))


def test_load_document_corpus(tmp_path):
    for cls, text in (("pos", "a joy to watch"), ("neg", "hours of nothing")):
        d = tmp_path / cls
        d.mkdir()
        (d / "0.txt").write_text(text + "\nsecond line", encoding="utf-8")
    corpus = load_document_corpus(tmp_path)
    assert len(corpus) == 2
    # Multi-line documents collapse to one token sequence.
    assert corpus.samples[0].tokens == ["a", "joy", "to", "watch", "second", "line"]


def test_load_document_corpus_missing_class(tmp_path):
    (tmp_path / "pos").mkdir()
    with pytest.raises(FileNotFoundError):
        load_document_corpus(tmp_path)


def test_load_corpus_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError):
        load_corpus(tmp_path, "csv")


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def corpus_of(*lines, label=1):
    return Corpus([Sample(tokenize(l), label) for l in lines])


def test_build_vocab_frequency_then_first_seen():
    vocab = build_vocab(corpus_of("a a b"))
    assert vocab.itos == ["<pad>", "<unk>", "a", "b"]
    assert vocab.stoi["a"] < vocab.stoi["b"]


def test_build_vocab_cap_includes_specials():
    vocab = build_vocab(corpus_of("a a b"), max_size=3)
    assert vocab.itos == ["<pad>", "<unk>", "a"]
    (enc,) = encode_corpus(vocab, [Sample(["b"], 1)])
    assert list(enc.ids) == [1]  # unk


def test_build_vocab_tie_break_is_first_occurrence():
    vocab = build_vocab(corpus_of("zebra apple zebra apple mango"))
    assert vocab.itos[2:] == ["zebra", "apple", "mango"]


def test_build_vocab_cap_too_small():
    with pytest.raises(ConfigError):
        build_vocab(corpus_of("a"), max_size=2)


def test_build_vocab_empty_corpus():
    with pytest.raises(ContractError):
        build_vocab(Corpus([]))


def test_build_vocab_deterministic():
    c = corpus_of("the cat sat", "the dog ran", "a cat ran fast")
    v1, v2 = build_vocab(c), build_vocab(c)
    assert v1.itos == v2.itos


def test_encode_decode_round_trip():
    vocab = build_vocab(corpus_of("alpha beta gamma delta"))
    for token in ("alpha", "beta", "gamma", "delta"):
        (enc,) = encode_corpus(vocab, [Sample([token], 1)])
        assert [vocab.itos[i] for i in enc.ids] == [token]
    assert vocab.itos[:2] == ["<pad>", "<unk>"]


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab(corpus_of("one two two three"))
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.itos == vocab.itos


def test_vocab_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("one\ntwo\n", encoding="utf-8")
    with pytest.raises(ParseError):
        Vocab.load(path)


def test_vocab_load_names_the_repeated_line(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\n<unk>\nfilm\nplot\nfilm\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"vocab\.txt:5: token 'film' repeats line 3$"):
        Vocab.load(path)


# ---------------------------------------------------------------------------
# Pretrained embeddings
# ---------------------------------------------------------------------------

def test_pretrained_copies_found_rows_and_reports_coverage(tmp_path):
    vocab = build_vocab(corpus_of("a b c d"))
    vec = tmp_path / "vec.txt"
    vec.write_text("a 1.0 2.0\nc -0.5 0.25\nzzz 9 9\n", encoding="utf-8")
    table, coverage = load_pretrained_embeddings(vec, vocab, 2, rng_for(0))
    assert coverage == pytest.approx(0.5)  # 2 of 4 real tokens
    assert np.allclose(table.data[vocab.stoi["a"]], [1.0, 2.0])
    assert np.allclose(table.data[vocab.stoi["c"]], [-0.5, 0.25])
    # Missing rows fall in the documented init range.
    assert np.all(np.abs(table.data[vocab.stoi["b"]]) <= 0.05)
    assert table.requires_grad


def test_pretrained_coverage_counts_each_token_once(tmp_path):
    vocab = Vocab(["good", "bad"])
    vec = tmp_path / "vec.txt"
    vec.write_text("good 1 2\ngood 3 4\nbad 5 6\n", encoding="utf-8")
    table, coverage = load_pretrained_embeddings(vec, vocab, 2, rng_for(0))
    assert coverage == 1.0
    assert np.array_equal(table.data[vocab.stoi["good"]], [3.0, 4.0])  # the last line's
    assert np.array_equal(table.data[vocab.stoi["bad"]], [5.0, 6.0])


def test_pretrained_dimension_mismatch_names_line(tmp_path):
    vocab = build_vocab(corpus_of("a b"))
    vec = tmp_path / "vec.txt"
    vec.write_text("a 1.0 2.0\nb 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"vec\.txt:2"):
        load_pretrained_embeddings(vec, vocab, 2, rng_for(0))


def test_pretrained_bad_float_names_line(tmp_path):
    vocab = build_vocab(corpus_of("a"))
    vec = tmp_path / "vec.txt"
    vec.write_text("a 1.0 oops\n", encoding="utf-8")
    with pytest.raises(ParseError, match=":1"):
        load_pretrained_embeddings(vec, vocab, 2, rng_for(0))


def test_pretrained_invalid_utf8_names_line(tmp_path):
    # The byte 0xff inside "good" must not be dropped to leave a known word.
    vocab = Vocab(["good", "bad"])
    vec = tmp_path / "vec.txt"
    vec.write_bytes(b"bad 3 4\ngo\xffod 1 2\n")
    with pytest.raises(ParseError, match=r"vec\.txt:2: not valid UTF-8"):
        load_pretrained_embeddings(vec, vocab, 2, rng_for(0))


def test_pretrained_empty_file_is_valid(tmp_path):
    vocab = build_vocab(corpus_of("a b"))
    vec = tmp_path / "vec.txt"
    vec.write_text("", encoding="utf-8")
    table, coverage = load_pretrained_embeddings(vec, vocab, 3, rng_for(0))
    assert coverage == 0.0
    assert table.shape == (len(vocab), 3)


def test_pretrained_missing_file_is_io_error(tmp_path):
    vocab = build_vocab(corpus_of("a"))
    with pytest.raises(OSError):
        load_pretrained_embeddings(tmp_path / "nope.txt", vocab, 2, rng_for(0))


def test_pretrained_seeded_rows_are_reproducible(tmp_path):
    vocab = build_vocab(corpus_of("a b c"))
    vec = tmp_path / "vec.txt"
    vec.write_text("b 7.0 8.0\n", encoding="utf-8")
    t1, _ = load_pretrained_embeddings(vec, vocab, 2, rng_for(9))
    t2, _ = load_pretrained_embeddings(vec, vocab, 2, rng_for(9))
    assert np.array_equal(t1.data, t2.data)


# ---------------------------------------------------------------------------
# Folds
# ---------------------------------------------------------------------------

def test_folds_partition_with_near_equal_sizes():
    plan = make_folds(10, 10, seed=3)
    sizes = [len(plan.test_indices(i)) for i in range(10)]
    assert sizes == [1] * 10
    plan11 = make_folds(11, 10, seed=3)
    sizes11 = sorted(len(plan11.test_indices(i)) for i in range(10))
    assert sizes11 == [1] * 9 + [2]


def test_folds_cover_every_sample_exactly_once():
    plan = make_folds(37, 5, seed=1)
    seen = np.concatenate([plan.test_indices(i) for i in range(5)])
    assert sorted(seen) == list(range(37))
    for i in range(5):
        train = set(plan.train_indices(i))
        test = set(plan.test_indices(i))
        assert train | test == set(range(37)) and not train & test


def test_folds_same_seed_identical_different_seed_not():
    a = make_folds(50, 10, seed=7)
    b = make_folds(50, 10, seed=7)
    c = make_folds(50, 10, seed=8)
    assert np.array_equal(a.assignment, b.assignment)
    assert not np.array_equal(a.assignment, c.assignment)


def test_folds_validation():
    with pytest.raises(ConfigError):
        make_folds(10, 1, seed=0)
    with pytest.raises(ConfigError):
        make_folds(5, 6, seed=0)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------

def encode_lengths(lengths):
    # Fabricate encoded samples with recognizable ids (2, 3, 4, ...).
    out = []
    for i, n in enumerate(lengths):
        ids = np.arange(2, 2 + n, dtype=np.intp)
        out.append(type("E", (), {"ids": ids, "label": i % 2})())
    return out


def test_batch_padding_width_and_mask():
    samples = encode_lengths([3, 5])
    (batch,) = batch_and_pad(samples, batch_size=2)
    assert batch.ids.shape[1] == 5
    assert batch.mask[0].sum() == 3 and batch.mask[1].sum() == 5
    assert list(batch.ids[0]) == [2, 3, 4, 0, 0]
    assert list(batch.labels) == [0.0, 1.0]


def test_batch_size_one_never_pads():
    batches = batch_and_pad(encode_lengths([4, 2, 7]), batch_size=1)
    assert all(b.mask.all() for b in batches)
    assert [b.ids.shape[1] for b in batches] == [4, 2, 7]


def test_batches_preserve_total_samples():
    batches = batch_and_pad(encode_lengths([1] * 13), batch_size=5)
    assert [b.size for b in batches] == [5, 5, 3]


def test_batch_per_batch_max_width():
    batches = batch_and_pad(encode_lengths([2, 2, 9, 9]), batch_size=2)
    assert [b.ids.shape[1] for b in batches] == [2, 9]


def test_batch_shuffle_is_seeded_and_contents_preserved():
    samples = encode_lengths(range(1, 12))
    b1 = batch_and_pad(samples, 4, rng=rng_for(5))
    b2 = batch_and_pad(samples, 4, rng=rng_for(5))
    b3 = batch_and_pad(samples, 4, rng=rng_for(6))
    flat = lambda bs: [tuple(row[row != 0]) for b in bs for row in b.ids]
    assert flat(b1) == flat(b2)
    assert flat(b1) != flat(b3)
    assert sorted(map(len, flat(b1))) == sorted(map(len, flat(b3)))


def test_batch_validation():
    with pytest.raises(ConfigError):
        batch_and_pad(encode_lengths([2]), 0)
    with pytest.raises(ContractError):
        batch_and_pad([], 4)


def test_encode_corpus_maps_oov_to_unk():
    vocab = build_vocab(corpus_of("the movie was fine"))
    enc = encode_corpus(vocab, [Sample(["the", "plot", "was", "fine"], 1)])
    ids = list(enc[0].ids)
    assert ids[0] == vocab.stoi["the"]
    assert ids[1] == 1  # "plot" unseen -> unk
    assert enc[0].label == 1
