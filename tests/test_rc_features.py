"""Document frequency / query-count features and the enriched encoder."""

from collections import Counter

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tape, Tensor
from cru.errors import ContractError, DimensionError
from cru.rc_features import (count_of_query_word, doc_word_freq,
                             encode_bidirectional_enriched, enrich_embeddings)
from cru.recurrent import VARIANTS, make_cell
from oracles import encode_two_runs, mul, run_row


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


WORDS = ["the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "a", "big"]


def random_tokens(rng, lo=1, hi=12):
    n = int(rng.integers(lo, hi))
    return [WORDS[i] for i in rng.integers(0, len(WORDS), size=n)]


# ---------------------------------------------------------------------------
# doc_word_freq
# ---------------------------------------------------------------------------

def test_freq_hand_example():
    assert np.allclose(doc_word_freq(["a", "b", "a"]), [2 / 3, 1 / 3, 2 / 3])


def test_freq_all_distinct_is_uniform():
    doc = ["w%d" % i for i in range(7)]
    assert np.allclose(doc_word_freq(doc), np.full(7, 1 / 7))


def test_freq_single_token_is_one():
    assert np.allclose(doc_word_freq(["alone"]), [1.0])


def test_freq_requires_non_empty():
    with pytest.raises(ContractError):
        doc_word_freq([])


def test_freq_values_in_unit_interval_and_consistent():
    rng = rng_for(0)
    for trial in range(50):
        doc = random_tokens(rng)
        f = doc_word_freq(doc)
        assert np.all(f > 0) and np.all(f <= 1.0)
        by_token = {}
        for tok, v in zip(doc, f):
            assert by_token.setdefault(tok, v) == v


def test_freq_unique_token_values_sum_to_one():
    rng = rng_for(1)
    for trial in range(20):
        doc = random_tokens(rng, 2, 15)
        f = doc_word_freq(doc)
        first_positions = {tok: i for i, tok in reversed(list(enumerate(doc)))}
        total = sum(f[i] for i in first_positions.values())
        assert total == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# count_of_query_word
# ---------------------------------------------------------------------------

def test_coq_three_occurrence_example():
    assert np.allclose(count_of_query_word(["x"], ["x", "x", "x"]), [3.0])


def test_coq_disjoint_vocabulary_is_zero():
    assert np.allclose(count_of_query_word(["a", "b"], ["c", "d"]), [0.0, 0.0])


def test_coq_counting_example():
    assert np.allclose(count_of_query_word(["a", "b"], ["b", "b", "c"]), [0.0, 2.0])


def test_coq_is_permutation_invariant_in_query():
    rng = rng_for(2)
    for trial in range(30):
        doc = random_tokens(rng)
        q = random_tokens(rng)
        shuffled = list(q)
        rng.shuffle(shuffled)
        assert np.array_equal(count_of_query_word(doc, q),
                              count_of_query_word(doc, shuffled))


def test_coq_brute_force_oracle():
    rng = rng_for(3)
    for trial in range(100):
        doc, q = random_tokens(rng), random_tokens(rng)
        got = count_of_query_word(doc, q)
        counts = Counter(q)
        assert np.array_equal(got, [counts[t] for t in doc])


# ---------------------------------------------------------------------------
# enrich_embeddings
# ---------------------------------------------------------------------------

def test_enrich_single_row_example():
    base = Tensor([[0.1, 0.2]], requires_grad=True)
    out = enrich_embeddings(base, ["alone"], ["other"])
    assert np.allclose(out.data, [[0.1, 0.2, 1.0, 0.0]])


def test_enrich_width_is_d_plus_two():
    rng = rng_for(4)
    for trial in range(10):
        doc = random_tokens(rng)
        base = Tensor(rng.standard_normal((len(doc), 5)))
        out = enrich_embeddings(base, doc, random_tokens(rng))
        assert out.shape == (len(doc), 7)


def test_enrich_alignment_mismatch():
    with pytest.raises(DimensionError):
        enrich_embeddings(Tensor(np.zeros((2, 3))), ["one"], ["q"])
    with pytest.raises(DimensionError):
        enrich_embeddings(Tensor(np.zeros(3)), ["one"], ["q"])


def test_enrich_gradient_reaches_base_only():
    base = Tensor(np.ones((3, 2)), requires_grad=True)
    doc = ["a", "b", "a"]
    with Tape() as tape:
        out = enrich_embeddings(base, doc, ["a"])
        tape.backward(ad.sum_all(out))
    assert np.array_equal(base.grad, np.ones((3, 2)))


def test_enrich_gradient_finite_difference():
    from cru.autodiff import finite_diff_gradcheck

    rng = rng_for(5)
    doc = ["a", "b", "c", "a"]
    base = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def f():
        out = enrich_embeddings(base, doc, ["b", "a"])
        return ad.sum_all(mul(out, out))

    assert finite_diff_gradcheck(f, {"base": base}).passed


# ---------------------------------------------------------------------------
# Enriched bidirectional encoder
# ---------------------------------------------------------------------------

def test_encoder_delegates_to_bidirectional_runner():
    rng = rng_for(6)
    d, d_h = 3, 4
    fwd = make_cell("gru", rng, d + 2, d_h)
    bwd = make_cell("gru", rng, d + 2, d_h)
    doc = ["the", "cat", "the"]
    base = Tensor(rng.standard_normal((3, d)))
    enriched = enrich_embeddings(base, doc, ["cat"])
    H = encode_bidirectional_enriched(fwd, bwd, enriched)
    all_f, _ = run_row(fwd, enriched.data)
    all_b, _ = run_row(bwd, enriched.data[::-1])
    assert H.shape == (3, 2 * d_h)
    assert np.max(np.abs(H.data - np.concatenate([all_f, all_b[::-1]], axis=1))) < 1e-12

    # Gradients flow back through both reversals.
    from cru.autodiff import finite_diff_gradcheck

    base.requires_grad = True
    weights = Tensor(rng.standard_normal((3, 2 * d_h)))
    params = {"base": base, **{f"fwd.{n}": t for n, t in fwd.params.items()},
              **{f"bwd.{n}": t for n, t in bwd.params.items()}}
    report = finite_diff_gradcheck(
        lambda: ad.sum_all(mul(encode_bidirectional_enriched(
            fwd, bwd, enrich_embeddings(base, doc, ["cat"])), weights)), params)
    assert report.passed, (report.per_param, report.max_rel_err)


def test_encoder_single_row_pairs_the_two_directions():
    rng = rng_for(7)
    fwd = make_cell("gru", rng, 4, 3)
    bwd = make_cell("gru", rng, 4, 3)
    base = Tensor(rng.standard_normal((1, 2)))
    enriched = enrich_embeddings(base, ["x"], ["x"])
    H = encode_bidirectional_enriched(fwd, bwd, enriched)
    _, f = run_row(fwd, enriched.data)
    _, b = run_row(bwd, enriched.data)
    assert np.allclose(H.data[0], np.concatenate([f, b]), atol=1e-12)


def test_encoder_zero_cells_give_zero_states():
    rng = rng_for(8)
    fwd = make_cell("gru", rng, 4, 3)
    bwd = make_cell("gru", rng, 4, 3)
    for cell in (fwd, bwd):
        for p in cell.params.values():
            p.data[:] = 0.0
    base = Tensor(rng.standard_normal((5, 2)))
    enriched = enrich_embeddings(base, ["a", "b", "c", "d", "e"], ["a"])
    H = encode_bidirectional_enriched(fwd, bwd, enriched)
    assert np.all(H.data == 0.0)


def test_encoder_equals_two_one_direction_runs():
    # The one two-direction run gives the states and every gradient of the
    # two one-direction runs it replaced, bit for bit.
    rng = rng_for(9)
    for variant in VARIANTS:
        fwd = make_cell(variant, rng, 5, 5)
        bwd = make_cell(variant, rng, 5, 5)
        for n in (1, 7, 40, 300):
            doc = random_tokens(rng, n, n + 1)
            base = Tensor(rng.standard_normal((n, 3)), requires_grad=True)
            weights = Tensor(rng.standard_normal((n, 10)))
            leaves = [base, *fwd.params.values(), *bwd.params.values()]
            results = []
            for encode in (encode_bidirectional_enriched, encode_two_runs):
                for t in leaves:
                    t.zero_grad()
                with Tape() as tape:
                    H = encode(fwd, bwd, enrich_embeddings(base, doc, ["the", "cat"]))
                    tape.backward(ad.sum_all(mul(H, weights)))
                results.append([H.data] + [t.grad for t in leaves])
            for got, ref in zip(*results):
                assert np.array_equal(got, ref), (variant, n)
