"""End-to-end acceptance gate.

One test per advertised guarantee, in order, each printing a single
pass/fail line with the measured quantity. Run

    pytest -s tests/test_acceptance.py

to see the lines as they happen (plain ``pytest -v`` shows one PASSED /
FAILED row per criterion instead).

The desk-scale comparison (criterion 9) trains on a bundled synthetic
subjectivity corpus by default; point CRU_SUBJ_DIR at a real
pos.txt/neg.txt subjectivity directory to run it on actual data.
"""

import os
import subprocess
import time
from collections import Counter
from pathlib import Path

import numpy as np

from corpusgen import generate_subj_corpus
from cru import autodiff as ad
from cru.autodiff import Tensor
from cru.classifier import (SentimentModel, TrainConfig, _TAG_INIT,
                            _TAG_SHUFFLE, evaluate, seeded_rng, train_epoch,
                            train_on_split)
from cru.cli import run_gradcheck
from cru.data import (Corpus, Sample, batch_and_pad, build_vocab,
                      encode_corpus, load_corpus, make_folds, tokenize)
from cru.layers import same_length_conv
from cru.optim import Adam
from cru.rc_features import count_of_query_word, doc_word_freq
from cru.recurrent import VARIANTS, make_cell, pack
from oracles import cell_with_banks, fresh_bank, fresh_recurrence, run_padded, run_row

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "data" / "mr_sample"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# 1. Gradient soundness
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_soundness():
    t0 = time.monotonic()
    lines: list[str] = []
    ok, worst = run_gradcheck(base_seed=0, tol=1e-4, emit=lines.append)
    elapsed = time.monotonic() - t0
    overall = max(worst.values())
    report(1, "gradient soundness",
           ok and elapsed < 60.0,
           f"4 cell variants + classifier x 5 seeds, "
           f"max_rel_err={overall:.3e} (tol 1e-4), runtime={elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. Degeneracy A: deep-enhanced with zero banks collapses to the plain cell
# ---------------------------------------------------------------------------

def test_criterion_02_degeneracy_deep_enhanced_to_gru():
    rng = rng_for(2)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 6))
        d_h = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3, 5]))
        gru = make_cell("gru", rng, d, d_h)
        zero = [(Tensor(np.zeros((d, k, d))), Tensor(np.zeros(d))) for _ in range(3)]
        enhanced = cell_with_banks("deep_enhanced", gru.params, zero)
        E = rng.standard_normal((n, d))
        hg, fg = run_row(gru, E)
        he, fe = run_row(enhanced, E)
        worst = max(worst, float(np.max(np.abs(hg - he))),
                    float(np.max(np.abs(fg - fe))))
    report(2, "deep-enhanced + zero banks == plain recurrence",
           worst < 1e-12, f"max_abs_step_diff={worst:.2e} over 100 random inputs")


# ---------------------------------------------------------------------------
# 3. Degeneracy B: deep with one shared bank == shallow with identity gates
# ---------------------------------------------------------------------------

def test_criterion_03_degeneracy_deep_to_shallow():
    rng = rng_for(3)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 9))
        k = int(rng.choice([1, 3, 5]))
        bank = fresh_bank(rng, d, k)
        params = fresh_recurrence(rng, "deep", d, d)
        deep = cell_with_banks("deep", params, [bank] * 3)
        eye = {n: Tensor(np.eye(d)) for n in ("W_z", "W_r", "W")}
        shallow = cell_with_banks("shallow", {**params, **eye}, [bank])
        E = rng.standard_normal((n, d))
        h1, f1 = run_row(deep, E)
        h2, f2 = run_row(shallow, E)
        worst = max(worst, float(np.max(np.abs(h1 - h2))),
                    float(np.max(np.abs(f1 - f2))))
    report(3, "shared-bank deep == identity-gate shallow",
           worst < 1e-12, f"max_abs_step_diff={worst:.2e} over 100 random inputs")


# ---------------------------------------------------------------------------
# 4. Same-length convolution contract
# ---------------------------------------------------------------------------

def test_criterion_04_same_length_contract():
    rng = rng_for(4)
    d = 3
    checked = 0
    for k in (1, 3, 5, 7):
        bank = fresh_bank(rng, d, k)
        for n in range(1, 65):
            out = same_length_conv([[bank]], Tensor(rng.standard_normal((n, d))),
                                   pack([n]).batch_sizes)
            assert out.shape == (n, d), (n, k, out.shape)
            checked += 1
    report(4, "same-length convolution",
           checked == 256, f"output shape == input shape for all n in 1..64, "
           f"k in {{1,3,5,7}} ({checked} cases)")


# ---------------------------------------------------------------------------
# 5. Boundedness of hidden states
# ---------------------------------------------------------------------------

def test_criterion_05_boundedness():
    rng = rng_for(5)
    largest = 0.0
    per_variant = 1000
    for variant in VARIANTS:
        for trial in range(per_variant):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 11))
            scale = float(rng.choice([0.3, 1.0, 3.0]))
            cell = make_cell(variant, rng, d, d, k=int(rng.choice([1, 3, 5])))
            all_h, _ = run_row(cell, scale * rng.standard_normal((n, d)))
            largest = max(largest, float(np.max(np.abs(all_h))))
    report(5, "hidden-state boundedness",
           largest < 1.0, f"max |h| = 1 - {1.0 - largest:.1e} (strictly < 1) "
           f"across {per_variant} sequences x {len(VARIANTS)} variants, h0=0")


# ---------------------------------------------------------------------------
# 6. Padded-batch equivalence
# ---------------------------------------------------------------------------

def test_criterion_06_masked_batch_equivalence():
    rng = rng_for(6)
    worst = 0.0
    for trial in range(25):
        d = int(rng.integers(2, 5))
        lengths = [int(rng.integers(1, 8)) for _ in range(3)]
        width = max(lengths)
        Eb = np.zeros((len(lengths), width, d))
        singles = []
        for row, length in enumerate(lengths):
            E = rng.standard_normal((length, d))
            Eb[row, :length] = E
            singles.append(E)
        for variant in VARIANTS:
            cell = make_cell(variant, rng, d, d, k=3)
            states = run_padded(cell, Eb, lengths)
            for row, E in enumerate(singles):
                all_h, f = run_row(cell, E)
                final = states[row, lengths[row] - 1]
                worst = max(worst, float(np.max(np.abs(final - f))))
                for t in range(lengths[row]):
                    worst = max(worst,
                                float(np.max(np.abs(states[row, t] - all_h[t]))))
    report(6, "padded-batch equivalence",
           worst < 1e-12, f"padded-batch vs per-sentence max_abs_diff={worst:.2e} "
           f"(25 mixed-length batches x {len(VARIANTS)} variants)")


# ---------------------------------------------------------------------------
# 7. Per-token document features vs. brute-force counting
# ---------------------------------------------------------------------------

def test_criterion_07_rc_feature_oracle():
    words = ["the", "cat", "sat", "on", "mat", "dog", "ran", "big", "a", "red"]
    rng = rng_for(7)

    def random_tokens():
        return [words[i] for i in rng.integers(0, len(words),
                                               size=int(rng.integers(1, 15)))]

    mismatches = 0
    for trial in range(1000):
        doc, query = random_tokens(), random_tokens()
        freq = doc_word_freq(doc)
        coq = count_of_query_word(doc, query)
        doc_counts, query_counts = Counter(doc), Counter(query)
        expect_freq = [doc_counts[t] / len(doc) for t in doc]
        expect_coq = [float(query_counts[t]) for t in doc]
        if not (np.array_equal(freq, expect_freq) and np.array_equal(coq, expect_coq)):
            mismatches += 1
    three = count_of_query_word(["x"], ["x", "x", "x"])
    ok = mismatches == 0 and np.array_equal(three, [3.0])
    report(7, "freq / query-count features",
           ok, f"{mismatches} mismatches in 1000 random document-query pairs; "
           f"triple-occurrence count = {int(three[0])}")


# ---------------------------------------------------------------------------
# 8. Overfit smoke test
# ---------------------------------------------------------------------------

def test_criterion_08_overfit_small_corpus():
    t0 = time.monotonic()
    corpus = load_corpus(FIXTURE, "mr")
    vocab = build_vocab(corpus)
    config = TrainConfig(variant="deep_enhanced", filter_k=3, embed_dim=16,
                         hidden_dim=16, dropout=0.0, lr=0.01, l2=0.0,
                         batch_size=8, epochs=1, seed=0, fc_dim=32,
                         vocab_cap=None, pretrained=None)
    config.validate()
    model = SentimentModel.build(config, len(vocab),
                                 seeded_rng(config.seed, _TAG_INIT, 0))
    optimizer = Adam(model.named_params(), lr=config.lr)
    encoded = encode_corpus(vocab, corpus.samples)
    eval_batches = batch_and_pad(encoded, config.batch_size)

    accuracy, epoch = 0.0, 0
    for epoch in range(1, 51):
        shuffle_rng = seeded_rng(config.seed, _TAG_SHUFFLE, 0, epoch)
        batches = batch_and_pad(encoded, config.batch_size, rng=shuffle_rng)
        train_epoch(model, optimizer, batches, config, None)
        _, accuracy = evaluate(model, eval_batches)
        if accuracy == 1.0:
            break
    elapsed = time.monotonic() - t0
    report(8, "overfit smoke",
           accuracy == 1.0 and epoch <= 50 and elapsed < 120.0,
           f"train accuracy {accuracy:.0%} on {len(corpus)} samples at epoch "
           f"{epoch} (limit 50), runtime={elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 9. Desk-scale accuracy comparison (directional)
# ---------------------------------------------------------------------------

def test_criterion_09_desk_scale_comparison():
    t0 = time.monotonic()
    subj_dir = os.environ.get("CRU_SUBJ_DIR")
    if subj_dir:
        corpus = load_corpus(subj_dir, "subj")
        samples = corpus.samples
        source = subj_dir
    else:
        subjective, objective = generate_subj_corpus(300, seed=0)
        samples = ([Sample(tokenize(t), 1) for t in subjective]
                   + [Sample(tokenize(t), 0) for t in objective])
        source = "synthetic (tests/corpusgen.py)"
    vocab = build_vocab(Corpus(samples))
    plan = make_folds(len(samples), 10, seed=0)
    train = [samples[i] for i in plan.train_indices(0)]
    test = [samples[i] for i in plan.test_indices(0)]

    means = {}
    for variant in ("deep_enhanced", "gru"):
        accs = []
        for seed in (0, 1, 2):
            config = TrainConfig(variant=variant, filter_k=3, embed_dim=50,
                                 hidden_dim=50, dropout=0.4, lr=0.0005,
                                 batch_size=32, epochs=3, seed=seed,
                                 fc_dim=128, vocab_cap=None, pretrained=None)
            _, rows = train_on_split(train, test, config, vocab, fold=0)
            accs.append([r for r in rows if r["split"] == "test"][-1]["accuracy"])
        means[variant] = float(np.mean(accs))
    elapsed = time.monotonic() - t0
    floor = means["gru"] - 0.002
    report(9, "desk-scale non-inferiority",
           means["deep_enhanced"] >= floor and elapsed < 1800.0,
           f"deep_enhanced mean={means['deep_enhanced']:.4f} vs gru "
           f"mean={means['gru']:.4f} (floor {floor:.4f}); 1 fold, 3 epochs, "
           f"3 seeds, data={source}, runtime={elapsed:.0f}s (< 1800s)")


# ---------------------------------------------------------------------------
# 10. Full-scale reproduction ships as a script, not a CI assertion
# ---------------------------------------------------------------------------

def test_criterion_10_reproduction_script_ships():
    script = ROOT / "scripts" / "reproduce_full_scale.sh"
    exists = script.is_file()
    parses = exists and subprocess.run(
        ["bash", "-n", str(script)], capture_output=True).returncode == 0
    text = script.read_text(encoding="utf-8") if exists else ""
    covers = all(token in text for token in
                 ("--format mr", "--format subj", "--format imdb",
                  "--pretrained", "metrics.csv", "0.5"))
    report(10, "full-scale reproduction script",
           exists and parses and covers,
           f"scripts/reproduce_full_scale.sh exists={exists}, bash -n "
           f"ok={parses}, documents all three datasets, pretrained vectors, "
           f"per-epoch CSV artifacts, and the +/-0.5pt variance band")
