"""Recurrent cells: step math against a hand-rolled numpy reference, the
variant-reduction identities, padded batches, and the two-direction runners.
"""

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tensor, finite_diff_gradcheck
from cru.errors import ConfigError, ContractError, DimensionError
from cru.layers import ConvBank, same_length_conv
from cru.rc_features import encode_bidirectional_enriched, enrich_embeddings
from cru.recurrent import (DeepCell, DeepEnhancedCell, GruCell, GruParams,
                           ShallowCell, VARIANTS, make_cell, run_sequence)
from oracles import run_row


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_step(p: GruParams, pz, pr, ph, h):
    """Plain-numpy recurrence on precomputed gate inputs (the oracle)."""
    z = sig(pz + p.U_z.data @ h + p.b_z.data)
    r = sig(pr + p.U_r.data @ h + p.b_r.data)
    g = np.tanh(ph + p.U.data @ (r * h) + p.b_h.data)
    return z * h + (1.0 - z) * g


def ref_gru(p: GruParams, x, h):
    return ref_step(p, p.W_z.data @ x, p.W_r.data @ x, p.W.data @ x, h)


def one_step(cell, x, h):
    """One update through cell.prepare + cell.step: x (B, d), h (B, d_h)."""
    prep = cell.prepare(Tensor(np.asarray(x)[:, None, :]))
    return cell.step(prep, 0, Tensor(h)).data


def linear_banks(A):
    """Width-1 identity-activation banks: bank i maps a step input x to A[i] @ x."""
    return [ConvBank(Tensor(a[:, None, :]), Tensor(np.zeros(a.shape[0])), "identity")
            for a in A]


# ---------------------------------------------------------------------------
# Parameter container
# ---------------------------------------------------------------------------

def test_gru_params_validation():
    rng = rng_for(0)
    p = GruParams.init(rng, 3, 4)
    assert p.hidden_dim == 4 and p.input_dim == 3
    with pytest.raises(DimensionError):
        GruParams(U_z=Tensor(np.zeros((4, 3))), U_r=p.U_r, U=p.U,
                  b_z=p.b_z, b_r=p.b_r, b_h=p.b_h)
    with pytest.raises(DimensionError):
        GruParams(U_z=p.U_z, U_r=p.U_r, U=p.U,
                  b_z=Tensor(np.zeros(3)), b_r=p.b_r, b_h=p.b_h)
    with pytest.raises(ConfigError):
        GruParams(U_z=p.U_z, U_r=p.U_r, U=p.U, b_z=p.b_z, b_r=p.b_r,
                  b_h=p.b_h, W_z=p.W_z)  # missing W_r, W


def test_gru_params_deep_form_has_no_input_dim():
    p = GruParams.init(rng_for(1), None, 4)
    assert p.W is None and p.input_dim is None


# ---------------------------------------------------------------------------
# One step of each cell against the numpy oracle
# ---------------------------------------------------------------------------

def test_gru_step_matches_reference():
    rng = rng_for(2)
    p = GruParams.init(rng, 3, 4)
    cell = GruCell(p)
    for trial in range(20):
        x = rng.standard_normal(3)
        h = np.clip(rng.standard_normal(4) * 0.5, -0.99, 0.99)
        got = one_step(cell, x[None], h[None])
        assert got.shape == (1, 4)
        assert np.allclose(got[0], ref_gru(p, x, h), atol=1e-12)


def test_gru_step_batched_rows_match_single():
    rng = rng_for(3)
    p = GruParams.init(rng, 3, 4)
    X = rng.standard_normal((5, 3))
    H = rng.standard_normal((5, 4)) * 0.5
    got = one_step(GruCell(p), X, H)
    for b in range(5):
        assert np.allclose(got[b], ref_gru(p, X[b], H[b]), atol=1e-12)


def test_update_gate_blends_toward_previous_state():
    # Pushing b_z to +inf makes z -> 1, so the state must freeze at h_prev;
    # this pins the gate convention (z multiplies the previous state).
    rng = rng_for(4)
    p = GruParams.init(rng, 3, 4)
    p.b_z.data[:] = 50.0
    x = rng.standard_normal(3)
    h = rng.standard_normal(4) * 0.5
    out = one_step(GruCell(p), x[None], h[None])[0]
    assert np.allclose(out, h, atol=1e-9)
    # And b_z -> -inf makes the output the candidate state alone.
    p.b_z.data[:] = -50.0
    out2 = one_step(GruCell(p), x[None], h[None])[0]
    g = np.tanh(p.W.data @ x
                + p.U.data @ (sig(p.W_r.data @ x + p.U_r.data @ h + p.b_r.data) * h)
                + p.b_h.data)
    assert np.allclose(out2, g, atol=1e-9)


def test_reset_gate_cuts_recurrent_candidate_path():
    # b_r -> -inf forces r -> 0: the candidate sees no history at all.
    rng = rng_for(5)
    p = GruParams.init(rng, 3, 4)
    p.b_r.data[:] = -50.0
    x = rng.standard_normal(3)
    h = rng.standard_normal(4) * 0.5
    out = one_step(GruCell(p), x[None], h[None])[0]
    z = sig(p.W_z.data @ x + p.U_z.data @ h + p.b_z.data)
    g = np.tanh(p.W.data @ x + p.b_h.data)  # U @ (0*h) vanishes
    assert np.allclose(out, z * h + (1 - z) * g, atol=1e-9)


def test_deep_step_matches_reference_and_validates():
    rng = rng_for(6)
    p = GruParams.init(rng, None, 4)
    A = rng.standard_normal((3, 4, 4))
    banks = linear_banks(A)
    x = rng.standard_normal(4)
    h = rng.standard_normal(4) * 0.5
    got = one_step(DeepCell(*banks, p), x[None], h[None])[0]
    assert np.allclose(got, ref_step(p, A[0] @ x, A[1] @ x, A[2] @ x, h), atol=1e-12)
    narrow = linear_banks(rng.standard_normal((1, 3, 4)))[0]
    with pytest.raises(ConfigError):  # bank width must equal hidden size
        DeepCell(narrow, banks[1], banks[2], p)
    p_full = GruParams.init(rng, 4, 4)
    with pytest.raises(ConfigError):
        DeepCell(*banks, p_full)


def test_deep_enhanced_step_matches_reference():
    rng = rng_for(7)
    p = GruParams.init(rng, 3, 4)
    A = rng.standard_normal((3, 3, 3))
    banks = linear_banks(A)
    e = rng.standard_normal(3)
    h = rng.standard_normal(4) * 0.5
    got = one_step(DeepEnhancedCell(*banks, p), e[None], h[None])[0]
    expected = ref_step(p, p.W_z.data @ (A[0] @ e + e), p.W_r.data @ (A[1] @ e + e),
                        p.W.data @ (A[2] @ e + e), h)
    assert np.allclose(got, expected, atol=1e-12)
    p_deep = GruParams.init(rng, None, 4)
    with pytest.raises(ConfigError):
        DeepEnhancedCell(*banks, p_deep)


# ---------------------------------------------------------------------------
# Whole sequences agree with the numpy oracle stepped by hand
# ---------------------------------------------------------------------------

def test_gru_cell_equals_stepwise_loop():
    rng = rng_for(8)
    cell = make_cell("gru", rng, 3, 4)
    E = rng.standard_normal((6, 3))
    all_h, final = run_row(cell, E)
    h = np.zeros(4)
    for t in range(6):
        h = ref_gru(cell.params, E[t], h)
        assert np.allclose(all_h[t], h, atol=1e-12)
    assert np.allclose(final, h, atol=1e-12)


def test_shallow_cell_equals_conv_then_gru():
    rng = rng_for(9)
    cell = make_cell("shallow", rng, 3, 5)
    E = rng.standard_normal((4, 3))
    all_h, _ = run_row(cell, E)
    C = same_length_conv(cell.bank, Tensor(E[None])).data[0]
    h = np.zeros(5)
    for t in range(4):
        h = ref_gru(cell.params, C[t], h)
        assert np.allclose(all_h[t], h, atol=1e-12)


def test_deep_cell_equals_three_convs_plus_step():
    rng = rng_for(10)
    cell = make_cell("deep", rng, 4, 4)
    E = rng.standard_normal((5, 4))
    all_h, _ = run_row(cell, E)
    cz = same_length_conv(cell.conv_z, Tensor(E[None])).data[0]
    cr = same_length_conv(cell.conv_r, Tensor(E[None])).data[0]
    ch = same_length_conv(cell.conv_h, Tensor(E[None])).data[0]
    h = np.zeros(4)
    for t in range(5):
        h = ref_step(cell.params, cz[t], cr[t], ch[t], h)
        assert np.allclose(all_h[t], h, atol=1e-12)


def test_deep_enhanced_cell_equals_conv_plus_step():
    rng = rng_for(11)
    cell = make_cell("deep_enhanced", rng, 3, 4)
    E = rng.standard_normal((5, 3))
    all_h, _ = run_row(cell, E)
    p = cell.params
    cz = same_length_conv(cell.conv_z, Tensor(E[None])).data[0]
    cr = same_length_conv(cell.conv_r, Tensor(E[None])).data[0]
    ch = same_length_conv(cell.conv_h, Tensor(E[None])).data[0]
    h = np.zeros(4)
    for t in range(5):
        h = ref_step(p, p.W_z.data @ (cz[t] + E[t]), p.W_r.data @ (cr[t] + E[t]),
                     p.W.data @ (ch[t] + E[t]), h)
        assert np.allclose(all_h[t], h, atol=1e-12)


# ---------------------------------------------------------------------------
# Reduction identities between variants
# ---------------------------------------------------------------------------

def test_deep_enhanced_with_zero_banks_is_gru():
    rng = rng_for(12)
    gru = make_cell("gru", rng, 4, 4)
    zero = [ConvBank(Tensor(np.zeros((4, 3, 4))), Tensor(np.zeros(4)), "relu")
            for _ in range(3)]
    de = DeepEnhancedCell(*zero, gru.params)
    for trial in range(10):
        E = rng.standard_normal((6, 4))
        hg, fg = run_row(gru, E)
        hd, fd = run_row(de, E)
        assert np.max(np.abs(hg - hd)) < 1e-12
        assert np.max(np.abs(fg - fd)) < 1e-12


def test_deep_with_shared_banks_is_shallow_with_identity_w():
    rng = rng_for(13)
    d = 4
    bank = ConvBank.init(rng, d, 3, d, "relu")
    deep_params = GruParams.init(rng, None, d)
    deep = DeepCell(bank, bank, bank, deep_params)
    eye = lambda: Tensor(np.eye(d), requires_grad=True)
    shallow = ShallowCell(bank, GruParams(
        U_z=deep_params.U_z, U_r=deep_params.U_r, U=deep_params.U,
        b_z=deep_params.b_z, b_r=deep_params.b_r, b_h=deep_params.b_h,
        W_z=eye(), W_r=eye(), W=eye()))
    for trial in range(10):
        E = rng.standard_normal((5, d))
        h1, f1 = run_row(deep, E)
        h2, f2 = run_row(shallow, E)
        assert np.max(np.abs(h1 - h2)) < 1e-12
        assert np.max(np.abs(f1 - f2)) < 1e-12


def test_shallow_with_identity_window_is_gru():
    # A width-1 bank whose filters copy each channel, with identity
    # activation and zero bias, leaves the embeddings untouched.
    rng = rng_for(14)
    gru = make_cell("gru", rng, 4, 5)
    ident = ConvBank(Tensor(np.eye(4)[:, None, :]), Tensor(np.zeros(4)),
                     "identity")
    shallow = ShallowCell(ident, gru.params)
    E = rng.standard_normal((7, 4))
    hg, _ = run_row(gru, E)
    hs, _ = run_row(shallow, E)
    assert np.max(np.abs(hg - hs)) < 1e-12


# ---------------------------------------------------------------------------
# Construction errors
# ---------------------------------------------------------------------------

def test_make_cell_validation():
    rng = rng_for(15)
    with pytest.raises(ConfigError):
        make_cell("lstm", rng, 3, 3)
    with pytest.raises(ConfigError):
        make_cell("deep", rng, 3, 4)  # deep needs hidden == embed
    with pytest.raises(ConfigError):
        make_cell("gru", rng, 0, 3)
    with pytest.raises(ConfigError):
        make_cell("shallow", rng, 3, 3, k=2)


def test_named_params_cover_each_variant():
    rng = rng_for(16)
    names = {v: set(make_cell(v, rng, 3, 3).named_params("x.")) for v in VARIANTS}
    assert names["gru"] == {f"x.{n}" for n in
                            ("W_z", "W_r", "W", "U_z", "U_r", "U", "b_z", "b_r", "b_h")}
    assert "x.conv.filters" in names["shallow"]
    assert "x.conv_z.filters" in names["deep"] and "x.W_z" not in names["deep"]
    assert "x.conv_h.bias" in names["deep_enhanced"] and "x.W" in names["deep_enhanced"]


# ---------------------------------------------------------------------------
# Sequence runner
# ---------------------------------------------------------------------------

def test_run_sequence_masked_batch_matches_per_sequence():
    # A zero-padded row's state at step length - 1 is its one-row final state.
    rng = rng_for(18)
    for variant in VARIANTS:
        cell = make_cell(variant, rng, 3, 3)
        seqs = [rng.standard_normal((n, 3)) for n in (2, 5, 1)]
        width = max(len(s) for s in seqs)
        Eb = np.zeros((3, width, 3))
        for i, s in enumerate(seqs):
            Eb[i, :len(s)] = s
        states = run_sequence(cell, Tensor(Eb))
        assert len(states) == width
        for i, s in enumerate(seqs):
            _, f = run_row(cell, s)
            assert np.max(np.abs(states[len(s) - 1].data[i] - f)) < 1e-12, variant


def test_mask_alone_shields_non_conv_recurrence_from_pad_garbage():
    # Without convolution no step reads its neighbors, so a row's states up
    # to its length ignore whatever follows — even non-zero garbage.
    rng = rng_for(30)
    cell = make_cell("gru", rng, 3, 4)
    s = rng.standard_normal((3, 3))
    Eb = rng.standard_normal((1, 6, 3)) * 9.0  # garbage everywhere
    Eb[0, :3] = s
    states = run_sequence(cell, Tensor(Eb))
    all_h, _ = run_row(cell, s)
    for t in range(3):
        assert np.max(np.abs(states[t].data[0] - all_h[t])) < 1e-12


def test_run_sequence_initial_state():
    # Every row starts from the zero state.
    rng = rng_for(19)
    cell = make_cell("gru", rng, 3, 4)
    E = rng.standard_normal((2, 3, 3))
    final = run_sequence(cell, Tensor(E))[-1]
    for row in range(2):
        h = np.zeros(4)
        for t in range(3):
            h = ref_gru(cell.params, E[row, t], h)
        assert np.allclose(final.data[row], h, atol=1e-12)


def test_run_sequence_errors():
    rng = rng_for(20)
    cell = make_cell("gru", rng, 3, 4)
    with pytest.raises(DimensionError):  # a bare (n, d) sequence is not a batch
        run_sequence(cell, Tensor(rng.standard_normal((3, 3))))
    with pytest.raises(DimensionError):
        run_sequence(cell, Tensor(rng.standard_normal(3)))
    with pytest.raises(ContractError):
        run_sequence(cell, Tensor(np.zeros((1, 0, 3))))


def test_single_step_sequence():
    rng = rng_for(21)
    cell = make_cell("deep_enhanced", rng, 3, 3)
    E = rng.standard_normal((1, 1, 3))
    states = run_sequence(cell, Tensor(E))
    assert len(states) == 1 and states[0].shape == (1, 3)


def test_hidden_states_stay_in_unit_interval():
    rng = rng_for(22)
    for variant in VARIANTS:
        cell = make_cell(variant, rng, 4, 4)
        for trial in range(25):
            n = int(rng.integers(1, 12))
            E = rng.standard_normal((n, 4)) * 3.0
            all_h, _ = run_row(cell, E)
            assert np.all(np.abs(all_h) < 1.0), variant


# ---------------------------------------------------------------------------
# Bidirectional runners
# ---------------------------------------------------------------------------

def test_run_bidirectional_structure():
    # The per-position encoder pairs each position's forward state with the
    # backward state for the same position; checked against numpy loops.
    rng = rng_for(23)
    fwd = make_cell("gru", rng, 5, 4)
    bwd = make_cell("gru", rng, 5, 4)
    enriched = enrich_embeddings(Tensor(rng.standard_normal((5, 3))),
                                 ["a", "b", "a", "c", "d"], ["a"])
    X = enriched.combined.data
    H = encode_bidirectional_enriched(fwd, bwd, enriched)
    assert H.shape == (5, 8)
    h_f, h_b = np.zeros(4), np.zeros(4)
    for t in range(5):
        h_f = ref_gru(fwd.params, X[t], h_f)
        h_b = ref_gru(bwd.params, X[4 - t], h_b)
        assert np.allclose(H.data[t, :4], h_f, atol=1e-12)
        assert np.allclose(H.data[4 - t, 4:], h_b, atol=1e-12)


def test_run_bidirectional_errors():
    rng = rng_for(24)
    fwd = make_cell("gru", rng, 5, 4)
    bwd = make_cell("gru", rng, 5, 5)
    enriched = enrich_embeddings(Tensor(rng.standard_normal((4, 3))),
                                 ["a", "b", "c", "d"], ["a"])
    with pytest.raises(ConfigError):
        encode_bidirectional_enriched(fwd, bwd, enriched)


def test_run_bidirectional_batch_matches_single():
    # Each row's state at step length - 1 is its final state in both
    # directions when the row is reversed in place with its padding kept at
    # the tail, as forward_batch does.
    rng = rng_for(25)
    fwd = make_cell("shallow", rng, 3, 4)
    bwd = make_cell("shallow", rng, 3, 4)
    seqs = [rng.standard_normal((n, 3)) for n in (4, 2)]
    width = 4
    Eb = np.zeros((2, width, 3))
    Er = np.zeros((2, width, 3))
    for i, s in enumerate(seqs):
        Eb[i, :len(s)] = s
        Er[i, :len(s)] = s[::-1]
    states_f = run_sequence(fwd, Tensor(Eb))
    states_b = run_sequence(bwd, Tensor(Er))
    for i, s in enumerate(seqs):
        last = len(s) - 1
        assert np.max(np.abs(states_f[last].data[i] - run_row(fwd, s)[1])) < 1e-12
        assert np.max(np.abs(states_b[last].data[i] - run_row(bwd, s[::-1])[1])) < 1e-12


# ---------------------------------------------------------------------------
# Gradients through full sequences
# ---------------------------------------------------------------------------

def test_sequence_gradcheck_per_variant():
    rng = rng_for(26)
    for variant in VARIANTS:
        cell = make_cell(variant, rng, 3, 3)
        E = Tensor(0.5 * rng.standard_normal((1, 4, 3)), requires_grad=True)
        params = dict(cell.named_params())
        params["E"] = E
        report = finite_diff_gradcheck(
            lambda: ad.sum_all(ad.concat_rows(run_sequence(cell, E))), params)
        assert report.passed, (variant, report.worst(), report.max_rel_err)


def test_masked_batch_gradcheck():
    # Gradients through the per-row gather of the state at step length - 1,
    # the way forward_batch picks each row's final state.
    rng = rng_for(27)
    cell = make_cell("deep_enhanced", rng, 3, 3)
    Eb = Tensor(0.5 * rng.standard_normal((2, 4, 3)), requires_grad=True)
    Eb.data[1, 2:] = 0.0  # zero pads, as forward_batch makes them
    lengths = np.array([4, 2])
    last = (lengths - 1) * 2 + np.arange(2)
    params = dict(cell.named_params())
    params["E"] = Eb

    def f():
        finals = ad.take_rows(ad.concat_rows(run_sequence(cell, Eb)), last)
        return ad.sum_all(finals)

    report = finite_diff_gradcheck(f, params)
    assert report.passed, report.per_param
