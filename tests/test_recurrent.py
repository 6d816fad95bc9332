"""Recurrent cells: step math against a hand-rolled numpy reference, the
variant-reduction identities, packed padded batches, and the two-direction
runners.
"""

import numpy as np
import pytest

from cru import autodiff as ad
from cru.autodiff import Tensor, finite_diff_gradcheck
from cru.errors import ConfigError, ContractError, DimensionError
from cru.layers import same_length_conv
from cru.rc_features import encode_bidirectional_enriched, enrich_embeddings
from cru.recurrent import VARIANTS, _CellBase, make_cell, pack, run_sequence
from oracles import (cell_with_banks, fresh_bank, fresh_recurrence, packing_window,
                     padded_states, run_padded, run_row, token_positions)


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def conv_row(bank, E):
    """The bank's same-length convolution of one unpadded (n, d) sequence."""
    return same_length_conv([[bank]], Tensor(E), pack([len(E)]).batch_sizes).data


def ref_step(p, pz, pr, ph, h):
    """Plain-numpy recurrence on precomputed gate inputs (the oracle); p
    holds a cell's tensors by name."""
    z = sig(pz + p["U_z"].data @ h + p["b_z"].data)
    r = sig(pr + p["U_r"].data @ h + p["b_r"].data)
    g = np.tanh(ph + p["U"].data @ (r * h) + p["b_h"].data)
    return z * h + (1.0 - z) * g


def ref_gru(p, x, h):
    return ref_step(p, p["W_z"].data @ x, p["W_r"].data @ x, p["W"].data @ x, h)


def one_step(cell, x_prev, x):
    """Run the two-step batch [x_prev, x], each (B, d), through run_sequence.

    Returns (h, out): the step-0 state, which step 1 reads as its previous
    state, and the step-1 state.
    """
    states = run_padded(cell, np.stack([x_prev, x], axis=1), [2] * len(x))
    return states[:, 0], states[:, 1]


def relu(x):
    return np.maximum(x, 0.0)


def linear_banks(A):
    """Width-1 banks with zero bias: bank i maps a step input x to
    relu(A[i] @ x)."""
    return [(Tensor(a[:, None, :]), Tensor(np.zeros(a.shape[0]))) for a in A]


# ---------------------------------------------------------------------------
# Parameter container
# ---------------------------------------------------------------------------

def test_gru_params_validation():
    rng = rng_for(0)
    p = fresh_recurrence(rng, "gru", 3, 4)
    assert p["U"].shape == (4, 4) and p["W"].shape == (4, 3)
    E = Tensor(rng.standard_normal((2, 3)))

    def run(**bad):
        cell = _CellBase("gru", {**p, **bad})
        return run_sequence([cell], E, pack([2], (False,)))

    run()
    # The cell takes any shapes; the scan rejects them on first use.
    with pytest.raises(DimensionError):
        run(U_z=Tensor(np.zeros((4, 3))))
    with pytest.raises(DimensionError):
        run(b_z=Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):  # and the projection the W_*
        run(W=Tensor(np.zeros((4, 2))))
    with pytest.raises(ConfigError):  # missing W_r, W
        _CellBase("gru", {n: t for n, t in p.items() if n not in ("W_r", "W")})


def test_gru_params_deep_form_has_no_input_dim():
    p = fresh_recurrence(rng_for(1), "deep", 4, 4)
    assert sorted(p) == ["U", "U_r", "U_z", "b_h", "b_r", "b_z"]


# ---------------------------------------------------------------------------
# One step of each cell against the numpy oracle
# ---------------------------------------------------------------------------

def test_gru_step_matches_reference():
    rng = rng_for(2)
    p = fresh_recurrence(rng, "gru", 3, 4)
    cell = _CellBase("gru", p)
    for trial in range(20):
        x_prev, x = rng.standard_normal((2, 3))
        h, got = one_step(cell, x_prev[None], x[None])
        assert got.shape == (1, 4)
        assert np.allclose(h[0], ref_gru(p, x_prev, np.zeros(4)), atol=1e-12)
        assert np.allclose(got[0], ref_gru(p, x, h[0]), atol=1e-12)


def test_gru_step_batched_rows_match_single():
    rng = rng_for(3)
    p = fresh_recurrence(rng, "gru", 3, 4)
    X_prev = rng.standard_normal((5, 3))
    X = rng.standard_normal((5, 3))
    H, got = one_step(_CellBase("gru", p), X_prev, X)
    for b in range(5):
        assert np.allclose(got[b], ref_gru(p, X[b], H[b]), atol=1e-12)


def test_update_gate_blends_toward_previous_state():
    # Input channel 0 drives the update gate alone: z -> 0 at step 0, so the
    # step-0 state is a plain candidate, then z -> 1 at step 1, so the state
    # must freeze at h_prev; this pins the gate convention (z multiplies the
    # previous state).
    rng = rng_for(4)
    p = fresh_recurrence(rng, "gru", 3, 4)
    p["W_z"].data[:] = 0.0
    p["W_z"].data[:, 0] = 50.0
    x_prev = np.array([-1.0, *rng.standard_normal(2)])
    x = np.array([1.0, *rng.standard_normal(2)])
    h, out = (a[0] for a in one_step(_CellBase("gru", p), x_prev[None], x[None]))
    assert np.max(np.abs(h)) > 0.1
    assert np.allclose(out, h, atol=1e-9)
    # And z -> 0 makes the output the candidate state alone.
    x[0] = -1.0
    h, out2 = (a[0] for a in one_step(_CellBase("gru", p), x_prev[None], x[None]))
    g = np.tanh(p["W"].data @ x
                + p["U"].data @ (sig(p["W_r"].data @ x + p["U_r"].data @ h + p["b_r"].data) * h)
                + p["b_h"].data)
    assert np.allclose(out2, g, atol=1e-9)


def test_reset_gate_cuts_recurrent_candidate_path():
    # b_r -> -inf forces r -> 0: the candidate sees no history at all.
    rng = rng_for(5)
    p = fresh_recurrence(rng, "gru", 3, 4)
    p["b_r"].data[:] = -50.0
    x_prev, x = rng.standard_normal((2, 3))
    h, out = (a[0] for a in one_step(_CellBase("gru", p), x_prev[None], x[None]))
    z = sig(p["W_z"].data @ x + p["U_z"].data @ h + p["b_z"].data)
    g = np.tanh(p["W"].data @ x + p["b_h"].data)  # U @ (0*h) vanishes
    assert np.allclose(out, z * h + (1 - z) * g, atol=1e-9)


def test_deep_step_matches_reference_and_validates():
    rng = rng_for(6)
    p = fresh_recurrence(rng, "deep", 4, 4)
    A = rng.standard_normal((3, 4, 4))
    banks = linear_banks(A)
    x_prev, x = rng.standard_normal((2, 4))
    h, got = (a[0] for a in one_step(cell_with_banks("deep", p, banks), x_prev[None], x[None]))
    assert np.allclose(got, ref_step(p, relu(A[0] @ x), relu(A[1] @ x), relu(A[2] @ x), h),
                       atol=1e-12)
    narrow = linear_banks(rng.standard_normal((1, 3, 3)))[0]
    with pytest.raises(DimensionError):  # bank width must equal hidden size
        one_step(cell_with_banks("deep", p, [narrow, banks[1], banks[2]]), x_prev[None], x[None])
    with pytest.raises(DimensionError):  # in every bank: the scan's P check
        one_step(cell_with_banks("deep", p, [narrow] * 3), x_prev[None, :3], x[None, :3])
    p_full = fresh_recurrence(rng, "gru", 4, 4)
    with pytest.raises(ConfigError):
        cell_with_banks("deep", p_full, banks)
    with pytest.raises(ConfigError):  # one bank per gate
        cell_with_banks("deep", p, banks[:2])
    with pytest.raises(ConfigError):
        _CellBase("lstm", p)


def test_deep_enhanced_step_matches_reference():
    rng = rng_for(7)
    p = fresh_recurrence(rng, "gru", 3, 4)
    A = rng.standard_normal((3, 3, 3))
    banks = linear_banks(A)
    e_prev, e = rng.standard_normal((2, 3))
    h, got = (a[0] for a in one_step(cell_with_banks("deep_enhanced", p, banks), e_prev[None], e[None]))
    expected = ref_step(p, p["W_z"].data @ (relu(A[0] @ e) + e),
                        p["W_r"].data @ (relu(A[1] @ e) + e), p["W"].data @ (relu(A[2] @ e) + e), h)
    assert np.allclose(got, expected, atol=1e-12)
    p_deep = fresh_recurrence(rng, "deep", 4, 4)
    with pytest.raises(ConfigError):
        cell_with_banks("deep_enhanced", p_deep, banks)


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
    C = conv_row(cell.banks[0], E)
    h = np.zeros(5)
    for t in range(4):
        h = ref_gru(cell.params, C[t], h)
        assert np.allclose(all_h[t], h, atol=1e-12)


def test_deep_cell_equals_three_convs_plus_step():
    rng = rng_for(10)
    cell = make_cell("deep", rng, 4, 4)
    E = rng.standard_normal((5, 4))
    all_h, _ = run_row(cell, E)
    cz, cr, ch = (conv_row(c, E) for c in cell.banks)
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
    cz, cr, ch = (conv_row(c, E) for c in cell.banks)
    h = np.zeros(4)
    for t in range(5):
        h = ref_step(p, p["W_z"].data @ (cz[t] + E[t]), p["W_r"].data @ (cr[t] + E[t]),
                     p["W"].data @ (ch[t] + E[t]), h)
        assert np.allclose(all_h[t], h, atol=1e-12)


# ---------------------------------------------------------------------------
# Reduction identities between variants
# ---------------------------------------------------------------------------

def test_deep_enhanced_with_zero_banks_is_gru():
    rng = rng_for(12)
    gru = make_cell("gru", rng, 4, 4)
    zero = [(Tensor(np.zeros((4, 3, 4))), Tensor(np.zeros(4))) for _ in range(3)]
    de = cell_with_banks("deep_enhanced", gru.params, zero)
    for trial in range(10):
        E = rng.standard_normal((6, 4))
        hg, fg = run_row(gru, E)
        hd, fd = run_row(de, E)
        assert np.max(np.abs(hg - hd)) < 1e-12
        assert np.max(np.abs(fg - fd)) < 1e-12


def test_deep_with_shared_banks_is_shallow_with_identity_w():
    rng = rng_for(13)
    d = 4
    bank = fresh_bank(rng, d, 3)
    deep_params = fresh_recurrence(rng, "deep", d, d)
    deep = cell_with_banks("deep", deep_params, [bank] * 3)
    eye = {n: Tensor(np.eye(d), requires_grad=True) for n in ("W_z", "W_r", "W")}
    shallow = cell_with_banks("shallow", {**deep_params, **eye}, [bank])
    for trial in range(10):
        E = rng.standard_normal((5, d))
        h1, f1 = run_row(deep, E)
        h2, f2 = run_row(shallow, E)
        assert np.max(np.abs(h1 - h2)) < 1e-12
        assert np.max(np.abs(f1 - f2)) < 1e-12


def test_shallow_with_identity_window_is_gru():
    # A width-1 bank whose filters copy each channel, with zero bias, passes
    # the rectified embeddings on: shallow is gru run over relu(E).
    rng = rng_for(14)
    gru = make_cell("gru", rng, 4, 5)
    copy = (Tensor(np.eye(4)[:, None, :]), Tensor(np.zeros(4)))
    shallow = cell_with_banks("shallow", gru.params, [copy])
    for trial in range(10):
        E = rng.standard_normal((7, 4))
        hg, fg = run_row(gru, relu(E))
        hs, fs = run_row(shallow, E)
        assert np.max(np.abs(hg - hs)) < 1e-12
        assert np.max(np.abs(fg - fs)) < 1e-12


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
    # An even filter width builds, and fails on the cell's first run.
    cell = make_cell("shallow", rng, 3, 3, k=2)
    with pytest.raises(ConfigError):
        run_sequence([cell], Tensor(np.zeros((2, 3))), pack([2], (False,)))


def test_named_params_cover_each_variant():
    rng = rng_for(16)
    names = {v: set(make_cell(v, rng, 3, 3).params) for v in VARIANTS}
    assert names["gru"] == {"W_z", "W_r", "W", "U_z", "U_r", "U", "b_z", "b_r", "b_h"}
    assert "conv.filters" in names["shallow"]
    assert "conv_z.filters" in names["deep"] and "W_z" not in names["deep"]
    assert "conv_h.bias" in names["deep_enhanced"] and "W" in names["deep_enhanced"]


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------

def test_pack_layout():
    # Rows by length 1, 3, 0, 2 (ties keep batch order); step t's block holds
    # the rows still running, and the reversed direction reads each row from
    # its end.
    # Token rows: row 0 holds 0-1, row 1 holds 2-5, row 2 holds 6 and row 3
    # holds 7-10.
    packing = pack([2, 4, 1, 4])
    assert packing.batch_sizes.tolist() == [4, 3, 2, 2] and packing.size == 11
    assert packing.last.tolist() == [6, 9, 3, 10]
    assert packing.directions == 2 and packing.rows.shape == (11, 2)
    assert packing.rows[:, 0].tolist() == [2, 7, 0, 6, 3, 8, 1, 4, 9, 5, 10]
    assert packing.rows[:, 1].tolist() == [5, 10, 1, 6, 4, 9, 0, 3, 8, 2, 7]
    # One direction of either kind has the same layout.
    for reverse in (False, True):
        one = pack([2, 4, 1, 4], (reverse,))
        assert one.batch_sizes.tolist() == [4, 3, 2, 2] and one.directions == 1
        assert one.last.tolist() == [6, 9, 3, 10]
        assert one.rows[:, 0].tolist() == packing.rows[:, int(reverse)].tolist()
    # The convolution's window, which every direction shares: slot j reads
    # step t + j - 1 of the same row, or the zero row 11. The op's window and
    # its oracle both build it from batch_sizes.
    for window in (packing_window, ad._window):
        assert window(packing.batch_sizes, 3).tolist() == [
            [11, 0, 4], [11, 1, 5], [11, 2, 6], [11, 3, 11], [0, 4, 7], [1, 5, 8], [2, 6, 11],
            [4, 7, 9], [5, 8, 10], [7, 9, 11], [8, 10, 11]]
        assert window(packing.batch_sizes, 1).tolist() == [[i] for i in range(11)]


def test_pack_of_one_full_row_is_the_identity():
    fwd, bwd = pack([5], (False,)), pack([5], (True,))
    assert fwd.rows[:, 0].tolist() == [0, 1, 2, 3, 4]
    assert bwd.rows[:, 0].tolist() == [4, 3, 2, 1, 0]
    assert fwd.batch_sizes.tolist() == [1] * 5 and fwd.last.tolist() == [4]
    assert pack([5]).rows.tolist() == [[0, 4], [1, 3], [2, 2], [3, 1], [4, 0]]
    # One token per row: nothing to reorder.
    one, rev = pack([1, 1, 1], (False,)), pack([1, 1, 1], (True,))
    assert one.rows[:, 0].tolist() == rev.rows[:, 0].tolist() == [0, 1, 2]
    assert pack([1, 1, 1]).rows.tolist() == [[0, 0], [1, 1], [2, 2]]


def test_pack_validation():
    with pytest.raises(ContractError, match="row 1 has no tokens"):
        pack([2, 0])
    with pytest.raises(ContractError):
        pack([])
    with pytest.raises(ContractError):
        pack([2], ())


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
        packing = pack([2, 5, 1], (False,))
        E = Eb.reshape(3 * width, 3)[token_positions([2, 5, 1], width)]
        states = run_sequence([cell], Tensor(E), packing)
        assert states.shape == (8, 3)  # one state per token
        states = padded_states(states.data, [2, 5, 1], width)
        for i, s in enumerate(seqs):
            _, f = run_row(cell, s)
            assert np.max(np.abs(states[i, len(s) - 1] - f)) < 1e-12, variant


def test_mask_alone_shields_non_conv_recurrence_from_pad_garbage():
    # Without convolution no step reads its neighbors, so a row's states up
    # to its length ignore whatever follows — even non-zero garbage.
    rng = rng_for(30)
    cell = make_cell("gru", rng, 3, 4)
    s = rng.standard_normal((3, 3))
    Eb = rng.standard_normal((1, 6, 3)) * 9.0  # garbage everywhere
    Eb[0, :3] = s
    states = run_padded(cell, Eb, [3])
    all_h, _ = run_row(cell, s)
    for t in range(3):
        assert np.max(np.abs(states[0, t] - all_h[t])) < 1e-12


def test_run_sequence_initial_state():
    # Every row starts from the zero state.
    rng = rng_for(19)
    cell = make_cell("gru", rng, 3, 4)
    E = rng.standard_normal((2, 3, 3))
    final = run_padded(cell, E, [3, 3])[:, -1]
    for row in range(2):
        h = np.zeros(4)
        for t in range(3):
            h = ref_gru(cell.params, E[row, t], h)
        assert np.allclose(final[row], h, atol=1e-12)


def test_run_sequence_errors():
    rng = rng_for(20)
    cell = make_cell("gru", rng, 3, 4)
    packing = pack([3, 2], (False,))
    with pytest.raises(DimensionError):  # the token rows come flat, (T, d)
        run_sequence([cell], Tensor(rng.standard_normal((1, 5, 3))), packing)
    with pytest.raises(DimensionError):  # the padded rows (B * n, d) of the batch
        run_sequence([cell], Tensor(rng.standard_normal((6, 3))), packing)
    with pytest.raises(DimensionError):
        run_sequence([cell], Tensor(rng.standard_normal(3)), packing)
    with pytest.raises(ContractError):
        run_sequence([cell], Tensor(np.zeros((0, 3))), pack([0], (False,)))
    E = Tensor(rng.standard_normal((5, 3)))
    with pytest.raises(ContractError):  # one direction for two cells
        run_sequence([cell, cell], E, packing)
    with pytest.raises(ContractError):  # two directions for one cell
        run_sequence([cell], E, pack([3, 2]))
    with pytest.raises(ContractError):
        run_sequence([], E, packing)
    with pytest.raises(DimensionError):  # the token rows of a different batch
        run_sequence([cell, cell], E, pack([4, 2]))
    with pytest.raises(DimensionError):  # directions of different hidden widths
        run_sequence([cell, make_cell("gru", rng, 3, 5)], E, pack([3, 2]))
    with pytest.raises(ContractError):  # directions of different variants
        run_sequence([cell, make_cell("shallow", rng, 3, 4)], E, pack([3, 2]))


def test_single_step_sequence():
    rng = rng_for(21)
    cell = make_cell("deep_enhanced", rng, 3, 3)
    E = rng.standard_normal((1, 3))
    states = run_sequence([cell], Tensor(E), pack([1], (False,)))
    assert states.shape == (1, 3)


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
    X = enriched.data
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
    with pytest.raises(DimensionError):  # the scan's check of the directions' widths
        encode_bidirectional_enriched(fwd, bwd, enriched)


def test_run_bidirectional_batch_matches_single():
    # Each row's state at step length - 1 is its final state in both
    # directions, the reversed packing reading the row from its end as
    # forward_batch does.
    rng = rng_for(25)
    fwd = make_cell("shallow", rng, 3, 4)
    bwd = make_cell("shallow", rng, 3, 4)
    seqs = [rng.standard_normal((n, 3)) for n in (4, 2)]
    width = 4
    Eb = np.zeros((2, width, 3))
    for i, s in enumerate(seqs):
        Eb[i, :len(s)] = s
    states_f = run_padded(fwd, Eb, [4, 2])
    states_b = run_padded(bwd, Eb, [4, 2], reverse=True)
    for i, s in enumerate(seqs):
        last = len(s) - 1
        assert np.max(np.abs(states_f[i, last] - run_row(fwd, s)[1])) < 1e-12
        assert np.max(np.abs(states_b[i, last] - run_row(bwd, s[::-1])[1])) < 1e-12


# ---------------------------------------------------------------------------
# Gradients through full sequences
# ---------------------------------------------------------------------------

def test_sequence_gradcheck_per_variant():
    rng = rng_for(26)
    for variant in VARIANTS:
        cell = make_cell(variant, rng, 3, 3)
        E = Tensor(0.5 * rng.standard_normal((4, 3)), requires_grad=True)
        packing = pack([4], (False,))
        params = dict(cell.params)
        params["E"] = E
        report = finite_diff_gradcheck(
            lambda: ad.sum_all(run_sequence([cell], E, packing)), params)
        assert report.passed, (variant, report.per_param, report.max_rel_err)


def test_masked_batch_gradcheck():
    # Gradients through both directions in one scan and the per-row gather of
    # each row's final states, the way forward_batch picks them. One cell runs
    # both directions, so each of its parameters takes two gradients.
    rng = rng_for(27)
    cell = make_cell("deep_enhanced", rng, 3, 3)
    Eb = Tensor(0.5 * rng.standard_normal((8, 3))[:6], requires_grad=True)  # the tokens
    packing = pack([4, 2])
    params = dict(cell.params)
    params["E"] = Eb

    def f():
        return ad.sum_all(ad.take_rows(run_sequence([cell, cell], Eb, packing),
                                       packing.last))

    report = finite_diff_gradcheck(f, params)
    assert report.passed, report.per_param
