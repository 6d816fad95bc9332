"""Composed references that the batched paths and fused primitives are
checked against.

Each sequence reference handles one unpadded sequence at a time and reverses
it with plain numpy, so it shares no padding, masking or permutation code
with the batched path it checks. ``conv1d_same_einsum`` is the einsum
convolution that the im2col ``ad.conv1d_same`` replaced.
"""

import numpy as np

from cru.autodiff import Tensor
from cru.recurrent import run_sequence


def run_row(cell, E):
    """Run one unpadded (n, d) sequence as a batch of one.

    Returns numpy arrays (all states (n, d_h), final state (d_h,)).
    """
    states, final = run_sequence(cell, Tensor(np.asarray(E)[None]))
    return np.concatenate([s.data for s in states]), final.data[0]


def forward_reference(model, ids) -> float:
    """Eval-mode probability of one unpadded id sequence.

    The forward cell reads the row, the backward cell reads it reversed, and
    the fc (relu) and output (sigmoid) layers are applied in numpy.
    """
    E = model.embedding.weights.data[np.asarray(ids, dtype=np.intp)]
    _, final_f = run_row(model.fwd_cell, E)
    _, final_b = run_row(model.bwd_cell, E[::-1])
    h = np.concatenate([final_f, final_b])
    h = np.maximum(model.fc.weights.data @ h + model.fc.bias.data, 0.0)
    z = model.out.weights.data @ h + model.out.bias.data
    return float(1.0 / (1.0 + np.exp(-z[0])))


def conv1d_same_einsum(x, filters, g):
    """Same-length conv of (B, n, d_in) by (d_out, k, d_in) filters, by einsum.

    Returns (out, d_x, d_filters): the output and the gradients of
    sum(out * g) with respect to x and filters.
    """
    b, n, d_in = x.shape
    k = filters.shape[1]
    pad = (k - 1) // 2
    xp = np.zeros((b, n + k - 1, d_in))
    xp[:, pad:pad + n, :] = x
    win = np.stack([xp[:, j:j + n, :] for j in range(k)], axis=2)  # (B,n,k,c)
    out = np.einsum("ojc,bijc->bio", filters, win)
    d_filters = np.einsum("bio,bijc->ojc", g, win)
    d_win = np.einsum("bio,ojc->bijc", g, filters)
    d_xp = np.zeros_like(xp)
    for j in range(k):
        d_xp[:, j:j + n, :] += d_win[:, :, j, :]
    return out, d_xp[:, pad:pad + n, :], d_filters
