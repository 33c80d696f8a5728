"""Cycle-aware positional encoding with type-dependent spectral amplitudes.

A timestamp is mapped to interleaved ``[mu^k cos(w_k t), mu^k sin(w_k t)]``
pairs, ``k = 0 .. d/2 - 1``. The frequencies ``w_k`` are learnable, and the
amplitude vector ``mu`` is a learned linear map of the event-type one-hot.
Both leaves live in :class:`model.ModelParams`, stored as the forward
multiplies by them: ``freqs`` (1, d/2) and ``density_map`` (K, d/2), so
phases are ``t @ freqs`` and amplitudes ``w @ density_map`` for a (n, K)
matrix ``w`` of type weights. ``init_model_params`` sets the frequencies to
``2*pi*k / (d/2)``, so pair 0 is a DC component that acts as a learnable
bias. The type embedding is not part of the encoding: ``model._embed`` adds
its rows afterwards. The induced dot-product kernel

    P(t_a) . P(t_b) = sum_k mu_a^k mu_b^k cos(w_k (t_a - t_b))

depends on times only through their difference. That holds for this kernel
alone: the model adds type rows to the encodings, scores them through W_Q and
W_K and pools them into contexts, so its outputs still depend on absolute
time until each window is anchored at its own last event (ROADMAP item 10).

The fixed sinusoidal baseline is the same map with unit amplitudes on the
frozen DFT grid: an all-ones ``density_map`` gives ``mu = 1`` for every row
of type weights that sums to one. Feed post-normalization times so the
initial frequencies land in a sensible range.

:func:`fcpe_matrix` is one graph node per call, with a hand-written backward
to the frequencies and the amplitude map. Its cos and sin come from
:func:`fcpe_trig`, which the model runs once per window for every node id.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import DiffNode

__all__ = ["fcpe_trig", "fcpe_matrix"]


def fcpe_trig(freqs: DiffNode, times) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phases ``w_k t`` of times (n,): two (n, d/2) arrays,
    the numbers :func:`fcpe_matrix` computes them as."""
    phases = T.as_tensor(times).reshape(-1, 1) @ freqs.value  # (n, d/2)
    return np.cos(phases), np.sin(phases)


def fcpe_matrix(freqs: DiffNode, density_map: DiffNode, times, type_weights,
                trig) -> DiffNode:
    """Encodings for a batch: times (n,), type_weights (n, K) rows of one-hots
    or mixture weights. Returns (n, d) with ``mu^k cos(w_k t)`` in column 2k
    and ``mu^k sin(w_k t)`` in column 2k + 1, where d/2 is ``freqs``' width.

    ``trig`` is ``fcpe_trig(freqs, times)``; the model reads it, like the
    times and weights, by id from one table per window. Each phase is one
    product and cos and sin work element by element, so a row is the same
    number whichever call computes it.

    One node whose backward goes to ``freqs`` and ``density_map``. Forward
    and backward run the operations of the matmul, cos/sin, product and
    interleave chain it stands for, and add gradients in the chain's order,
    so value and gradients round exactly as that chain does.
    """
    t = T.as_tensor(times).reshape(-1, 1)
    w = T.as_tensor(type_weights)
    c, s = trig
    mu = w @ density_map.value  # (n, d/2)
    out = np.empty((len(t), 2 * freqs.shape[1]))
    np.multiply(mu, c, out=out[:, 0::2])
    np.multiply(mu, s, out=out[:, 1::2])

    def backward(g):
        gc, gs = g[:, 0::2], g[:, 1::2]
        g_mu = gc * c + gs * s
        g_phases = (gs * mu) * c + (-(gc * mu)) * s
        freqs.grad += t.T @ g_phases
        density_map.grad += w.T @ g_mu

    return DiffNode(out, (freqs, density_map), backward)
