"""Cycle-aware positional encoding with type-dependent spectral amplitudes.

A timestamp is mapped to interleaved ``[mu^k cos(w_k t), mu^k sin(w_k t)]``
pairs, ``k = 0 .. d/2 - 1``. The frequencies ``w_k`` are learnable,
initialized to ``2*pi*k / (d/2)`` (so pair 0 is a DC component that acts as
a learnable bias), and the amplitude vector ``mu`` is a learned linear map
of the event-type one-hot. Each leaf is stored as the forward multiplies by
it: ``freqs`` (1, d/2), ``density_map`` (K, d/2) and ``type_embed`` (K, d),
so phases are ``t @ freqs``, amplitudes ``w @ density_map`` and type rows
``w @ type_embed`` for a (n, K) matrix ``w`` of type weights. The induced
dot-product kernel

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
to the frequencies and the amplitude map; :func:`fcpe_trig` gives its cos
and sin, which the model computes once per window for every node.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, check_int
from .tensor import DiffNode

__all__ = [
    "FcpeParams",
    "init_fcpe_params",
    "initial_frequencies",
    "fcpe_trig",
    "fcpe_matrix",
]


class FcpeParams:
    """Learnable pieces of the encoding, stored as the forward multiplies by
    them: frequencies (1, d/2), amplitude map (K, d/2), type embedding (K, d).
    d/2 is the number of frequencies and K the rows of the amplitude map."""

    def __init__(self, freqs: DiffNode, density_map: DiffNode, type_embed: DiffNode):
        self.freqs = freqs
        self.density_map = density_map
        self.type_embed = type_embed
        rows, half = density_map.shape[:1], freqs.value.size
        for name, node, shape in (("freqs", freqs, (1, half)),
                                  ("density_map", density_map, rows + (half,)),
                                  ("type_embed", type_embed, rows + (2 * half,))):
            if node.shape != shape:
                raise ConfigError(f"{name} must have shape {shape}, got {node.shape}")


def initial_frequencies(dim: int) -> np.ndarray:
    half = dim // 2
    return (2.0 * np.pi * np.arange(half) / half).reshape(1, half)


def init_fcpe_params(dim: int, num_types: int, rng: np.random.Generator) -> FcpeParams:
    """Fresh parameters: DFT-grid frequencies, small random maps. The maps
    are drawn as (d/2, K) and (d, K) and stored transposed, so a seed gives
    the values it always has. :class:`FcpeParams` rejects an odd ``dim``."""
    dim = check_int("encoding dim", dim)
    half = dim // 2
    freqs = T.parameter(initial_frequencies(dim))
    density_map = T.parameter(rng.normal(0.0, 0.5, size=(half, num_types)).T)
    type_embed = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, num_types)).T)
    return FcpeParams(freqs, density_map, type_embed)


def fcpe_trig(params: FcpeParams, times) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the phases ``w_k t`` of times (n,): two (n, d/2) arrays,
    the numbers :func:`fcpe_matrix` computes them as."""
    phases = T.as_tensor(times).reshape(-1, 1) @ params.freqs.value  # (n, d/2)
    return np.cos(phases), np.sin(phases)


def fcpe_matrix(params: FcpeParams, times, type_weights, trig=None) -> DiffNode:
    """Encodings for a batch: times (n,), type_weights (n, K) rows of one-hots
    or mixture weights. Returns (n, d) with ``mu^k cos(w_k t)`` in column 2k
    and ``mu^k sin(w_k t)`` in column 2k + 1.

    ``trig`` is ``fcpe_trig(params, times)``, for a caller that has it
    already: the model takes it from one table per window, because a node
    carried over to a later scale is encoded again there. Each phase is one
    product and cos and sin work element by element, so a row is the same
    number whichever call computes it.

    One node whose backward goes to ``freqs`` and ``density_map``. Forward
    and backward run the operations of the matmul, cos/sin, product and
    interleave chain it stands for, and add gradients in the chain's order,
    so value and gradients round exactly as that chain does.
    """
    freqs, density_map = params.freqs, params.density_map
    t = T.as_tensor(times).reshape(-1, 1)
    w = T.as_tensor(type_weights)
    c, s = fcpe_trig(params, t) if trig is None else trig
    mu = w @ density_map.value  # (n, d/2)
    out = np.empty((len(t), params.type_embed.shape[1]))
    np.multiply(mu, c, out=out[:, 0::2])
    np.multiply(mu, s, out=out[:, 1::2])

    def backward(g):
        gc, gs = g[:, 0::2], g[:, 1::2]
        g_mu = gc * c + gs * s
        g_phases = (gs * mu) * c + (-(gc * mu)) * s
        freqs.grad += t.T @ g_phases
        density_map.grad += w.T @ g_mu

    return DiffNode(out, (freqs, density_map), backward)
