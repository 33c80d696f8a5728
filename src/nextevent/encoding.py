"""Cycle-aware positional encoding with type-dependent spectral amplitudes.

A timestamp is mapped to interleaved ``[mu^k cos(w_k t), mu^k sin(w_k t)]``
pairs, ``k = 0 .. d/2 - 1``. The frequencies ``w_k`` are learnable,
initialized to ``2*pi*k / (d/2)`` (so pair 0 is a DC component that acts as
a learnable bias), and the amplitude vector ``mu`` is a learned linear map
of the event-type one-hot. The induced dot-product kernel

    P(t_a) . P(t_b) = sum_k mu_a^k mu_b^k cos(w_k (t_a - t_b))

depends on times only through their difference, which is what makes the
downstream attention scores stable under global time shifts of the inputs.

The fixed sinusoidal baseline is the same map with unit amplitudes on the
frozen DFT grid: an all-ones ``density_map`` gives ``mu = 1`` for every row
of type weights that sums to one. Feed post-normalization times so the
initial frequencies land in a sensible range.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .tensor import DiffNode

__all__ = [
    "FcpeParams",
    "init_fcpe_params",
    "initial_frequencies",
    "fcpe_matrix",
    "onehot_matrix",
]


class FcpeParams:
    """Learnable pieces of the encoding: frequencies, amplitude map, type embedding."""

    def __init__(self, dim: int, num_types: int, freqs: DiffNode, density_map: DiffNode,
                 type_embed: DiffNode):
        if dim % 2 != 0 or dim <= 0:
            raise ConfigError(f"encoding dim must be a positive even integer, got {dim}")
        self.dim = dim
        self.num_types = num_types
        self.freqs = freqs  # (d/2, 1)
        self.density_map = density_map  # (d/2, K)
        self.type_embed = type_embed  # (d, K)
        half = dim // 2
        if freqs.shape != (half, 1):
            raise ConfigError(f"freqs must have shape ({half}, 1), got {freqs.shape}")
        if density_map.shape != (half, num_types):
            raise ConfigError(
                f"density_map must have shape ({half}, {num_types}), got {density_map.shape}"
            )
        if type_embed.shape != (dim, num_types):
            raise ConfigError(
                f"type_embed must have shape ({dim}, {num_types}), got {type_embed.shape}"
            )

    def named(self) -> dict[str, DiffNode]:
        return {
            "fcpe.freqs": self.freqs,
            "fcpe.density_map": self.density_map,
            "fcpe.type_embed": self.type_embed,
        }


def initial_frequencies(dim: int) -> np.ndarray:
    half = dim // 2
    return (2.0 * np.pi * np.arange(half) / half).reshape(half, 1)


def init_fcpe_params(dim: int, num_types: int, rng: np.random.Generator) -> FcpeParams:
    """Fresh parameters: DFT-grid frequencies, small random maps."""
    if dim % 2 != 0 or dim <= 0:
        raise ConfigError(f"encoding dim must be a positive even integer, got {dim}")
    half = dim // 2
    freqs = T.parameter(initial_frequencies(dim))
    density_map = T.parameter(rng.normal(0.0, 0.5, size=(half, num_types)))
    type_embed = T.parameter(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, num_types)))
    return FcpeParams(dim, num_types, freqs, density_map, type_embed)


def _interleave_index(dim: int) -> np.ndarray:
    half = dim // 2
    idx = np.empty(dim, dtype=np.int64)
    idx[0::2] = np.arange(half)
    idx[1::2] = np.arange(half) + half
    return idx


def fcpe_matrix(params: FcpeParams, times, type_weights) -> DiffNode:
    """Encodings for a batch: times (n,), type_weights (n, K) rows of one-hots
    or mixture weights. Returns (n, d)."""
    t_col = T.constant(np.asarray(times, dtype=np.float64).reshape(-1, 1))
    w_row = T.transpose(params.freqs)  # (1, d/2)
    phases = T.matmul(t_col, w_row)  # (n, d/2)
    weights = T.constant(np.asarray(type_weights, dtype=np.float64))
    mu = T.matmul(weights, T.transpose(params.density_map))  # (n, d/2)
    cos_part = T.mul(mu, T.cos(phases))
    sin_part = T.mul(mu, T.sin(phases))
    return T.gather_cols(T.concat_cols(cos_part, sin_part), _interleave_index(params.dim))


def onehot_matrix(types, num_types: int) -> np.ndarray:
    types = np.asarray(types, dtype=np.int64)
    m = np.zeros((len(types), num_types))
    m[np.arange(len(types)), types] = 1.0
    return m
