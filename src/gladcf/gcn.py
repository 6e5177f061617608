"""Graph convolution with symmetric degree normalization, batch-padded.

Self-loops are added only on real nodes (via the node mask), zero degrees are
normalized as degree 1, and padded rows stay exactly zero through every layer.
The adjacency may itself be a differentiable tensor — the counterfactual
generator backpropagates through the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

Array = np.ndarray


@dataclass
class GCNLayerParams:
    """One convolution layer: weight ``(in_dim, out_dim)`` and bias ``(out_dim,)``."""

    weight: Tensor
    bias: Tensor

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]


def init_gcn_layer(in_dim: int, out_dim: int,
                   rng: np.random.Generator) -> GCNLayerParams:
    """Seeded uniform init in ±sqrt(6 / (in_dim + out_dim)); zero bias."""
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    weight = rng.uniform(-limit, limit, size=(in_dim, out_dim))
    return GCNLayerParams(weight=Tensor(weight, requires_grad=True),
                          bias=Tensor(np.zeros(out_dim), requires_grad=True))


def normalize_adjacency(adjacency: Tensor | Array, mask: Array) -> Tensor:
    """Symmetrically normalized adjacency with masked self-loops.

    Computes ``D^{-1/2} (A + I·mask) D^{-1/2}`` where the self-loop diagonal
    carries 1 only for real nodes and zero degrees are treated as 1. Accepts a
    single ``(n, n)`` matrix with mask ``(n,)`` or a stack ``(B, n, n)`` with
    mask ``(B, n)``.
    """
    adjacency = adjacency if isinstance(adjacency, Tensor) else Tensor(adjacency)
    mask = np.asarray(mask, dtype=np.float64)
    with_loops = ad.add_diagonal(adjacency, mask)
    degrees = ad.tsum(with_loops, axis=-1)
    inv_sqrt = ad.power(ad.safe_nonzero(degrees), -0.5)
    if adjacency.ndim == 2:
        row = ad.reshape(inv_sqrt, (adjacency.shape[0], 1))
        col = ad.reshape(inv_sqrt, (1, adjacency.shape[0]))
    else:
        b, n = inv_sqrt.shape
        row = ad.reshape(inv_sqrt, (b, n, 1))
        col = ad.reshape(inv_sqrt, (b, 1, n))
    return with_loops * row * col


def gcn_layer(params: GCNLayerParams, features: Tensor,
              normalized: Tensor, mask: Array) -> Tensor:
    """One propagation step: ``Â · H · W + b``, padded rows forced to zero.

    ``Â`` multiplies the narrower of ``H`` and ``H · W``: a widening layer
    computes ``(Â · H) · W``, any other ``Â · (H · W)``. Both orders give the
    same product, but the first detector layers then propagate their input
    columns (identity features, one degree column) instead of ``hidden1``.
    """
    if params.in_dim < params.out_dim:
        propagated = ad.matmul(ad.matmul(normalized, features), params.weight)
    else:
        propagated = ad.matmul(normalized, ad.matmul(features, params.weight))
    out = propagated + params.bias
    return out * np.asarray(mask)[..., None]


def gcn_forward(layers: Sequence[GCNLayerParams], features: Tensor | Array,
                normalized: Tensor, mask: Array) -> Tensor:
    """Run convolution layers over a pre-normalized adjacency ``Â``.

    ReLU goes between the layers, not after the last one. Pass the output of
    ``normalize_adjacency`` so that several stacks can share one normalization.
    """
    h = features if isinstance(features, Tensor) else Tensor(features)
    for i, layer in enumerate(layers):
        if i > 0:
            h = ad.relu(h)
        h = gcn_layer(layer, h, normalized, mask)
    return h


def masked_mean_pool(node_states: Tensor, mask: Array) -> Tensor:
    """Average real-node rows of a ``(B, n, F)`` tensor into ``(B, F)``.

    A batch element with no real nodes pools to zero.
    """
    mask = np.asarray(mask, dtype=np.float64)
    counts = mask.sum(axis=-1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    summed = ad.tsum(node_states * mask[..., None], axis=1)
    return summed * scale[:, None]
