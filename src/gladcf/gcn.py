"""Graph convolution with symmetric degree normalization, batch-padded.

Self-loops are added only on real nodes (via the node mask), zero degrees are
normalized as degree 1, and padded rows stay exactly zero through every
hidden layer. A stack is read out pooled: the hidden layers run per node,
then the mean pool, then the last layer's weight and bias on one row per
graph (``gcn_readout``). The adjacency may itself be a differentiable tensor
— the counterfactual generator backpropagates through the normalization.
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


def normalize_adjacency(adjacency: Tensor | Array, mask: Array, *,
                        extra_degree: float = 0.0) -> Tensor:
    """Symmetrically normalized adjacency with masked self-loops.

    Computes ``D^{-1/2} (A + I·mask) D^{-1/2}`` where the self-loop diagonal
    carries 1 only for real nodes and zero degrees are treated as 1. Accepts a
    single ``(n, n)`` matrix with mask ``(n,)`` or a stack ``(B, n, n)`` with
    mask ``(B, n)``. ``extra_degree`` is added to every row's degree: the row
    mass of columns cut off the matrix, which meet only zero features.
    """
    adjacency = adjacency if isinstance(adjacency, Tensor) else Tensor(adjacency)
    mask = np.asarray(mask, dtype=np.float64)
    with_loops = ad.add_diagonal(adjacency, mask)
    degrees = ad.tsum(with_loops, axis=-1)
    if extra_degree:
        degrees = degrees + extra_degree
    inv_sqrt = ad.power(ad.safe_nonzero(degrees), -0.5)
    if adjacency.ndim == 2:
        row = ad.reshape(inv_sqrt, (adjacency.shape[0], 1))
        col = ad.reshape(inv_sqrt, (1, adjacency.shape[0]))
    else:
        b, n = inv_sqrt.shape
        row = ad.reshape(inv_sqrt, (b, n, 1))
        col = ad.reshape(inv_sqrt, (b, 1, n))
    return with_loops * row * col


def gcn_layer(params: GCNLayerParams, features: Tensor | Array,
              normalized: Tensor, mask: Array) -> Tensor:
    """One hidden propagation step: ``relu((Â · H · W + b) ⊙ m)``.

    ``Â`` multiplies the narrower of ``H`` and ``H · W``: a widening layer
    computes ``(Â · H) · W``, any other ``Â · (H · W)``. Both orders give the
    same product, but the first detector layers then propagate their input
    columns (identity features, one degree column) instead of ``hidden1``.
    The bias, the padding mask and the ReLU are one fused tape node, so
    padded rows come out exactly zero.
    """
    if params.in_dim < params.out_dim:
        propagated = ad.matmul(ad.matmul(normalized, features), params.weight)
    else:
        propagated = ad.matmul(normalized, ad.matmul(features, params.weight))
    return ad.bias_mask_relu(propagated, params.bias,
                             np.asarray(mask)[..., None])


def gcn_readout(layers: Sequence[GCNLayerParams], features: Tensor | Array,
                normalized: Tensor, mask: Array) -> Tensor:
    """Mean-pooled output of a convolution stack, ``(B, out)``.

    Every layer but the last is a ``gcn_layer``, run per node with a ReLU
    after it. The last layer and the mean pool are both linear, so the pool
    goes first: ``mean_i (Â H W + b)_i = ((mᵀÂ / n) · H) · W + b``. The pool
    weights ``mᵀÂ / n`` are ``masked_mean_pool`` over the rows of ``Â``,
    which holds for any ``Â``, soft ones with non-zero padded cells
    included, and the last weight and bias then act on ``B`` rows instead of
    ``B · n``. Pass the output of ``normalize_adjacency`` so that several
    stacks can share one normalization. A graph with no real nodes pools to
    zero.
    """
    mask = np.asarray(mask, dtype=np.float64)
    h = features if isinstance(features, Tensor) else Tensor(features)
    for layer in layers[:-1]:
        h = gcn_layer(layer, h, normalized, mask)
    b, n = mask.shape
    weights = ad.reshape(masked_mean_pool(normalized, mask), (b, 1, n))
    pooled = ad.reshape(ad.matmul(weights, h), (b, h.shape[-1]))
    last = layers[-1]
    return ad.matmul(pooled, last.weight) + pooled_bias(last.bias, mask)


def masked_mean_pool(node_states: Tensor, mask: Array) -> Tensor:
    """Average real-node rows of a ``(B, n, F)`` tensor into ``(B, F)``.

    One batched product of each graph's row ``m / n`` with its states, so
    no masked copy of the states is made. A batch element with no real
    nodes pools to zero.
    """
    mask = np.asarray(mask, dtype=np.float64)
    counts = mask.sum(axis=-1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    pooled = ad.matmul((mask * scale[:, None])[:, None, :], node_states)
    return ad.reshape(pooled, (pooled.shape[0], pooled.shape[-1]))


def pooled_bias(bias: Tensor, mask: Array) -> Tensor:
    """The mean over real nodes of a bias added to every node row, ``(B, F)``.

    That is the bias itself for a graph with real nodes, and zero for an
    empty one, as ``masked_mean_pool`` gives it.
    """
    nonempty = (np.asarray(mask).sum(axis=-1) > 0).astype(np.float64)
    return bias * nonempty[:, None]
