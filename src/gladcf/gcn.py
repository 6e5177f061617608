"""Graph convolution with symmetric degree normalization, batch-padded.

The primitives both models share. Self-loops are added only on real nodes
(via the node mask) and zero degrees are normalized as degree 1, so the
normalized ``Â`` of a zero-padded stack is zero in every padded row and
column. A stack's last layer is linear, so it is read out pooled: the
hidden layer and the mean pool are one tape node (``gcn_layer``), and the
last weight and bias act on one row per graph (``linear_readout``). The
augmenter's probe is one linear convolution, mean-pooled: a linear map of
its pooled propagated features, so it is a ``linear_readout`` too. Every
``graphs.Graph`` has a node, so no pool divides by zero and no readout
takes a mask. ``normalize_adjacency`` and ``masked_mean_pool`` also take
a differentiable adjacency — the counterfactual generator backpropagates
through the normalization and the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    # (..., n) as a column and as a row, for one matrix or a stack alike
    shape = inv_sqrt.shape
    row = ad.reshape(inv_sqrt, shape + (1,))
    col = ad.reshape(inv_sqrt, shape[:-1] + (1, shape[-1]))
    return with_loops * row * col


def gcn_layer(params: GCNLayerParams, propagated: Array,
              pool: Array) -> Tensor:
    """The pooled hidden layer: ``pool · relu(Â·H · W + b)``, ``(B, h)``.

    ``propagated`` is ``Â·H`` and ``pool`` the pool weights ``mᵀÂ/n``, both
    constants. Both are exactly zero at padded nodes when ``Â`` comes from
    ``normalize_adjacency`` of a zero-padded stack, so a padded node's row,
    ``relu(b)``, weighs 0 and needs no mask. The layer and the pool are one
    tape node (``autodiff.pooled_bias_relu``) that runs in blocks of whole
    graphs: a block's float activations live only while that block is
    computed, and the tape entry keeps one byte per unit, the ReLU mask.
    """
    return ad.pooled_bias_relu(propagated, params.weight, params.bias, pool)


def linear_readout(layer: GCNLayerParams, pooled: Tensor) -> Tensor:
    """``pooled · W + b`` for pooled rows ``(B, F)``, ``(B, out)``: the mean
    over a graph's nodes of a linear layer applied to every node row.
    """
    return ad.matmul(pooled, layer.weight) + layer.bias


def masked_mean_pool(node_states: Tensor, mask: Array) -> Tensor:
    """Average real-node rows of a ``(B, n, F)`` tensor into ``(B, 1, F)``.

    One batched product of each graph's row ``m / n`` with its states, so
    no masked copy of the states is made. Every graph has a real node.
    """
    mask = np.asarray(mask, dtype=np.float64)
    scale = 1.0 / mask.sum(axis=-1)
    return ad.matmul((mask * scale[:, None])[:, None, :], node_states)
