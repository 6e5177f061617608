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
takes a mask. ``normalize_adjacency`` and ``masked_mean_pool`` are the
detector's plan, which needs ``Â`` itself: the graphs are fixed, so both
take and return plain arrays, and no ``Â`` anywhere is differentiable.
The counterfactual generator calls neither: it takes the pool weights of
its seeds and of its differentiable rewrite, under the same normalization,
from ``autodiff.normalized_pool``, the one differentiable pool (a
closed-form tape node).
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


def normalize_adjacency(adjacency: Array, mask: Array) -> Array:
    """Symmetrically normalized adjacency with masked self-loops.

    Computes ``D^{-1/2} (A + I·mask) D^{-1/2}`` where the self-loop diagonal
    carries 1 only for real nodes and a non-positive degree is read as 1.
    Accepts a single ``(n, n)`` matrix with mask ``(n,)`` or a stack
    ``(B, n, n)`` with mask ``(B, n)``; ``adjacency`` is not written.
    """
    with_loops = np.array(adjacency, dtype=np.float64)
    idx = np.arange(with_loops.shape[-1])
    with_loops[..., idx, idx] += mask
    degrees = with_loops.sum(axis=-1)
    degrees[~(degrees > 0)] = 1.0
    r = degrees ** -0.5
    return with_loops * r[..., :, None] * r[..., None, :]


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


def masked_mean_pool(node_states: Array, mask: Array) -> Array:
    """Average real-node rows of a ``(B, n, F)`` array into ``(B, 1, F)``.

    One batched product of each graph's row ``m / n`` with its states, so
    no masked copy of the states is made. Every graph has a real node.
    """
    scale = 1.0 / mask.sum(axis=-1)
    return (mask * scale[:, None])[:, None, :] @ node_states
