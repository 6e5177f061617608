"""Graph convolution with symmetric degree normalization, batch-padded.

Self-loops are added only on real nodes (via the node mask), zero degrees are
normalized as degree 1, and padded rows stay exactly zero through the hidden
layer. The package builds one stack shape, two layers (each detector
branch), and reads it out pooled: the hidden layer and the mean pool are one
tape node, then the last layer's weight and bias act on one row per graph
(``linear_readout``). What the readout needs of the graphs alone, ``Â·X``
and the pool weights, is a set of NumPy constants computed apart from the
layers (``plan_readout``), so callers with fixed graphs compute it once. A
hidden layer on a single input column is read out in closed form, with no
per-node state. The augmenter's probe is one linear convolution,
mean-pooled: a linear map of its pooled propagated features, so it is a
``linear_readout`` too. ``normalize_adjacency`` and ``masked_mean_pool``
also take a differentiable adjacency — the counterfactual generator
backpropagates through the normalization and the pool.
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


def gcn_layer(params: GCNLayerParams, propagated: Array, mask: Array,
              pool: Array) -> Tensor:
    """The pooled hidden layer: ``pool · relu((Â·H · W + b) ⊙ m)``, ``(B, h)``.

    ``propagated`` is ``Â·H`` and ``pool`` the pool weights ``mᵀÂ/n``, both
    constants from ``plan_readout``. The layer and the pool are one tape
    node (``autodiff.pooled_bias_mask_relu``): padded rows are exactly zero
    before the pool, and the per-node activations live only as long as the
    tape entry that needs them.
    """
    return ad.pooled_bias_mask_relu(propagated, params.weight, params.bias,
                                    mask, pool)


@dataclass(frozen=True)
class ReadoutPlan:
    """The graph-only constants a two-layer stack's pooled readout reads,
    for one batch.

    Made by ``plan_readout``. A caller whose graphs do not change (a
    detector chunk) makes it once and reads it on every forward, which then
    never touches ``Â``. A plan holds either ``inputs`` and ``pool`` or, for
    one input column, only ``ramp``.
    """

    mask: Array                # (B, n)
    inputs: Array | None       # Â·X, (B, n, F)
    pool: Array | None         # the pool weights mᵀÂ/n, (B, 1, n)
    ramp: ad.RampSums | None   # the closed form of the hidden layer on s = Â·x


def plan_readout(features: Array, normalized: Tensor,
                 mask: Array) -> ReadoutPlan:
    """Compute what ``gcn_readout`` needs of the graphs.

    ``normalized`` is the output of ``normalize_adjacency``, so that several
    stacks can share one normalization; a differentiable one raises
    ``ValueError``, because a plan holds constants only. The pool weights
    ``p = mᵀÂ / n`` are ``masked_mean_pool`` over the rows of ``Â``, and
    the hidden layer reads ``Â·X``. For one input column ``x``, the hidden
    layer's pooled unit ``j`` is ``Σᵢ pᵢ·relu(sᵢ·w_j + b_j)`` with
    ``s = Â·x`` (padded nodes weigh 0), so the plan keeps only each graph's
    ``s`` sorted, with prefix sums of ``p`` and ``p·s``
    (``autodiff.ramp_sums``).
    """
    if normalized.requires_grad:
        raise ValueError("a readout plan reads a constant Â")
    mask = np.asarray(mask, dtype=np.float64)
    pool = masked_mean_pool(normalized, mask).data
    propagated = ad.matmul(normalized, features).data
    if propagated.shape[-1] == 1:
        ramp = ad.ramp_sums(propagated[..., 0], pool[:, 0] * mask)
        return ReadoutPlan(mask, inputs=None, pool=None, ramp=ramp)
    return ReadoutPlan(mask, inputs=propagated, pool=pool, ramp=None)


def gcn_readout(layers: Sequence[GCNLayerParams],
                plan: ReadoutPlan) -> Tensor:
    """Mean-pooled output of a two-layer stack, ``(B, out)``.

    The hidden layer and the pool run as one tape node (``gcn_layer`` on
    the plan's ``Â·X``). The last layer and the mean pool are both linear,
    so the pool goes first: ``mean_i (Â H W + b)_i = (p · H) · W + b``, and
    the last weight and bias act on ``B`` rows instead of ``B · n``
    (``linear_readout``). A plan with a ramp evaluates the hidden layer
    pooled, in closed form (``autodiff.ramp_relu_sum``), with the same
    active nodes and gradients as the per-node path and no ``(B, n, ·)``
    state. A graph with no real nodes pools to zero.
    """
    first, last = layers
    if plan.ramp is not None:
        pooled = ad.ramp_relu_sum(first.weight, first.bias, plan.ramp)
    else:
        pooled = gcn_layer(first, plan.inputs, plan.mask, plan.pool)
    return linear_readout(last, pooled, plan.mask)


def linear_readout(layer: GCNLayerParams, pooled: Tensor,
                   mask: Array) -> Tensor:
    """``pooled · W + b`` for pooled rows ``(B, F)``, ``(B, out)``.

    The mean over real nodes of a linear layer applied to every node row:
    the bias joins only graphs with real nodes, so an empty graph reads out
    zero, as ``masked_mean_pool`` pools it.
    """
    nonempty = (np.asarray(mask).sum(axis=-1) > 0).astype(np.float64)
    return ad.matmul(pooled, layer.weight) + layer.bias * nonempty[:, None]


def masked_mean_pool(node_states: Tensor, mask: Array) -> Tensor:
    """Average real-node rows of a ``(B, n, F)`` tensor into ``(B, 1, F)``.

    One batched product of each graph's row ``m / n`` with its states, so
    no masked copy of the states is made. A batch element with no real
    nodes pools to zero.
    """
    mask = np.asarray(mask, dtype=np.float64)
    counts = mask.sum(axis=-1)
    scale = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    return ad.matmul((mask * scale[:, None])[:, None, :], node_states)
