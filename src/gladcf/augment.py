"""Counterfactual sample generation for class rebalancing.

A trainable pair of logit matrices rewrites a seed graph: one left-multiplies
the adjacency before a sigmoid+threshold step (structure rewiring), the other
gates node features through a sigmoid+threshold mask. Training minimizes a
two-part objective: stay close to the original structure (Frobenius distance,
minus the feature-mask norm) while pushing a small frozen readout probe's
class distribution away from the original graph's (negated KL terms). Smooth
sigmoid surrogates are used during training; hard thresholds apply only when
samples are generated.

Seed graphs are processed in the detector's size-ordered chunks
(``graphs.padded_chunks``), each padded only to its own largest node count
``w`` and planned once (``plan_seeds``). The objective is still the one
defined on the dataset-wide ``n_max`` padding: the columns cut off past
``w`` enter it as two closed-form constants (see ``counterfactual_loss``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, SizeError, TrainingDivergedError
from .gcn import (GCNLayerParams, ReadoutPlan, gcn_readout, init_gcn_layer,
                  normalize_adjacency, plan_readout)
from .graphs import Graph, Provenance, make_graph, padded_chunks
from .optim import Adam

logger = logging.getLogger(__name__)

Array = np.ndarray

PROBABILITY_FLOOR = 1e-12


def _check_thresholds(sigma: float, tau: float) -> None:
    for name, value in (("sigma", sigma), ("tau", tau)):
        if not 0.0 < value <= 1.0:
            raise ConfigError(f"{name} must lie in (0, 1], got {value}")


@dataclass
class PerturbationPair:
    """Trainable rewiring logits (n_max, n_max) and feature-mask logits (n_max, h).

    The rewrite ops take graphs padded to any width ``w ≤ n_max`` and use the
    logits' leading rows and columns; ``n_max`` is ``edge_logits.shape[0]``.
    """

    edge_logits: Tensor
    mask_logits: Tensor
    sigma: float = 0.5
    tau: float = 0.5

    def __post_init__(self):
        _check_thresholds(self.sigma, self.tau)

    def trainables(self) -> list[Tensor]:
        return [self.edge_logits, self.mask_logits]


@dataclass
class AugmentConfig:
    epochs: int = 100
    lr: float = 0.01
    sigma: float = 0.5
    tau: float = 0.5
    chunk_size: int = 256

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")
        _check_thresholds(self.sigma, self.tau)


def make_probe(feature_dim: int, rng: np.random.Generator) -> GCNLayerParams:
    """Seeded frozen probe layer; its parameters never receive gradients.

    The probe is one convolution layer read out mean-pooled through a 2-way
    softmax (``_distribution``).
    """
    probe = init_gcn_layer(feature_dim, 2, rng)
    probe.weight.requires_grad = False
    probe.bias.requires_grad = False
    return probe


def init_perturbation_pair(n_max: int, feature_dim: int,
                           rng: np.random.Generator,
                           sigma: float = 0.5,
                           tau: float = 0.5) -> PerturbationPair:
    edge = rng.uniform(-0.1, 0.1, size=(n_max, n_max))
    mask = rng.uniform(-0.1, 0.1, size=(n_max, feature_dim))
    return PerturbationPair(edge_logits=Tensor(edge, requires_grad=True),
                            mask_logits=Tensor(mask, requires_grad=True),
                            sigma=sigma, tau=tau)


# -- the two rewrite operations ---------------------------------------------


def perturb_structure(pair: PerturbationPair, adjacency: Tensor | Array,
                      hard: bool):
    """Rewire adjacency: sigmoid of (edge_logits @ A), thresholded if hard.

    ``adjacency`` is a zero-padded ``(w, w)`` matrix or ``(B, w, w)`` stack
    with ``w ≤ n_max``. It stands for the same graphs padded to ``n_max``,
    whose columns past ``w`` would all hold ``sigmoid(0) = 0.5``.

    Smooth mode returns the differentiable ``sigmoid(E[:, :w] @ A)`` of shape
    ``(..., n_max, w)``: all ``n_max`` rows of the ``n_max``-wide rewrite
    (rows past a graph's ``n`` are not zero), but none of its constant
    columns past ``w``.
    Hard mode returns a binary numpy ``(..., w, w)``: ``sigmoid(E[:w, :w] @
    A)`` thresholded at sigma (inclusive), symmetrized by elementwise max
    with the transpose, diagonal zeroed. A graph's ``[:n, :n]`` block equals
    that of the ``n_max``-wide rewrite, because A's padded rows are zero.
    """
    adjacency_t = adjacency if isinstance(adjacency, Tensor) else Tensor(adjacency)
    width = adjacency_t.shape[-1]
    rows = width if hard else pair.edge_logits.shape[0]
    logits = ad.block(pair.edge_logits, rows, width)
    smooth = ad.sigmoid(ad.matmul(logits, adjacency_t))
    if not hard:
        return smooth
    binary = (smooth.data >= pair.sigma).astype(np.float64)
    binary = np.maximum(binary, np.swapaxes(binary, -1, -2))
    binary[..., np.arange(width), np.arange(width)] = 0.0
    return binary


def mask_features(pair: PerturbationPair, features: Tensor | Array,
                  hard: bool):
    """Gate node features through the sigmoid mask, thresholded at tau if hard.

    Every surviving entry of a hard-masked matrix equals the original entry;
    the rest are zero. Accepts ``(w, h)`` or ``(B, w, h)`` with ``w ≤ n_max``
    and gates with the mask's first ``w`` rows, broadcast across the stack;
    the rows past ``w`` would only meet zero padding.
    """
    features_t = features if isinstance(features, Tensor) else Tensor(features)
    gate = ad.sigmoid(ad.block(pair.mask_logits, *features_t.shape[-2:]))
    if not hard:
        return features_t * gate
    keep = (gate.data >= pair.tau).astype(np.float64)
    return keep * features_t.data


# -- probe readout and the training loss -------------------------------------


@dataclass(frozen=True)
class SeedChunk:
    """The probe's one-layer ``plan_readout`` of a seed chunk's original
    graphs and its class distribution on them, ``(B, 2)``, made once.
    """

    adjacency_stack: Array  # (B, w, w)
    readout: ReadoutPlan
    original: Array


def plan_seeds(probe: GCNLayerParams, adjacency_stack: Array,
               feature_stack: Array, node_mask: Array) -> SeedChunk:
    """Plan one padded chunk of seed graphs for ``counterfactual_loss``."""
    readout = plan_readout(1, feature_stack, normalize_adjacency(
        adjacency_stack, node_mask), node_mask)
    return SeedChunk(adjacency_stack=adjacency_stack, readout=readout,
                     original=_distribution(probe, readout).data)


def _distribution(probe: GCNLayerParams, plan: ReadoutPlan) -> Tensor:
    """Two-way class distribution per graph: conv layer, mean pool, softmax."""
    return ad.softmax_last(gcn_readout([probe], plan))


def _kl_rows(p: Array, q: Tensor) -> Tensor:
    """KL(p ‖ q) per row for a constant p against a differentiable q."""
    p = np.maximum(p, PROBABILITY_FLOOR)
    q_safe = ad.clamp(q, PROBABILITY_FLOOR, 1.0)
    plogp = (p * np.log(p)).sum(axis=-1)
    cross = ad.tsum(p * ad.log(q_safe), axis=-1)
    return plogp - cross


def counterfactual_loss(pair: PerturbationPair, probe: GCNLayerParams,
                        chunk: SeedChunk) -> tuple[Tensor, dict]:
    """Training objective over a chunk of seed graphs (mean per graph).

    Per seed graph: Frobenius distance between original and smooth-rewired
    adjacency, minus the Frobenius norm of the smooth feature mask, minus the
    two KL divergence terms between the probe's distribution on the original
    graph and on each perturbed view. ``chunk`` is the seeds' ``plan_seeds``;
    the feature view reads its planned pool, so only the smooth-rewired
    adjacency is normalized here.

    The stacks may be padded to any width ``w ≤ n_max``; the value is that of
    the same graphs padded to ``n_max``. Each of the ``n_max − w`` columns
    cut off holds ``sigmoid(0) = 0.5`` in all ``n_max`` rows of the smooth
    adjacency and meets only zeros, so it enters as two constants: ``0.25``
    per cell added to the squared distance, and ``0.5`` per column added to
    every row's degree in the structure probe. They are the objective's whole
    dependence on ``n_max``, and both are 0 at ``w = n_max``.
    """
    adjacency_stack, original = chunk.adjacency_stack, chunk.original
    n_max = pair.edge_logits.shape[0]
    width = adjacency_stack.shape[-1]
    cut_distance = 0.25 * n_max * (n_max - width)
    cut_degree = 0.5 * (n_max - width)

    smooth_adj = perturb_structure(pair, adjacency_stack, hard=False)
    smooth_feats = mask_features(pair, chunk.readout.inputs, hard=False)
    target = np.zeros(smooth_adj.shape)
    target[..., :width, :] = adjacency_stack
    diff = Tensor(target) - smooth_adj
    structure_dist = ad.sqrt(
        ad.tsum(diff * diff, axis=(-2, -1)) + cut_distance)
    gate = ad.sigmoid(pair.mask_logits)
    gate_norm = ad.sqrt(ad.tsum(gate * gate))
    closeness = structure_dist - gate_norm

    clamped = bool((original < PROBABILITY_FLOOR).any())
    p_structure = _distribution(probe, plan_readout(
        1, chunk.readout.inputs, normalize_adjacency(
            ad.block(smooth_adj, width, width), chunk.readout.mask,
            extra_degree=cut_degree), chunk.readout.mask))
    p_features = _distribution(probe, chunk.readout.with_inputs(smooth_feats))
    clamped = clamped or bool((p_structure.data < PROBABILITY_FLOOR).any())
    clamped = clamped or bool((p_features.data < PROBABILITY_FLOOR).any())
    divergence = _kl_rows(original, p_structure) + \
        _kl_rows(original, p_features)

    loss = ad.mean(closeness - divergence)
    components = {
        "closeness": float(ad.mean(closeness).data),
        "divergence": float(ad.mean(divergence).data),
        "clamped": clamped,
    }
    return loss, components


# -- seed selection, training, generation ------------------------------------


def select_seeds(graphs, rng: np.random.Generator,
                 count: int | None = None) -> tuple[Array, int]:
    """Pick rebalancing seed graphs from the majority class.

    Returns (indices into ``graphs``, minority label). The default count is
    the class-count gap; selection is uniform without replacement, switching
    to with-replacement (with a warning) only if more samples are requested
    than the majority class holds.
    """
    labels = np.array([g.label for g in graphs])
    n_zero = int((labels == 0).sum())
    n_one = int((labels == 1).sum())
    majority = 0 if n_zero >= n_one else 1
    minority = 1 - majority
    gap = abs(n_zero - n_one)
    if count is None:
        count = gap
    pool = np.flatnonzero(labels == majority)
    if count > len(pool):
        logger.warning(
            "requested %d seeds from a majority class of %d; "
            "sampling with replacement", count, len(pool))
        chosen = rng.choice(pool, size=count, replace=True)
    else:
        chosen = rng.choice(pool, size=count, replace=False)
    return np.sort(chosen), minority


def _check_width(seeds, n_max: int) -> None:
    width = max((g.num_nodes for g in seeds), default=0)
    if width > n_max:
        raise SizeError(
            f"seed graph has {width} nodes, exceeding n_max={n_max}")


def train_perturbations(seed_graphs, n_max: int, config: AugmentConfig,
                        rng: np.random.Generator,
                        ) -> tuple[PerturbationPair, list[float]]:
    """Fit the perturbation pair on seed graphs; returns it and the loss trace.

    One adaptive-moment step per epoch over the full seed set; chunked
    gradient accumulation keeps memory flat without changing the math
    (chunk losses are reweighted so their sum is the global mean). Chunks
    are size-ordered and padded to their own width, not to ``n_max``, and
    planned once (``plan_seeds``) against a fresh frozen probe.
    """
    seed_graphs = list(seed_graphs)
    if not seed_graphs:
        raise ConfigError("cannot train perturbations with no seed graphs")
    feature_dim = seed_graphs[0].feature_dim
    if feature_dim == 0:
        raise ConfigError("build node features before augmentation")
    _check_width(seed_graphs, n_max)
    probe = make_probe(feature_dim, rng)
    pair = init_perturbation_pair(n_max, feature_dim, rng,
                                  sigma=config.sigma, tau=config.tau)
    optimizer = Adam(pair.trainables(), lr=config.lr)

    total = len(seed_graphs)
    chunks = [plan_seeds(probe, batch.adjacency_stack, batch.feature_stack,
                         batch.node_mask)
              for _, batch in padded_chunks(seed_graphs, config.chunk_size)]

    trace: list[float] = []
    ever_clamped = False
    for epoch in range(config.epochs):
        optimizer.zero_grad()
        epoch_loss = 0.0
        components = {}
        for chunk in chunks:
            loss, components = counterfactual_loss(pair, probe, chunk)
            scaled = loss * (len(chunk.original) / total)
            scaled.backward()
            epoch_loss += float(scaled.data)
            ever_clamped = ever_clamped or components["clamped"]
            # free this chunk's tape before the next chunk's forward
            del loss, scaled
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"counterfactual loss diverged at epoch {epoch}: "
                f"{epoch_loss} (components: {components})")
        optimizer.step()
        if not (np.isfinite(pair.edge_logits.data).all()
                and np.isfinite(pair.mask_logits.data).all()):
            raise TrainingDivergedError(
                f"perturbation logits became non-finite at epoch {epoch}")
        logger.debug("augmenter epoch %d: loss %.6g", epoch, epoch_loss)
        trace.append(epoch_loss)
    if ever_clamped:
        logger.warning("probe probabilities hit the %g floor during "
                       "augmentation training", PROBABILITY_FLOOR)
    return pair, trace


def generate_samples(pair: PerturbationPair, graphs, indices: Array,
                     minority_label: int, n_max: int,
                     chunk_size: int) -> list[Graph]:
    """Apply the hard rewrite to each selected seed, in ``indices`` order.

    Seeds go through the thresholded operations in size-ordered chunks of
    ``chunk_size``, each padded to its own largest n; the top-left n×n
    block is kept so a generated graph has its seed's node count, and
    degrees are recomputed from the new structure.
    """
    seeds = [graphs[i] for i in indices]
    _check_width(seeds, n_max)
    generated: list[Graph | None] = [None] * len(seeds)
    for idx, batch in padded_chunks(seeds, chunk_size):
        hard_adj = perturb_structure(pair, batch.adjacency_stack, hard=True)
        hard_feats = mask_features(pair, batch.feature_stack, hard=True)
        for row, i in enumerate(idx):
            n = seeds[i].num_nodes
            generated[i] = make_graph(hard_adj[row, :n, :n].copy(),
                                      hard_feats[row, :n].copy(),
                                      minority_label, Provenance.GENERATED)
    return generated


@dataclass
class AugmentationResult:
    generated: list[Graph]
    seed_indices: Array
    minority_label: int
    loss_trace: list[float] = field(default_factory=list)


def augment_training_set(train_graphs, n_max: int, config: AugmentConfig,
                         rng: np.random.Generator,
                         count: int | None = None) -> AugmentationResult:
    """End-to-end rebalancing for one training split.

    Selects majority-class seeds, fits a perturbation pair on them, and
    returns hard-thresholded counterfactual graphs labeled as the minority
    class. A balanced split (or an explicit count of zero) yields no samples.
    """
    indices, minority = select_seeds(train_graphs, rng, count=count)
    if len(indices) == 0:
        return AugmentationResult(generated=[], seed_indices=indices,
                                  minority_label=minority)
    seeds = [train_graphs[i] for i in indices]
    pair, trace = train_perturbations(seeds, n_max, config, rng)
    generated = generate_samples(pair, train_graphs, indices, minority, n_max,
                                 config.chunk_size)
    return AugmentationResult(generated=generated, seed_indices=indices,
                              minority_label=minority, loss_trace=trace)
