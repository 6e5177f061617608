"""Counterfactual sample generation for class rebalancing.

A trainable pair of logit matrices rewrites a seed graph: one left-multiplies
the adjacency before a sigmoid+threshold step (structure rewiring), the other
gates node features through a sigmoid+threshold mask. Training minimizes a
two-part objective: stay close to the original structure (Frobenius distance,
minus the feature-mask norm) while pushing a small frozen probe's class
distribution away from the original graph's (negated KL terms), through
``optim.fit``. The probe is one linear convolution, mean-pooled, so it reads
a graph as a linear map of its pooled propagated features ``p·X``, with
``p = mᵀÂ/n`` (``gcn.linear_readout``). Smooth sigmoid surrogates are used
during training; the hard thresholds ``sigma`` and ``tau`` live in
``AugmentConfig`` and apply only when samples are generated.

Seed graphs are processed in the detector's size-ordered chunks
(``graphs.padded_chunks``), each padded only to its own largest node count
``w`` and planned once (``plan_seeds``): the plan keeps the pool weights of
the original adjacency. The objective is still the one defined on the
dataset-wide ``n_max`` padding: the columns cut off past ``w`` enter it as
two closed-form constants, and the rewrite's rows cut off past ``w`` as one
square-sum node over the logits' rows past ``w`` (see
``counterfactual_loss``), so the rewrite itself is only ``(B, w, w)``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, SizeError
from .gcn import (GCNLayerParams, init_gcn_layer, linear_readout,
                  masked_mean_pool, normalize_adjacency)
from .graphs import (CHUNK_SIZE, Graph, Provenance, make_graph,
                     padded_chunks)
from .optim import fit

logger = logging.getLogger(__name__)

Array = np.ndarray

PROBABILITY_FLOOR = 1e-12


@dataclass
class PerturbationPair:
    """Trainable rewiring logits (n_max, n_max) and feature-mask logits (n_max, h).

    The rewrite ops take graphs padded to any width ``w ≤ n_max`` and use the
    logits' leading rows and columns; ``n_max`` is ``edge_logits.shape[0]``.
    Generation hardens the rewrite at ``AugmentConfig``'s thresholds.
    """

    edge_logits: Tensor
    mask_logits: Tensor

    def trainables(self) -> list[Tensor]:
        return [self.edge_logits, self.mask_logits]


@dataclass
class AugmentConfig:
    epochs: int = 100
    lr: float = 0.01
    sigma: float = 0.5
    tau: float = 0.5
    chunk_size: int = CHUNK_SIZE

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")
        for name, value in (("sigma", self.sigma), ("tau", self.tau)):
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"{name} must lie in (0, 1], got {value}")


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
                           rng: np.random.Generator) -> PerturbationPair:
    edge = rng.uniform(-0.1, 0.1, size=(n_max, n_max))
    mask = rng.uniform(-0.1, 0.1, size=(n_max, feature_dim))
    return PerturbationPair(edge_logits=Tensor(edge, requires_grad=True),
                            mask_logits=Tensor(mask, requires_grad=True))


# -- the two rewrite operations ---------------------------------------------


def perturb_structure(pair: PerturbationPair, adjacency: Tensor | Array,
                      sigma: float | None = None):
    """Rewire adjacency: ``sigmoid(E[:w, :w] @ A)`` of shape ``(..., w, w)``,
    thresholded at ``sigma`` when one is given.

    ``adjacency`` is a zero-padded ``(w, w)`` matrix or ``(B, w, w)`` stack
    with ``w ≤ n_max``. It stands for the same graphs padded to ``n_max``,
    whose rewrite is ``sigmoid(E @ A)`` over all ``n_max`` rows and
    columns. Its rows past ``w`` are left out here (``counterfactual_loss``
    takes their square sums from ``E[w:, :w]`` directly), and so are its
    columns past ``w``, which all hold ``sigmoid(0) = 0.5``. Because A's
    padded rows are zero, a graph's ``[:n, :n]`` block equals that of the
    ``n_max``-wide rewrite.

    Without ``sigma``, returns the differentiable smooth rewrite. With
    ``sigma``, returns a binary numpy array: the rewrite thresholded at sigma
    (inclusive), symmetrized by elementwise max with the transpose, diagonal
    zeroed.
    """
    adjacency_t = adjacency if isinstance(adjacency, Tensor) else Tensor(adjacency)
    width = adjacency_t.shape[-1]
    logits = ad.block(pair.edge_logits, width, width)
    smooth = ad.sigmoid(ad.matmul(logits, adjacency_t))
    if sigma is None:
        return smooth
    binary = (smooth.data >= sigma).astype(np.float64)
    binary = np.maximum(binary, np.swapaxes(binary, -1, -2))
    binary[..., np.arange(width), np.arange(width)] = 0.0
    return binary


def mask_features(pair: PerturbationPair, features: Tensor | Array,
                  tau: float | None = None):
    """Gate node features through the sigmoid mask: the differentiable
    product without ``tau``, the numpy mask thresholded at ``tau`` with it.

    Every surviving entry of a hard-masked matrix equals the original entry;
    the rest are zero. Accepts ``(w, h)`` or ``(B, w, h)`` with ``w ≤ n_max``
    and gates with the mask's first ``w`` rows, broadcast across the stack;
    the rows past ``w`` would only meet zero padding.
    """
    features_t = features if isinstance(features, Tensor) else Tensor(features)
    gate = ad.sigmoid(ad.block(pair.mask_logits, *features_t.shape[-2:]))
    if tau is None:
        return features_t * gate
    keep = (gate.data >= tau).astype(np.float64)
    return keep * features_t.data


# -- probe readout and the training loss -------------------------------------


@dataclass(frozen=True)
class SeedChunk:
    """A padded chunk of seed graphs, the pool weights ``mᵀÂ/n`` of their
    original adjacency and the probe's class distribution on them,
    ``(B, 2)``, made once.
    """

    adjacency_stack: Array  # (B, w, w)
    feature_stack: Array    # (B, w, h)
    node_mask: Array        # (B, w)
    pool: Array             # (B, 1, w)
    original: Array


def plan_seeds(probe: GCNLayerParams, adjacency_stack: Array,
               feature_stack: Array, node_mask: Array) -> SeedChunk:
    """Plan one padded chunk of seed graphs for ``counterfactual_loss``."""
    pool = masked_mean_pool(normalize_adjacency(adjacency_stack, node_mask),
                            node_mask).data
    return SeedChunk(adjacency_stack=adjacency_stack,
                     feature_stack=feature_stack, node_mask=node_mask,
                     pool=pool, original=_distribution(
                         probe, pool, feature_stack).data)


def _distribution(probe: GCNLayerParams, pool: Tensor | Array,
                  features: Tensor | Array) -> Tensor:
    """Two-way class distribution per graph: the softmax of the probe's
    ``linear_readout`` of ``p·X``, with ``pool`` the weights ``p = mᵀÂ/n``."""
    pooled = ad.reshape(ad.matmul(pool, features),
                        (pool.shape[0], features.shape[-1]))
    return ad.softmax_last(linear_readout(probe, pooled))


def _kl_rows(p: Array, q: Tensor) -> Tensor:
    """KL(p ‖ q) per row for a constant p against a differentiable q."""
    p = np.maximum(p, PROBABILITY_FLOOR)
    q_safe = ad.clamp(q, PROBABILITY_FLOOR, 1.0)
    plogp = (p * np.log(p)).sum(axis=-1)
    cross = ad.tsum(p * ad.log(q_safe), axis=-1)
    return plogp - cross


def counterfactual_loss(pair: PerturbationPair, probe: GCNLayerParams,
                        chunk: SeedChunk) -> tuple[Tensor, bool]:
    """Training objective over a chunk of seed graphs (mean per graph), and
    whether a probe probability hit ``PROBABILITY_FLOOR``.

    Per seed graph: Frobenius distance between original and smooth-rewired
    adjacency, minus the Frobenius norm of the smooth feature mask, minus the
    two KL divergence terms between the probe's distribution on the original
    graph and on each perturbed view. ``chunk`` is the seeds' ``plan_seeds``;
    the feature view reads its planned pool weights, so only the
    smooth-rewired adjacency is normalized and pooled here.

    The stacks may be padded to any width ``w ≤ n_max``; the value is that of
    the same graphs padded to ``n_max``. Each of the ``n_max − w`` columns
    cut off holds ``sigmoid(0) = 0.5`` in all ``n_max`` rows of the smooth
    adjacency and meets only zeros, so it enters as two constants: ``0.25``
    per cell added to the squared distance, and ``0.5`` per column added to
    every row's degree in the structure probe. Each of the ``n_max − w`` rows
    cut off meets only the padded adjacency's zero rows, so it enters the
    squared distance alone: one ``ad.sigmoid_square_sums`` node over
    ``E[w:, :w]`` gives ``‖S[w:, :w]‖²`` per graph, and no
    ``(B, n_max, w)`` array is built. These three terms are the objective's
    whole dependence on ``n_max``, and all are 0 at ``w = n_max``.
    """
    adjacency_stack, original = chunk.adjacency_stack, chunk.original
    n_max = pair.edge_logits.shape[0]
    width = adjacency_stack.shape[-1]
    cut_distance = 0.25 * n_max * (n_max - width)
    cut_degree = 0.5 * (n_max - width)

    smooth_adj = perturb_structure(pair, adjacency_stack)
    smooth_feats = mask_features(pair, chunk.feature_stack)
    # ‖A − S[:w]‖² + ‖S[w:]‖²: past row w the padded adjacency is all zero
    below = ad.block(pair.edge_logits, n_max - width, width, first_row=width)
    diff = Tensor(adjacency_stack) - smooth_adj
    structure_dist = ad.sqrt(
        ad.tsum(diff * diff, axis=(-2, -1))
        + ad.sigmoid_square_sums(below, adjacency_stack) + cut_distance)
    gate = ad.sigmoid(pair.mask_logits)
    gate_norm = ad.sqrt(ad.tsum(gate * gate))
    closeness = structure_dist - gate_norm

    clamped = bool((original < PROBABILITY_FLOOR).any())
    mask = chunk.node_mask
    structure_pool = masked_mean_pool(normalize_adjacency(
        smooth_adj, mask, extra_degree=cut_degree), mask)
    p_structure = _distribution(probe, structure_pool, chunk.feature_stack)
    p_features = _distribution(probe, chunk.pool, smooth_feats)
    clamped = clamped or bool((p_structure.data < PROBABILITY_FLOOR).any())
    clamped = clamped or bool((p_features.data < PROBABILITY_FLOOR).any())
    divergence = _kl_rows(original, p_structure) + \
        _kl_rows(original, p_features)

    return ad.mean(closeness - divergence), clamped


# -- seed selection, training, generation ------------------------------------


def select_seeds(graphs, rng: np.random.Generator,
                 count: int | None = None) -> tuple[Array, int]:
    """Pick rebalancing seed graphs from the majority class.

    Returns (indices into ``graphs``, minority label). The default count is
    the class-count gap; selection is uniform without replacement, switching
    to with-replacement (with a warning) only if more samples are requested
    than the majority class holds. A negative count is a ``ConfigError``.
    """
    labels = np.array([g.label for g in graphs])
    n_zero = int((labels == 0).sum())
    n_one = int((labels == 1).sum())
    majority = 0 if n_zero >= n_one else 1
    minority = 1 - majority
    gap = abs(n_zero - n_one)
    if count is None:
        count = gap
    elif count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
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

    Trains through ``optim.fit``; each chunk's loss is reweighted so the
    chunk losses sum to the mean over all seeds. Chunks are size-ordered and
    padded to their own width, not to ``n_max``, and planned once
    (``plan_seeds``) against a fresh frozen probe.
    """
    seed_graphs = list(seed_graphs)
    if not seed_graphs:
        raise ConfigError("cannot train perturbations with no seed graphs")
    feature_dim = seed_graphs[0].feature_dim
    if feature_dim == 0:
        raise ConfigError("build node features before augmentation")
    _check_width(seed_graphs, n_max)
    probe = make_probe(feature_dim, rng)
    pair = init_perturbation_pair(n_max, feature_dim, rng)

    total = len(seed_graphs)
    chunks = [plan_seeds(probe, batch.adjacency_stack, batch.feature_stack,
                         batch.node_mask)
              for _, batch in padded_chunks(seed_graphs, config.chunk_size)]
    clamped = False

    def chunk_loss(chunk: SeedChunk) -> Tensor:
        nonlocal clamped
        loss, hit_floor = counterfactual_loss(pair, probe, chunk)
        clamped = clamped or hit_floor
        return loss * (len(chunk.original) / total)

    trace = fit(pair.trainables(), config.lr, config.epochs, chunks,
                chunk_loss, "augmenter")
    if clamped:
        logger.warning("probe probabilities hit the %g floor during "
                       "augmentation training", PROBABILITY_FLOOR)
    return pair, trace


def generate_samples(pair: PerturbationPair, graphs, indices: Array,
                     minority_label: int, config: AugmentConfig) -> list[Graph]:
    """Apply the hard rewrite to each selected seed, in ``indices`` order.

    Seeds go through the operations thresholded at ``config.sigma`` and
    ``config.tau`` in ``graphs.padded_chunks`` of at most
    ``config.chunk_size``, each padded to its own largest n, and no seed may
    be wider than the pair's ``n_max``. The top-left n×n block is kept so a
    generated graph has its seed's node count, and its degrees come from the
    new structure.
    """
    seeds = [graphs[i] for i in indices]
    _check_width(seeds, pair.edge_logits.shape[0])
    generated: list[Graph | None] = [None] * len(seeds)
    for idx, batch in padded_chunks(seeds, config.chunk_size):
        hard_adj = perturb_structure(pair, batch.adjacency_stack,
                                     sigma=config.sigma)
        hard_feats = mask_features(pair, batch.feature_stack, tau=config.tau)
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
    generated = generate_samples(pair, train_graphs, indices, minority, config)
    return AugmentationResult(generated=generated, seed_indices=indices,
                              minority_label=minority, loss_trace=trace)
