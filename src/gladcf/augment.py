"""Counterfactual sample generation for class rebalancing.

A trainable pair of logit matrices rewrites a seed graph: one left-multiplies
the adjacency before a sigmoid+threshold step (structure rewiring), the other
gates node features through a sigmoid+threshold mask. Training minimizes a
two-part objective: stay close to the original structure (Frobenius distance,
minus the feature-mask norm) while pushing a small frozen readout probe's
class distribution away from the original graph's (negated KL terms). Smooth
sigmoid surrogates are used during training; hard thresholds apply only when
samples are generated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingDivergedError
from .gcn import (GCNLayerParams, gcn_forward, init_gcn_layer,
                  masked_mean_pool, normalize_adjacency)
from .graphs import Graph, Provenance, make_graph, pad_batch
from .optim import Adam

logger = logging.getLogger(__name__)

Array = np.ndarray

PROBABILITY_FLOOR = 1e-12


@dataclass
class PerturbationPair:
    """Trainable rewiring logits (n_max, n_max) and feature-mask logits (n_max, h)."""

    edge_logits: Tensor
    mask_logits: Tensor
    sigma: float = 0.5
    tau: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.sigma <= 1.0:
            raise ConfigError(f"sigma must lie in (0, 1], got {self.sigma}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")

    def trainables(self) -> list[Tensor]:
        return [self.edge_logits, self.mask_logits]


@dataclass
class ReadoutProbe:
    """A frozen one-layer convolution + mean pool + 2-way softmax readout."""

    layer: GCNLayerParams


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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")


def make_probe(feature_dim: int, rng: np.random.Generator) -> ReadoutProbe:
    """Seeded frozen probe; parameters never receive gradients."""
    layer = init_gcn_layer(feature_dim, 2, rng)
    layer.weight.requires_grad = False
    layer.bias.requires_grad = False
    return ReadoutProbe(layer=layer)


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

    Smooth mode returns a differentiable tensor of edge probabilities. Hard
    mode returns a binary numpy array: threshold at sigma (inclusive), then
    symmetrize by elementwise max with the transpose and zero the diagonal.
    Accepts a single (n, n) matrix or a stack (B, n, n).
    """
    adjacency_t = adjacency if isinstance(adjacency, Tensor) else Tensor(adjacency)
    smooth = ad.sigmoid(ad.matmul(pair.edge_logits, adjacency_t))
    if not hard:
        return smooth
    binary = (smooth.data >= pair.sigma).astype(np.float64)
    binary = np.maximum(binary, np.swapaxes(binary, -1, -2))
    n = binary.shape[-1]
    binary[..., np.arange(n), np.arange(n)] = 0.0
    return binary


def mask_features(pair: PerturbationPair, features: Tensor | Array,
                  hard: bool):
    """Gate node features through the sigmoid mask, thresholded at tau if hard.

    Every surviving entry of a hard-masked matrix equals the original entry;
    the rest are zero. Accepts (n, h) or (B, n, h); in the batched case the
    mask broadcasts across the stack, so ``n`` must equal the pair's n_max.
    """
    features_t = features if isinstance(features, Tensor) else Tensor(features)
    gate = ad.sigmoid(pair.mask_logits)
    if not hard:
        return features_t * gate
    keep = (gate.data >= pair.tau).astype(np.float64)
    return keep * (features_t.data if isinstance(features, Tensor) else
                   np.asarray(features, dtype=np.float64))


# -- probe readout and the training loss -------------------------------------


def probe_distribution(probe: ReadoutProbe, features: Tensor | Array,
                       adjacency: Tensor | Array, mask: Array) -> Tensor:
    """Two-way class distribution per graph: conv layer, mean pool, softmax."""
    normalized = normalize_adjacency(adjacency, mask)
    states = gcn_forward([probe.layer], features, normalized, mask)
    pooled = masked_mean_pool(states, mask)
    return ad.softmax_last(pooled)


def _kl_rows(p: Array, q: Tensor) -> Tensor:
    """KL(p ‖ q) per row for a constant p against a differentiable q."""
    p = np.maximum(p, PROBABILITY_FLOOR)
    q_safe = ad.clamp(q, PROBABILITY_FLOOR, 1.0)
    plogp = (p * np.log(p)).sum(axis=-1)
    cross = ad.tsum(p * ad.log(q_safe), axis=-1)
    return plogp - cross


def counterfactual_loss(pair: PerturbationPair, probe: ReadoutProbe,
                        adjacency_stack: Array, feature_stack: Array,
                        node_mask: Array,
                        original_distribution: Array | None = None,
                        ) -> tuple[Tensor, dict]:
    """Training objective over a stack of seed graphs (mean per graph).

    Per seed graph: Frobenius distance between original and smooth-rewired
    adjacency, minus the Frobenius norm of the smooth feature mask, minus the
    two KL divergence terms between the probe's distribution on the original
    graph and on each perturbed view.
    """
    smooth_adj = perturb_structure(pair, adjacency_stack, hard=False)
    smooth_feats = mask_features(pair, Tensor(feature_stack), hard=False)
    diff = Tensor(adjacency_stack) - smooth_adj
    structure_dist = ad.sqrt(ad.tsum(diff * diff, axis=(-2, -1)))
    gate = ad.sigmoid(pair.mask_logits)
    gate_norm = ad.sqrt(ad.tsum(gate * gate))
    closeness = structure_dist - gate_norm

    if original_distribution is None:
        original_distribution = probe_distribution(
            probe, feature_stack, adjacency_stack, node_mask).data
    clamped = bool((original_distribution < PROBABILITY_FLOOR).any())
    p_structure = probe_distribution(probe, feature_stack, smooth_adj, node_mask)
    p_features = probe_distribution(probe, smooth_feats, adjacency_stack, node_mask)
    clamped = clamped or bool((p_structure.data < PROBABILITY_FLOOR).any())
    clamped = clamped or bool((p_features.data < PROBABILITY_FLOOR).any())
    divergence = _kl_rows(original_distribution, p_structure) + \
        _kl_rows(original_distribution, p_features)

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


def train_perturbations(seed_graphs, n_max: int, config: AugmentConfig,
                        rng: np.random.Generator,
                        probe: ReadoutProbe | None = None,
                        ) -> tuple[PerturbationPair, ReadoutProbe, list[float]]:
    """Fit the perturbation pair on seed graphs; returns the loss trace.

    One adaptive-moment step per epoch over the full seed set; chunked
    gradient accumulation keeps memory flat without changing the math
    (chunk losses are reweighted so their sum is the global mean).
    """
    seed_graphs = list(seed_graphs)
    if not seed_graphs:
        raise ConfigError("cannot train perturbations with no seed graphs")
    feature_dim = seed_graphs[0].feature_dim
    if feature_dim == 0:
        raise ConfigError("build node features before augmentation")
    if probe is None:
        probe = make_probe(feature_dim, rng)
    pair = init_perturbation_pair(n_max, feature_dim, rng,
                                  sigma=config.sigma, tau=config.tau)
    optimizer = Adam(pair.trainables(), lr=config.lr)

    total = len(seed_graphs)
    chunks = []
    for start in range(0, total, config.chunk_size):
        batch = pad_batch(seed_graphs[start:start + config.chunk_size], n_max)
        original = probe_distribution(
            probe, batch.feature_stack, batch.adjacency_stack,
            batch.node_mask).data
        chunks.append((batch, original))

    trace: list[float] = []
    ever_clamped = False
    for epoch in range(config.epochs):
        optimizer.zero_grad()
        epoch_loss = 0.0
        components = {}
        for batch, original in chunks:
            loss, components = counterfactual_loss(
                pair, probe, batch.adjacency_stack, batch.feature_stack,
                batch.node_mask, original_distribution=original)
            scaled = loss * (batch.size / total)
            scaled.backward()
            epoch_loss += float(scaled.data)
            ever_clamped = ever_clamped or components["clamped"]
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"counterfactual loss diverged at epoch {epoch}: "
                f"{epoch_loss} (components: {components})")
        optimizer.step()
        if not (np.isfinite(pair.edge_logits.data).all()
                and np.isfinite(pair.mask_logits.data).all()):
            raise TrainingDivergedError(
                f"perturbation logits became non-finite at epoch {epoch}")
        trace.append(epoch_loss)
    if ever_clamped:
        logger.warning("probe probabilities hit the %g floor during "
                       "augmentation training", PROBABILITY_FLOOR)
    return pair, probe, trace


def generate_samples(pair: PerturbationPair, graphs, indices: Array,
                     minority_label: int, n_max: int) -> list[Graph]:
    """Apply the hard rewrite to each selected seed graph.

    The seed's padded adjacency and features go through the thresholded
    operations; the top-left n×n block is kept so a generated graph has its
    seed's node count, and degrees are recomputed from the new structure.
    """
    generated = []
    for index in indices:
        seed = graphs[index]
        n = seed.num_nodes
        padded_adj = np.zeros((n_max, n_max))
        padded_adj[:n, :n] = seed.adjacency
        padded_feats = np.zeros((n_max, seed.feature_dim))
        padded_feats[:n, :] = seed.node_features
        hard_adj = perturb_structure(pair, padded_adj, hard=True)[:n, :n]
        hard_feats = mask_features(pair, padded_feats, hard=True)[:n, :]
        generated.append(make_graph(hard_adj, hard_feats, minority_label,
                                    Provenance.GENERATED))
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
    pair, _, trace = train_perturbations(seeds, n_max, config, rng)
    generated = generate_samples(pair, train_graphs, indices, minority, n_max)
    return AugmentationResult(generated=generated, seed_indices=indices,
                              minority_label=minority, loss_trace=trace)
