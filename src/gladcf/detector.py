"""Graph-level anomaly scorer: two GCN branches, adaptive node weighting,
and an imbalance-aware binary objective.

One branch convolves the node features, the other convolves the raw degree
column; their node states are concatenated, compressed by a linear reducer,
reweighted by a trainable square matrix, and mean-pooled into one embedding
per graph. A sigmoid head turns embeddings into anomaly scores in (0, 1).

The loss splits the batch three ways — normal, original-abnormal, generated —
normalizes each term by its own count, and mixes the abnormal terms by the
generated fraction alpha with an extra influence knob beta on the generated
term. Training always takes exactly one optimizer step per epoch over the
whole training set; size-bucketed gradient accumulation keeps memory flat
without changing the computed loss.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, TrainingDivergedError
from .gcn import (GCNLayerParams, gcn_forward, init_gcn_layer,
                  masked_mean_pool, normalize_adjacency)
from .graphs import PaddedBatch, Provenance, pad_batch
from .optim import Adam

logger = logging.getLogger(__name__)

Array = np.ndarray

SCORE_FLOOR = 1e-12  # log arguments are clamped to [floor, 1 - floor]


@dataclass
class LinearParams:
    weight: Tensor
    bias: Tensor


def _init_linear(in_dim: int, out_dim: int,
                 rng: np.random.Generator) -> LinearParams:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return LinearParams(
        weight=Tensor(rng.uniform(-limit, limit, size=(in_dim, out_dim)),
                      requires_grad=True),
        bias=Tensor(np.zeros(out_dim), requires_grad=True))


@dataclass(frozen=True)
class DetectorConfig:
    hidden1: int = 256
    hidden2: int = 128
    reduce_dim: int = 64
    use_feature_branch: bool = True
    use_degree_branch: bool = True
    use_adaptive_weighting: bool = True
    threshold: float = 0.5

    def __post_init__(self):
        if not (self.use_feature_branch or self.use_degree_branch):
            raise ConfigError("at least one convolution branch must stay on")
        for name in ("hidden1", "hidden2", "reduce_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(
                f"threshold must lie in (0, 1), got {self.threshold}")

    @property
    def fused_dim(self) -> int:
        branches = int(self.use_feature_branch) + int(self.use_degree_branch)
        return branches * self.hidden2


@dataclass
class DetectorParams:
    feature_branch: list[GCNLayerParams] | None
    degree_branch: list[GCNLayerParams] | None
    reducer: LinearParams
    adaptive_weight: Tensor
    head_weight: Tensor
    head_bias: Tensor
    config: DetectorConfig

    def trainables(self) -> list[Tensor]:
        out: list[Tensor] = []
        for branch in (self.feature_branch, self.degree_branch):
            if branch is not None:
                for layer in branch:
                    out.extend([layer.weight, layer.bias])
        out.extend([self.reducer.weight, self.reducer.bias])
        if self.config.use_adaptive_weighting:
            out.append(self.adaptive_weight)
        out.extend([self.head_weight, self.head_bias])
        return out

    def detached(self) -> DetectorParams:
        """The same parameters as tape-free tensors sharing these arrays.

        Every field is carried over, ``adaptive_weight`` included when it is
        not trainable, so the view scores exactly as ``self`` does.
        """
        def layers(branch):
            if branch is None:
                return None
            return [GCNLayerParams(weight=Tensor(layer.weight.data),
                                   bias=Tensor(layer.bias.data))
                    for layer in branch]

        return DetectorParams(
            feature_branch=layers(self.feature_branch),
            degree_branch=layers(self.degree_branch),
            reducer=LinearParams(weight=Tensor(self.reducer.weight.data),
                                 bias=Tensor(self.reducer.bias.data)),
            adaptive_weight=Tensor(self.adaptive_weight.data),
            head_weight=Tensor(self.head_weight.data),
            head_bias=Tensor(self.head_bias.data), config=self.config)


def init_detector(feature_dim: int, config: DetectorConfig,
                  rng: np.random.Generator) -> DetectorParams:
    """Seeded detector init; parameter draws happen in a fixed order."""
    feature_branch = None
    if config.use_feature_branch:
        if feature_dim < 1:
            raise ConfigError("feature branch requires built node features")
        feature_branch = [init_gcn_layer(feature_dim, config.hidden1, rng),
                          init_gcn_layer(config.hidden1, config.hidden2, rng)]
    degree_branch = None
    if config.use_degree_branch:
        degree_branch = [init_gcn_layer(1, config.hidden1, rng),
                         init_gcn_layer(config.hidden1, config.hidden2, rng)]
    reducer = _init_linear(config.fused_dim, config.reduce_dim, rng)
    r = config.reduce_dim
    limit = np.sqrt(6.0 / (r + r))
    adaptive = Tensor(rng.uniform(-limit, limit, size=(r, r)),
                      requires_grad=True)
    head = _init_linear(r, 1, rng)
    return DetectorParams(feature_branch=feature_branch,
                          degree_branch=degree_branch, reducer=reducer,
                          adaptive_weight=adaptive, head_weight=head.weight,
                          head_bias=head.bias, config=config)


# -- forward pass ------------------------------------------------------------


def fuse_features(params: DetectorParams, batch: PaddedBatch) -> Tensor:
    """Concatenated per-node states from the active branches: (B, n, fused)."""
    normalized = normalize_adjacency(batch.adjacency_stack, batch.node_mask)
    states = [gcn_forward(layers, inputs, normalized, batch.node_mask)
              for layers, inputs in
              ((params.feature_branch, batch.feature_stack),
               (params.degree_branch, batch.degree_stack))
              if layers is not None]
    if len(states) == 1:
        return states[0]
    return ad.concat_last(states[0], states[1])


def adaptive_weighting(params: DetectorParams, fused: Tensor,
                       mask: Array) -> Tensor:
    """Reduce, reweight, and mean-pool node states into (B, r).

    The reducer and the square reweighting matrix act on every node row
    alike, so the pooled embedding does not depend on node order. With
    adaptive weighting off, the reweighting matrix is bypassed.
    """
    reduced = ad.matmul(fused, params.reducer.weight) + params.reducer.bias
    if params.config.use_adaptive_weighting:
        reduced = ad.matmul(reduced, params.adaptive_weight)
    return masked_mean_pool(reduced, mask)


def score(params: DetectorParams, embedding: Tensor) -> Tensor:
    """Anomaly score per graph: sigmoid(W · ReLU(embedding) + b), in (0, 1)."""
    activated = ad.relu(embedding)
    logits = ad.matmul(activated, params.head_weight) + params.head_bias
    return ad.sigmoid(ad.reshape(logits, (logits.shape[0],)))


def detector_scores(params: DetectorParams, batch: PaddedBatch) -> Tensor:
    fused = fuse_features(params, batch)
    embedding = adaptive_weighting(params, fused, batch.node_mask)
    return score(params, embedding)


def decide(scores: Array, threshold: float = 0.5) -> Array:
    """1 iff score − threshold is strictly positive."""
    return (np.asarray(scores) - threshold > 0).astype(np.int64)


# -- loss ---------------------------------------------------------------------


def partition_masks(labels: Array, provenance) -> tuple[Array, Array, Array]:
    """Boolean masks (normal, original-abnormal, generated-abnormal).

    Normal means label 0 regardless of provenance (datasets whose minority
    class is normal rebalance with generated *normal* graphs, which then
    simply join the normal term).
    """
    labels = np.asarray(labels)
    generated = np.array([p is Provenance.GENERATED for p in provenance],
                         dtype=bool)
    is_normal = labels == 0
    is_original_abnormal = (labels == 1) & ~generated
    is_generated_abnormal = (labels == 1) & generated
    return is_normal, is_original_abnormal, is_generated_abnormal


def _objective(scores: Tensor, masks: tuple[Array, Array, Array],
               counts: tuple[int, int, int], beta: float,
               include_normal: bool, include_abnormal: bool,
               ) -> tuple[Tensor, dict]:
    """The loss contributed by the graphs that ``masks`` select.

    ``counts`` are the partition sizes (normal, original-abnormal, generated)
    of the whole objective: they fix alpha and each term's 1/n, so the
    contributions of disjoint chunks sum to the loss of their union.
    """
    n_nor, n_ori, n_gen = counts
    n_abn = n_ori + n_gen
    alpha = n_gen / n_abn if n_abn else 0.0
    clamped = ad.clamp(scores, SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    log_normal = ad.log(1.0 - clamped)
    log_abnormal = ad.log(clamped)

    raw: list[Tensor | None] = []
    for log_values, mask, n in ((log_normal, masks[0], n_nor),
                                (log_abnormal, masks[1], n_ori),
                                (log_abnormal, masks[2], n_gen)):
        raw.append(ad.tsum(log_values * mask.astype(np.float64)) * (-1.0 / n)
                   if mask.any() else None)
    raw_nor, raw_ori, raw_gen = raw

    terms: list[Tensor] = []
    if include_normal and raw_nor is not None:
        terms.append(raw_nor)
    if include_abnormal and raw_ori is not None:
        terms.append(raw_ori * (1.0 - alpha))
    if include_abnormal and raw_gen is not None:
        terms.append(raw_gen * (beta * alpha))

    loss = terms[0] if terms else Tensor(0.0)
    for t in terms[1:]:
        loss = loss + t
    components = {
        "l_normal": float(raw_nor.data) if raw_nor is not None else 0.0,
        "l_original": float(raw_ori.data) if raw_ori is not None else 0.0,
        "l_generated": float(raw_gen.data) if raw_gen is not None else 0.0,
        "alpha": alpha, "beta": beta,
        "n_normal": n_nor, "n_original": n_ori, "n_generated": n_gen,
        "loss": float(loss.data),
    }
    return loss, components


def composite_loss(scores: Tensor, labels: Array, provenance,
                   beta: float, include_normal: bool = True,
                   include_abnormal: bool = True) -> tuple[Tensor, dict]:
    """Imbalance-aware objective over one batch of scores.

    L = L_nor + (1 − alpha)·L_ori + beta·alpha·L_gen, where each term is the
    negated mean log-likelihood over its partition, alpha is the generated
    share of the abnormal samples, and empty partitions contribute zero.
    Log arguments are clamped away from 0 and 1.
    """
    masks = partition_masks(labels, provenance)
    counts = tuple(int(m.sum()) for m in masks)
    if counts[1] + counts[2] == 0:
        logger.debug("no abnormal samples in batch; loss reduces to the "
                     "normal term")
    return _objective(scores, masks, counts, beta, include_normal,
                      include_abnormal)


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr: float = 0.001
    beta: float = 1.2
    chunk_size: int = 128
    include_normal_term: bool = True
    include_abnormal_term: bool = True

    def __post_init__(self):
        if self.epochs < 1 or self.lr <= 0 or self.chunk_size < 1:
            raise ConfigError("epochs, lr, and chunk_size must be positive")


@dataclass
class _Chunk:
    batch: PaddedBatch
    indices: Array
    masks: tuple[Array, Array, Array]  # see partition_masks


def _plan_chunks(graphs, chunk_size: int) -> list[_Chunk]:
    """Stable size-bucketed chunks, each padded only to its own max n."""
    order = sorted(range(len(graphs)), key=lambda i: (graphs[i].num_nodes, i))
    provenance = [g.provenance for g in graphs]
    labels = np.array([g.label for g in graphs])
    chunks = []
    for start in range(0, len(order), chunk_size):
        idx = np.array(order[start:start + chunk_size])
        members = [graphs[i] for i in idx]
        width = max(g.num_nodes for g in members)
        batch = pad_batch(members, width)
        masks = partition_masks(labels[idx], [provenance[i] for i in idx])
        chunks.append(_Chunk(batch=batch, indices=idx, masks=masks))
    return chunks


def train_detector(graphs, config: DetectorConfig, train_config: TrainConfig,
                   rng: np.random.Generator,
                   params: DetectorParams | None = None,
                   ) -> tuple[DetectorParams, list[float]]:
    """Full-batch training with one optimizer step per epoch.

    Returns the trained parameters and the per-epoch loss trace. Chunked
    accumulation uses the global partition counts, so the summed chunk losses
    equal the single-batch objective regardless of chunk size.
    """
    graphs = list(graphs)
    if not graphs:
        raise ConfigError("cannot train a detector on an empty graph list")
    feature_dim = graphs[0].feature_dim
    if params is None:
        params = init_detector(feature_dim, config, rng)
    optimizer = Adam(params.trainables(), lr=train_config.lr)
    chunks = _plan_chunks(graphs, train_config.chunk_size)

    counts = tuple(int(m.sum()) for m in partition_masks(
        [g.label for g in graphs], [g.provenance for g in graphs]))
    if counts[1] + counts[2] == 0:
        logger.warning("training set has no abnormal graphs; the loss "
                       "reduces to its normal term")

    trace: list[float] = []
    for epoch in range(train_config.epochs):
        optimizer.zero_grad()
        epoch_loss = 0.0
        for chunk in chunks:
            scores = detector_scores(params, chunk.batch)
            partial, _ = _objective(
                scores, chunk.masks, counts, train_config.beta,
                train_config.include_normal_term,
                train_config.include_abnormal_term)
            if partial.requires_grad:
                partial.backward()
            epoch_loss += float(partial.data)
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"detector loss diverged at epoch {epoch}: {epoch_loss}")
        optimizer.step()
        for t in params.trainables():
            if not np.isfinite(t.data).all():
                raise TrainingDivergedError(
                    f"detector parameters became non-finite at epoch {epoch}")
        trace.append(epoch_loss)
    return params, trace


def predict_scores(params: DetectorParams, graphs,
                   chunk_size: int = 128) -> Array:
    """Scores for a list of graphs, in input order, without building a tape.

    Scoring runs on a detached view, so the caller's parameters are only
    read, never flagged or unflagged.
    """
    graphs = list(graphs)
    if not graphs:
        return np.zeros(0)
    frozen = params.detached()
    out = np.zeros(len(graphs))
    for chunk in _plan_chunks(graphs, chunk_size):
        out[chunk.indices] = detector_scores(frozen, chunk.batch).data
    return out


# -- checkpointing -------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: DetectorParams, extra: dict | None = None
                    ) -> None:
    """Versioned parameter archive (npz of arrays plus a JSON meta blob)."""
    arrays: dict[str, Array] = {}
    for name, branch in (("feature", params.feature_branch),
                         ("degree", params.degree_branch)):
        if branch is not None:
            for i, layer in enumerate(branch):
                arrays[f"{name}{i}_weight"] = layer.weight.data
                arrays[f"{name}{i}_bias"] = layer.bias.data
    arrays["reducer_weight"] = params.reducer.weight.data
    arrays["reducer_bias"] = params.reducer.bias.data
    arrays["adaptive_weight"] = params.adaptive_weight.data
    arrays["head_weight"] = params.head_weight.data
    arrays["head_bias"] = params.head_bias.data
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config": {
            "hidden1": params.config.hidden1,
            "hidden2": params.config.hidden2,
            "reduce_dim": params.config.reduce_dim,
            "use_feature_branch": params.config.use_feature_branch,
            "use_degree_branch": params.config.use_degree_branch,
            "use_adaptive_weighting": params.config.use_adaptive_weighting,
            "threshold": params.config.threshold,
        },
        "extra": extra or {},
    }
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[DetectorParams, dict]:
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta_json"]).decode("utf-8"))
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"unsupported checkpoint version {meta.get('format_version')}")
        config = DetectorConfig(**meta["config"])

        def tensor(name: str) -> Tensor:
            return Tensor(archive[name], requires_grad=True)

        def branch(name: str) -> list[GCNLayerParams] | None:
            if f"{name}0_weight" not in archive:
                return None
            return [GCNLayerParams(weight=tensor(f"{name}{i}_weight"),
                                   bias=tensor(f"{name}{i}_bias"))
                    for i in range(2)]

        params = DetectorParams(
            feature_branch=branch("feature"),
            degree_branch=branch("degree"),
            reducer=LinearParams(weight=tensor("reducer_weight"),
                                 bias=tensor("reducer_bias")),
            adaptive_weight=tensor("adaptive_weight"),
            head_weight=tensor("head_weight"),
            head_bias=tensor("head_bias"),
            config=config)
    return params, meta["extra"]
