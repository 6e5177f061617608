"""Graph-level anomaly scorer: two GCN branches, adaptive node weighting,
and an imbalance-aware binary objective.

Each branch is a two-layer GCN: one convolves the node features, the other
the raw degree column. What the branches read of the graphs alone — the
pool weights ``mᵀÂ/n``, ``Â·X`` and the sorted ``s = Â·d`` — is one plan
per chunk (``plan_branches``), made in plain NumPy, and the forward pass
reads only that plan, so no training epoch and no scoring pass touches
``Â`` or the padded batch.
Each branch's last layer is linear, so each branch is mean-pooled first
and its last weight applied to one row per graph (``gcn.linear_readout``).
The feature branch's hidden layer reads ``Â·X`` and is pooled in the same
tape node (``gcn.gcn_layer``), which runs in cache-sized blocks of whole
graphs: no per-node float activation outlives its block, and the tape
keeps one byte per hidden unit, the ReLU mask. The degree branch's input
is one column, so its pooled hidden layer has a closed form in the sorted
``s`` and builds no per-node state at all. The plan is exactly zero at
padded nodes, so neither hidden layer needs a padding mask. The two pooled
vectors are concatenated, then compressed by a linear reducer
(``gcn.linear_readout``), then reweighted by a trainable square matrix:
pool, then reduce, then reweight, which gives the same embedding as
reducing and reweighting every node row before the pool. A sigmoid head
turns embeddings into anomaly scores in (0, 1).

The loss is a negative log-likelihood with one weight per graph, made once
per training set (``loss_weights``): the normal, original-abnormal and
generated terms weigh 1, 1 − alpha and beta·alpha, each spread over its
partition. Training runs through ``optim.fit`` over size-bucketed chunks.
"""

from __future__ import annotations

import json
import logging
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError
from .gcn import (GCNLayerParams, gcn_layer, init_gcn_layer, linear_readout,
                  masked_mean_pool, normalize_adjacency)
from .graphs import CHUNK_SIZE, PaddedBatch, Provenance, padded_chunks
from .optim import fit

logger = logging.getLogger(__name__)

Array = np.ndarray

SCORE_FLOOR = 1e-12  # log arguments are clamped to [floor, 1 - floor]


@dataclass(frozen=True)
class DetectorConfig:
    hidden1: int = 256
    hidden2: int = 128
    reduce_dim: int = 64
    use_feature_branch: bool = True
    use_degree_branch: bool = True
    use_adaptive_weighting: bool = True

    def __post_init__(self):
        if not (self.use_feature_branch or self.use_degree_branch):
            raise ConfigError("at least one convolution branch must stay on")
        for name in ("hidden1", "hidden2", "reduce_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    @property
    def fused_dim(self) -> int:
        branches = int(self.use_feature_branch) + int(self.use_degree_branch)
        return branches * self.hidden2


@dataclass
class DetectorParams:
    feature_branch: list[GCNLayerParams] | None
    degree_branch: list[GCNLayerParams] | None
    reducer: GCNLayerParams
    adaptive_weight: Tensor
    head_weight: Tensor
    head_bias: Tensor
    config: DetectorConfig

    def named(self) -> dict[str, Tensor]:
        """Every parameter under its checkpoint name, in a fixed order."""
        out: dict[str, Tensor] = {}
        for name, branch in (("feature", self.feature_branch),
                             ("degree", self.degree_branch)):
            for i, layer in enumerate(branch or ()):
                out[f"{name}{i}_weight"] = layer.weight
                out[f"{name}{i}_bias"] = layer.bias
        out["reducer_weight"] = self.reducer.weight
        out["reducer_bias"] = self.reducer.bias
        out["adaptive_weight"] = self.adaptive_weight
        out["head_weight"] = self.head_weight
        out["head_bias"] = self.head_bias
        return out

    @classmethod
    def from_arrays(cls, config: DetectorConfig, arrays,
                    requires_grad: bool) -> DetectorParams:
        """Parameters wrapping ``arrays``, a mapping keyed as ``named`` is."""
        def tensor(name: str) -> Tensor:
            return Tensor(arrays[name], requires_grad=requires_grad)

        def branch(name: str, used: bool) -> list[GCNLayerParams] | None:
            if not used:
                return None
            return [GCNLayerParams(weight=tensor(f"{name}{i}_weight"),
                                   bias=tensor(f"{name}{i}_bias"))
                    for i in range(2)]

        return cls(
            feature_branch=branch("feature", config.use_feature_branch),
            degree_branch=branch("degree", config.use_degree_branch),
            reducer=GCNLayerParams(weight=tensor("reducer_weight"),
                                   bias=tensor("reducer_bias")),
            adaptive_weight=tensor("adaptive_weight"),
            head_weight=tensor("head_weight"), head_bias=tensor("head_bias"),
            config=config)

    def trainables(self) -> list[Tensor]:
        """The ``named`` parameters the optimizer updates."""
        return [t for name, t in self.named().items()
                if name != "adaptive_weight"
                or self.config.use_adaptive_weighting]

    def detached(self) -> DetectorParams:
        """The same parameters as tape-free tensors sharing these arrays.

        Every field is carried over, ``adaptive_weight`` included when it is
        not trainable, so the view scores exactly as ``self`` does.
        """
        return DetectorParams.from_arrays(
            self.config, {name: t.data for name, t in self.named().items()},
            requires_grad=False)


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
    reducer = init_gcn_layer(config.fused_dim, config.reduce_dim, rng)
    r = config.reduce_dim
    adaptive = init_gcn_layer(r, r, rng).weight
    head = init_gcn_layer(r, 1, rng)
    return DetectorParams(feature_branch=feature_branch,
                          degree_branch=degree_branch, reducer=reducer,
                          adaptive_weight=adaptive, head_weight=head.weight,
                          head_bias=head.bias, config=config)


# -- forward pass ------------------------------------------------------------


@dataclass(frozen=True)
class ChunkPlan:
    """What both branches read of one batch's graphs, made by
    ``plan_branches``: NumPy constants only. ``pool`` and ``inputs`` are
    exactly zero at padded nodes, which is why no layer needs a mask."""

    pool: Array                # the pool weights mᵀÂ/n, (B, 1, n)
    inputs: Array | None       # the feature branch's Â·X, (B, n, F)
    ramp: ad.RampSums | None   # the degree branch's sorted s = Â·d


def plan_branches(params: DetectorParams, batch: PaddedBatch) -> ChunkPlan:
    """The batch's ``ChunkPlan``, a branch's input None where it is off.

    Plain NumPy on the fixed graphs: no ``Tensor`` is built. One
    ``normalize_adjacency`` and one ``masked_mean_pool`` of its rows
    serve both branches. The feature branch reads ``Â·X``. The degree
    branch's input is one column ``d``, the adjacency's row sums, so its
    pooled hidden unit ``j`` is ``Σᵢ pᵢ·relu(sᵢ·w_j + b_j)`` with
    ``s = Â·d``, and the plan keeps each graph's ``s`` sorted with prefix
    sums of ``p`` and ``p·s`` (``autodiff.ramp_sums``). ``pad_batch``
    zero-fills the padded rows and columns, so ``Â``, and with it ``p``,
    ``Â·X`` and ``s``, are exactly zero at padded nodes. The plan depends
    on the graphs only, never on parameter values.
    """
    # degrees first: allocated after normalize_adjacency's temporaries, this
    # small array raises cv_bzr's peak RSS by 3 MB (glibc heap layout)
    degrees = batch.adjacency_stack.sum(axis=-1, keepdims=True)
    normalized = normalize_adjacency(batch.adjacency_stack, batch.node_mask)
    pool = masked_mean_pool(normalized, batch.node_mask)
    inputs = ramp = None
    if params.feature_branch is not None:
        inputs = normalized @ batch.feature_stack
    if params.degree_branch is not None:
        s = (normalized @ degrees)[..., 0]
        ramp = ad.ramp_sums(s, pool[:, 0])
    return ChunkPlan(pool, inputs, ramp)


def fuse_features(params: DetectorParams, plan: ChunkPlan) -> Tensor:
    """Concatenated pooled outputs of the active branches: (B, fused).

    Each branch's hidden layer is pooled as it is made, the feature branch's
    on ``Â·X`` (``gcn.gcn_layer``) and the degree branch's in closed form on
    the sorted ``s`` (``autodiff.ramp_relu_sum``); its last layer then acts
    on one row per graph (``linear_readout``).
    """
    pooled = []
    if params.feature_branch is not None:
        first, last = params.feature_branch
        hidden = gcn_layer(first, plan.inputs, plan.pool)
        pooled.append(linear_readout(last, hidden))
    if params.degree_branch is not None:
        first, last = params.degree_branch
        hidden = ad.ramp_relu_sum(first.weight, first.bias, plan.ramp)
        pooled.append(linear_readout(last, hidden))
    if len(pooled) == 1:
        return pooled[0]
    return ad.concat_last(pooled[0], pooled[1])


def adaptive_weighting(params: DetectorParams, fused: Tensor) -> Tensor:
    """Reduce and reweight pooled branch outputs into (B, r) embeddings.

    The reducer and the square reweighting matrix are linear maps applied to
    every node row alike, so applying them to the pooled vector gives the
    mean of their per-node outputs, independent of node order. The reducer
    is a ``linear_readout``. With adaptive weighting off, the reweighting
    matrix is bypassed.
    """
    reduced = linear_readout(params.reducer, fused)
    if params.config.use_adaptive_weighting:
        reduced = ad.matmul(reduced, params.adaptive_weight)
    return reduced


def score(params: DetectorParams, embedding: Tensor) -> Tensor:
    """Anomaly score per graph: sigmoid(W · ReLU(embedding) + b), in (0, 1)."""
    activated = ad.relu(embedding)
    logits = ad.matmul(activated, params.head_weight) + params.head_bias
    return ad.sigmoid(ad.reshape(logits, (logits.shape[0],)))


def detector_scores(params: DetectorParams, plan: ChunkPlan) -> Tensor:
    """Scores of the batch that ``plan`` (its ``plan_branches``) describes."""
    embedding = adaptive_weighting(params, fuse_features(params, plan))
    return score(params, embedding)


def decide(scores: Array, threshold: float) -> Array:
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


def _partitions(labels: Array, provenance
                ) -> tuple[tuple[Array, Array, Array], list[int], float]:
    """``partition_masks``, their counts, and alpha: the generated share of
    the abnormal graphs, 0 when there are none."""
    masks = partition_masks(labels, provenance)
    counts = [int(m.sum()) for m in masks]
    return masks, counts, counts[2] / max(counts[1] + counts[2], 1)


def loss_weights(labels: Array, provenance, beta: float,
                 include_normal: bool = True,
                 include_abnormal: bool = True) -> Array:
    """Per-graph weights that make ``weighted_nll`` the objective
    L = L_nor + (1 − alpha)·L_ori + beta·alpha·L_gen, each term the negated
    mean log-likelihood over its partition and alpha the generated share of
    the abnormal graphs (0 without any): 1/n_nor, (1 − alpha)/n_ori and
    beta·alpha/n_gen, or 0 where a term is switched off."""
    masks, counts, alpha = _partitions(labels, provenance)
    scales = (float(include_normal), (1.0 - alpha) * include_abnormal,
              beta * alpha * include_abnormal)
    return sum(mask * (scale / max(count, 1))
               for mask, scale, count in zip(masks, scales, counts))


def weighted_nll(scores: Tensor, labels: Array, weights: Array) -> Tensor:
    """Σᵢ wᵢ·(−log pᵢ), where pᵢ = c·y + (1 − c)·(1 − y) is the likelihood
    of label y under the score c clamped to [floor, 1 − floor]: c for an
    anomaly and 1 − c for a normal graph."""
    clamped = ad.clamp(scores, SCORE_FLOOR, 1.0 - SCORE_FLOOR)
    y = np.asarray(labels, dtype=np.float64)
    likelihood = clamped * y + (1.0 - clamped) * (1.0 - y)
    return ad.tsum(ad.log(likelihood) * -np.asarray(weights))


def composite_loss(scores: Tensor, labels: Array, provenance,
                   beta: float, include_normal: bool = True,
                   include_abnormal: bool = True) -> tuple[Tensor, dict]:
    """The objective over one batch, ``weighted_nll`` at ``loss_weights``,
    and its parts: each partition's negated mean log-likelihood (0 when
    empty), alpha, beta and the partition counts."""
    loss = weighted_nll(scores, labels, loss_weights(
        labels, provenance, beta, include_normal, include_abnormal))
    masks, counts, alpha = _partitions(labels, provenance)
    raw = [float(weighted_nll(Tensor(scores.data), labels, m / max(n, 1)).data)
           for m, n in zip(masks, counts)]
    return loss, {
        "l_normal": raw[0], "l_original": raw[1], "l_generated": raw[2],
        "alpha": alpha, "beta": beta,
        "n_normal": counts[0], "n_original": counts[1],
        "n_generated": counts[2], "loss": float(loss.data),
    }


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr: float = 0.001
    beta: float = 1.2
    chunk_size: int = CHUNK_SIZE
    include_normal_term: bool = True
    include_abnormal_term: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.lr) and math.isfinite(self.beta)):
            raise ConfigError(f"lr and beta must be finite, got {self.lr} "
                              f"and {self.beta}")
        if self.epochs < 1 or self.lr <= 0 or self.chunk_size < 1:
            raise ConfigError("epochs, lr, and chunk_size must be positive")
        if self.beta < 0:
            raise ConfigError(f"beta must be non-negative, got {self.beta}")


@dataclass
class _Chunk:
    plan: ChunkPlan  # the batch's plan_branches, made once
    indices: Array


def _plan_chunks(graphs, chunk_size: int,
                 params: DetectorParams) -> list[_Chunk]:
    """Stable size-bucketed chunks, each padded only to its own max n.

    A chunk's graphs never change, so the branches' graph-only terms are
    computed here once and every epoch and every scoring pass reuses them.
    """
    return [_Chunk(plan=plan_branches(params, batch), indices=idx)
            for idx, batch in padded_chunks(graphs, chunk_size)]


def train_detector(graphs, config: DetectorConfig, train_config: TrainConfig,
                   rng: np.random.Generator,
                   ) -> tuple[DetectorParams, list[float]]:
    """Train a fresh detector through ``optim.fit``.

    Returns the trained parameters and the per-epoch loss trace. The
    objective's weights are made once for the whole training set, so the
    chunk losses sum to the single-batch objective regardless of chunk size.
    """
    graphs = list(graphs)
    if not graphs:
        raise ConfigError("cannot train a detector on an empty graph list")
    params = init_detector(graphs[0].feature_dim, config, rng)
    chunks = _plan_chunks(graphs, train_config.chunk_size, params)

    labels = np.array([g.label for g in graphs])
    weights = loss_weights(labels, [g.provenance for g in graphs],
                           train_config.beta,
                           train_config.include_normal_term,
                           train_config.include_abnormal_term)
    if not labels.any():
        logger.warning("training set has no abnormal graphs; the loss "
                       "reduces to its normal term")

    def chunk_loss(chunk: _Chunk) -> Tensor:
        return weighted_nll(detector_scores(params, chunk.plan),
                            labels[chunk.indices], weights[chunk.indices])

    trace = fit(params.trainables(), train_config.lr, train_config.epochs,
                chunks, chunk_loss, "detector")
    return params, trace


def predict_scores(params: DetectorParams, graphs,
                   chunk_size: int = TrainConfig.chunk_size) -> Array:
    """Scores for a list of graphs, in input order, without building a tape.

    Scoring runs on a detached view, so the caller's parameters are only
    read, never flagged or unflagged.
    """
    graphs = list(graphs)
    frozen = params.detached()
    out = np.zeros(len(graphs))
    for chunk in _plan_chunks(graphs, chunk_size, frozen):
        out[chunk.indices] = detector_scores(frozen, chunk.plan).data
    return out


# -- checkpointing -------------------------------------------------------------

CHECKPOINT_VERSION = 2


def save_checkpoint(path, params: DetectorParams, extra: dict | None = None
                    ) -> None:
    """Versioned parameter archive (npz of arrays plus a JSON meta blob)."""
    arrays = {name: t.data for name, t in params.named().items()}
    meta = {"format_version": CHECKPOINT_VERSION,
            "config": asdict(params.config), "extra": extra or {}}
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[DetectorParams, dict]:
    """The parameters and ``extra`` of a ``save_checkpoint`` archive, which
    must hold exactly the arrays that ``init_detector`` builds for its
    config, in the same shapes; anything else is a ``ConfigError``."""
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("it holds one array, not an npz archive")
        with archive:
            arrays = {name: archive[name] for name in archive.files}
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise ConfigError(f"checkpoint {path} is unreadable: {exc}") from None
    try:
        meta = json.loads(bytes(arrays.pop("meta_json")).decode("utf-8"))
        version, saved, extra = (meta["format_version"], meta["config"],
                                 meta["extra"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"checkpoint meta is unreadable: {exc!r}") from None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    names = sorted(f.name for f in fields(DetectorConfig))
    if not isinstance(saved, dict) or sorted(saved) != names:
        raise ConfigError(f"checkpoint config must hold exactly {names}")
    for f in fields(DetectorConfig):
        # exactly the default's type: an int width, a bool switch
        if type(saved[f.name]) is not type(f.default):
            raise ConfigError(
                f"checkpoint config {f.name!r} must be of type "
                f"{type(f.default).__name__}, got {saved[f.name]!r}")
    config = DetectorConfig(**saved)
    # the feature width is the one shape the config does not fix
    width = (np.shape(arrays.get("feature0_weight")) or (1,))[0]
    needed = {name: t.shape for name, t in init_detector(
        width, config, np.random.default_rng(0)).named().items()}
    found = {name: array.shape for name, array in arrays.items()}
    for name in sorted(needed.keys() | found.keys()):
        if found.get(name) != needed.get(name):
            raise ConfigError(f"checkpoint array {name!r}: shape "
                              f"{found.get(name)} in the file, "
                              f"{needed.get(name)} for its config")
    params = DetectorParams.from_arrays(config, arrays, requires_grad=True)
    return params, extra
