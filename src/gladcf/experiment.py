"""Evaluation protocol: stratified cross-validation with per-fold
augmentation, rank-based AUC, ablation variants, and JSON/CSV artifacts.

Randomness is derived from one master seed through numpy seed-sequence spawn
keys ``[master, fold, role]``, so every fold is independently reproducible
and parallel execution is bit-identical to serial execution.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .augment import AugmentConfig, augment_training_set
from .detector import (DetectorConfig, TrainConfig, decide, predict_scores,
                       save_checkpoint, train_detector)
from .errors import ConfigError, MetricError
from .graphs import GraphDataset, stratified_kfold
from .tu import FeatureConfig, FeatureMode, build_features, load_tu_dataset

logger = logging.getLogger(__name__)

Array = np.ndarray

VARIANTS = ("no_asgm", "no_awlm", "no_gcn_d", "no_gcn_x",
            "no_loss_nor", "no_loss_abn")

# role keys for per-fold seed derivation
ROLE_AUGMENT = 1
ROLE_DETECTOR = 2

# beta / learning-rate defaults by dataset (case-insensitive), falling back
# to 1.2 and 0.001
_BETA_DEFAULTS = {"bzr": 0.6, "dhfr": 1.4}
_LR_DEFAULTS = {"aids": 0.0001, "nci1": 0.0001}

DEFAULT_BETA_SWEEP = tuple(round(0.2 + 0.2 * i, 1) for i in range(11))

# the values each annotated field type takes: a float field also takes an
# integer, and a bool is never a number
_ACCEPTED = {str: (str,), int: (int, np.integer),
             float: (int, float, np.integer, np.floating)}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    data_dir: str | None = None
    feature_mode: str = FeatureConfig.mode.value
    num_bins: int = FeatureConfig.num_bins
    anomaly_label: int = 1
    folds: int = 5
    seed: int = 0
    beta: float | None = None
    lr: float | None = None
    epochs: int = TrainConfig.epochs
    cf_lr: float = AugmentConfig.lr
    cf_epochs: int = AugmentConfig.epochs
    sigma: float = AugmentConfig.sigma
    tau: float = AugmentConfig.tau
    hidden1: int = DetectorConfig.hidden1
    hidden2: int = DetectorConfig.hidden2
    reduce_dim: int = DetectorConfig.reduce_dim
    threshold: float = 0.5
    variant: str | None = None
    chunk_size: int = TrainConfig.chunk_size
    parallel_folds: int = 1

    def __post_init__(self):
        # each value is of its annotated type; None stands only where the
        # default is None
        types = config_field_types()
        for field in fields(self):
            value, typ = getattr(self, field.name), types[field.name]
            if value is None and field.default is None:
                continue
            if isinstance(value, bool) or not isinstance(value,
                                                         _ACCEPTED[typ]):
                raise ConfigError(f"config {field.name!r} must be of type "
                                  f"{typ.__name__}, got {value!r}")
        if self.variant is not None and self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.feature_mode not in [m.value for m in FeatureMode]:
            raise ConfigError(
                f"unknown feature mode {self.feature_mode!r}")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.parallel_folds < 1:
            raise ConfigError("parallel_folds must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(
                f"threshold must lie in (0, 1), got {self.threshold}")
        # the model configs check their own fields, so a bad value fails
        # here rather than inside the first fold
        self.feature_config()
        self.detector_config()
        self.train_config()
        self.augment_config()

    def resolved_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return _BETA_DEFAULTS.get(self.dataset.lower(), 1.2)

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return _LR_DEFAULTS.get(self.dataset.lower(), 0.001)

    def resolved(self) -> dict:
        snapshot = asdict(self)
        snapshot["beta"] = self.resolved_beta()
        snapshot["lr"] = self.resolved_lr()
        snapshot["package_version"] = __version__
        return snapshot

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(mode=FeatureMode(self.feature_mode),
                             num_bins=self.num_bins)

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            hidden1=self.hidden1, hidden2=self.hidden2,
            reduce_dim=self.reduce_dim,
            use_feature_branch=self.variant != "no_gcn_x",
            use_degree_branch=self.variant != "no_gcn_d",
            use_adaptive_weighting=self.variant != "no_awlm")

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs, lr=self.resolved_lr(),
            beta=self.resolved_beta(), chunk_size=self.chunk_size,
            include_normal_term=self.variant != "no_loss_nor",
            include_abnormal_term=self.variant != "no_loss_abn")

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(epochs=self.cf_epochs, lr=self.cf_lr,
                             sigma=self.sigma, tau=self.tau,
                             chunk_size=self.chunk_size)


def config_field_types() -> dict[str, type]:
    """Each ``ExperimentConfig`` field's annotated type, ``T`` for a
    ``T | None`` field (one whose default is None)."""
    hints = typing.get_type_hints(ExperimentConfig)
    return {f.name: typing.get_args(hints[f.name])[0] if f.default is None
            else hints[f.name] for f in fields(ExperimentConfig)}


def config_hash(config: ExperimentConfig) -> str:
    """Short stable digest over the result-affecting configuration."""
    snapshot = config.resolved()
    for key in ("data_dir", "parallel_folds", "package_version"):
        snapshot.pop(key, None)
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def fold_rng(master_seed: int, fold: int, role: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, fold, role]))


def load_dataset(config: ExperimentConfig) -> GraphDataset:
    """Load and featurize the configured TU dataset from disk."""
    data_dir = config.data_dir or os.environ.get("GLADCF_DATA_DIR")
    if not data_dir:
        raise ConfigError(
            "no data directory: pass --data-dir or set GLADCF_DATA_DIR")
    directory = Path(data_dir) / config.dataset
    graphs = load_tu_dataset(directory, anomaly_label_value=config.anomaly_label,
                             name=config.dataset)
    return build_features(graphs, config.feature_config(),
                          name=config.dataset)


# -- the rank-based metric ---------------------------------------------------


def compute_auc(scores: Array, labels: Array) -> float:
    """Area under the ROC curve via the rank-sum statistic (ties get midranks).

    Equals exhaustive pair counting (ties scored 1/2) exactly: both numerators
    are multiples of one half far below 2**53.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_abnormal = int((labels == 1).sum())
    n_normal = int((labels == 0).sum())
    if n_abnormal == 0 or n_normal == 0:
        raise MetricError(
            f"AUC undefined: {n_normal} normal / {n_abnormal} abnormal scores")
    _, group, counts = np.unique(scores, return_inverse=True,
                                 return_counts=True)
    # a tie group ending at 1-based rank `end` holds ranks end-count+1..end
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = ranks[labels == 1].sum()
    u_statistic = rank_sum - n_abnormal * (n_abnormal + 1) / 2.0
    return float(u_statistic / (n_abnormal * n_normal))


# -- reports -------------------------------------------------------------------

REPORT_VERSION = 1


@dataclass
class EvalReport:
    dataset: str
    config: dict
    config_hash: str
    fold_aucs: list[float]
    mean_auc: float
    std_auc: float
    scores: list[dict]
    fold_seconds: list[float]
    total_seconds: float
    generated_per_fold: list[int]
    created_at: str
    format_version: int = REPORT_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        validate_report(payload)
        return cls(**payload)


# The report contract in JSON Schema: `validate_report` walks it, and
# external validators can read it as it is.
REPORT_SCHEMA = {
    "type": "object",
    "required": [f.name for f in fields(EvalReport)],
    "additionalProperties": False,
    "properties": {
        "format_version": {"const": REPORT_VERSION},
        "dataset": {"type": "string"},
        "config": {"type": "object"},
        "config_hash": {"type": "string", "pattern": "^[0-9a-f]{12}$"},
        "fold_aucs": {"type": "array", "items": {"type": "number"}},
        "mean_auc": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "std_auc": {"type": "number", "minimum": 0.0},
        "scores": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["graph_id", "fold", "label", "provenance",
                             "score", "decision"],
                "properties": {
                    "graph_id": {"type": "integer", "minimum": 0},
                    "fold": {"type": "integer", "minimum": 0},
                    "label": {"type": "integer", "enum": [0, 1]},
                    "provenance": {"type": "string"},
                    "score": {"type": "number", "minimum": 0.0,
                              "maximum": 1.0},
                    "decision": {"type": "integer", "enum": [0, 1]},
                },
            },
        },
        "fold_seconds": {"type": "array", "items": {"type": "number"}},
        "total_seconds": {"type": "number"},
        "generated_per_fold": {"type": "array", "items": {"type": "integer"}},
        "created_at": {"type": "string"},
    },
}


# JSON's types as Python classes; a bool is neither a number nor an integer
_JSON_TYPES = {"object": dict, "array": list, "string": str,
               "number": (int, float), "integer": int}
# the keywords `validate_report` reads; REPORT_SCHEMA uses no others
SCHEMA_KEYWORDS = frozenset({
    "type", "const", "enum", "required", "properties",
    "additionalProperties", "items", "minimum", "maximum", "pattern"})


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()  # JSON does not tell 1.0 from 1
    return isinstance(value, _JSON_TYPES[name])


def _same(a, b) -> bool:
    """JSON equality, under which ``true`` is not ``1``."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _walk(value, schema: dict, path: str) -> None:
    """Raise a ``ConfigError`` at the first place ``value`` breaks
    ``schema``; a schema that bounds, matches or descends into a value
    also gives its type, so each keyword meets the type it expects."""
    def fault(text: str):
        raise ConfigError(f"{path} {text}")

    if "type" in schema and not _is_type(value, schema["type"]):
        fault(f"must be of type {schema['type']}")
    if "const" in schema and not _same(value, schema["const"]):
        fault(f"must be {schema['const']!r}")
    if "enum" in schema and not any(_same(value, v) for v in schema["enum"]):
        fault(f"must be one of {schema['enum']}")
    if "minimum" in schema and value < schema["minimum"]:
        fault(f"must be at least {schema['minimum']}")
    if "maximum" in schema and value > schema["maximum"]:
        fault(f"must be at most {schema['maximum']}")
    if "pattern" in schema and not re.search(schema["pattern"], value):
        fault(f"must match {schema['pattern']!r}")
    for key in schema.get("required", ()):
        if key not in value:
            fault(f"has no field {key!r}")
    properties = schema.get("properties", {})
    if schema.get("additionalProperties", True) is False:
        unknown = sorted(value.keys() - properties.keys())
        if unknown:
            fault(f"has unknown field {unknown[0]!r}")
    for key, subschema in properties.items():
        if key in value:
            _walk(value[key], subschema, f"{path}.{key}")
    for i, item in enumerate(value if "items" in schema else ()):
        _walk(item, schema["items"], f"{path}[{i}]")


def validate_report(payload: dict) -> None:
    """Raise a ``ConfigError`` naming the first place where ``payload``
    breaks REPORT_SCHEMA, the one statement of what a report is."""
    _walk(payload, REPORT_SCHEMA, "report")


# -- cross-validation ----------------------------------------------------------


def _last(trace: list[float]) -> str:
    """A loss trace's last value for a log line; "none" for an empty trace."""
    return f"{trace[-1]:.6g}" if trace else "none"


def _run_fold(config: ExperimentConfig, dataset: GraphDataset,
              fold_index: int, train_idx: Array, test_idx: Array,
              checkpoint_dir: str | None) -> dict:
    start = time.perf_counter()
    train_graphs = [dataset[i] for i in train_idx]
    test_graphs = [dataset[i] for i in test_idx]

    generated = []
    augment_trace: list[float] = []
    if config.variant != "no_asgm":
        phase = time.perf_counter()
        result = augment_training_set(
            train_graphs, dataset.n_max, config.augment_config(),
            fold_rng(config.seed, fold_index, ROLE_AUGMENT))
        generated = result.generated
        augment_trace = result.loss_trace
        logger.info("fold %d: augmentation %.3f s, last loss %s, %d graphs "
                    "generated", fold_index, time.perf_counter() - phase,
                    _last(augment_trace), len(generated))

    phase = time.perf_counter()
    params, train_trace = train_detector(
        train_graphs + generated, config.detector_config(),
        config.train_config(), fold_rng(config.seed, fold_index, ROLE_DETECTOR))
    logger.info("fold %d: detector training %.3f s, last loss %s",
                fold_index, time.perf_counter() - phase, _last(train_trace))

    phase = time.perf_counter()
    scores = predict_scores(params, test_graphs,
                            chunk_size=config.chunk_size)
    labels = np.array([g.label for g in test_graphs])
    auc = compute_auc(scores, labels)
    logger.info("fold %d: prediction %.3f s, AUC %.4f", fold_index,
                time.perf_counter() - phase, auc)
    decisions = decide(scores, config.threshold)
    rows = [
        {"graph_id": int(graph_id), "fold": fold_index,
         "label": int(label), "provenance": dataset[graph_id].provenance.value,
         "score": float(score_value), "decision": int(decision)}
        for graph_id, label, score_value, decision
        in zip(test_idx, labels, scores, decisions)
    ]
    if checkpoint_dir is not None:
        fold_dir = Path(checkpoint_dir) / f"fold{fold_index}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(fold_dir / "detector.npz", params,
                        extra={"fold": fold_index, "auc": auc,
                               "config_hash": config_hash(config)})
    return {
        "fold": fold_index,
        "auc": auc,
        "rows": rows,
        "generated": len(generated),
        "augment_trace": augment_trace,
        "train_trace": train_trace,
        "seconds": time.perf_counter() - start,
    }


def run_cv(config: ExperimentConfig, dataset: GraphDataset | None = None,
           checkpoint_dir: str | Path | None = None) -> EvalReport:
    """Stratified k-fold evaluation with per-training-fold augmentation."""
    if dataset is None:
        dataset = load_dataset(config)
    started = time.perf_counter()
    splits = stratified_kfold(dataset, config.folds, config.seed)
    checkpoint_dir = str(checkpoint_dir) if checkpoint_dir is not None else None
    logger.info("running %d-fold CV on %s (%d graphs, beta=%.3g, lr=%.3g%s)",
                config.folds, dataset.name, len(dataset),
                config.resolved_beta(), config.resolved_lr(),
                f", variant={config.variant}" if config.variant else "")

    jobs = [(config, dataset, i, train_idx, test_idx, checkpoint_dir)
            for i, (train_idx, test_idx) in enumerate(splits)]
    if config.parallel_folds > 1:
        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(
                max_workers=min(config.parallel_folds, len(jobs))) as pool:
            results = list(pool.map(_run_fold, *zip(*jobs)))
    else:
        results = [_run_fold(*job) for job in jobs]
    results.sort(key=lambda r: r["fold"])

    fold_aucs = [r["auc"] for r in results]
    rows = [row for r in results for row in r["rows"]]
    rows.sort(key=lambda row: (row["fold"], row["graph_id"]))
    report = EvalReport(
        dataset=dataset.name,
        config=config.resolved(),
        config_hash=config_hash(config),
        fold_aucs=fold_aucs,
        mean_auc=float(np.mean(fold_aucs)),
        std_auc=float(np.std(fold_aucs)),
        scores=rows,
        fold_seconds=[r["seconds"] for r in results],
        total_seconds=time.perf_counter() - started,
        generated_per_fold=[r["generated"] for r in results],
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    logger.info("%s: AUC %.4f ± %.4f", dataset.name, report.mean_auc,
                report.std_auc)
    return report


# -- histograms -----------------------------------------------------------------


def export_score_histogram(report: EvalReport, bins: int = 20) -> list[dict]:
    """Bin test scores over [0, 1] separately per class; counts conserve."""
    if bins < 1:
        raise ConfigError("bins must be positive")
    edges = np.linspace(0.0, 1.0, bins + 1)
    scores = np.array([row["score"] for row in report.scores])
    labels = np.array([row["label"] for row in report.scores])
    normal, _ = np.histogram(scores[labels == 0], bins=edges)
    abnormal, _ = np.histogram(scores[labels == 1], bins=edges)
    return [
        {"bin_index": i, "bin_lo": float(edges[i]),
         "bin_hi": float(edges[i + 1]),
         "normal_count": int(normal[i]), "abnormal_count": int(abnormal[i])}
        for i in range(bins)
    ]


# -- artifact writers -----------------------------------------------------------


def write_report(report: EvalReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    validate_report(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a byte that does not decode is a
    ``ConfigError`` naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: expected UTF-8 text, got byte "
                          f"0x{data[exc.start]:02x}") from None


def load_report(path: str | Path) -> EvalReport:
    try:
        payload = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: not valid JSON: "
                          f"{exc.msg}") from None
    return EvalReport.from_dict(payload)


def write_csv(path: str | Path, columns: list[str], rows: list[dict]) -> None:
    """A header, then one line per dict; floats by ``repr`` so they
    round-trip."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in (row[c] for c in columns)))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_scores_csv(report: EvalReport, path: str | Path) -> None:
    write_csv(path, REPORT_SCHEMA["properties"]["scores"]["items"]["required"],
              report.scores)
