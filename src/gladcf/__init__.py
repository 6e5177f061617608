"""Graph-level anomaly detection for imbalanced datasets.

The package couples counterfactual augmentation (learned structure and
feature perturbations that rebalance the training set) with a dual-branch
graph-convolutional detector whose loss reweights original and generated
anomalies separately.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, GladcfError, MetricError, SizeError,
                     TrainingDivergedError, TuFormatError)
from .graphs import (Graph, GraphDataset, PaddedBatch, Provenance, make_graph,
                     pad_batch, stratified_kfold)
from .tu import (FeatureConfig, FeatureMode, build_features, dataset_stats,
                 load_tu_dataset, write_tu_dataset)
from .augment import (AugmentConfig, AugmentationResult, PerturbationPair,
                      augment_training_set, counterfactual_loss,
                      generate_samples, mask_features, perturb_structure,
                      plan_seeds, select_seeds, train_perturbations)
from .detector import (DetectorConfig, DetectorParams, TrainConfig,
                       composite_loss, decide, detector_scores, init_detector,
                       load_checkpoint, plan_branches, predict_scores,
                       save_checkpoint, train_detector)
from .experiment import (DEFAULT_BETA_SWEEP, VARIANTS, EvalReport,
                         ExperimentConfig, compute_auc, config_hash,
                         export_score_histogram, load_dataset, load_report,
                         run_cv, validate_report, write_report,
                         write_scores_csv)

__all__ = [
    "__version__",
    # errors
    "GladcfError", "ConfigError", "SizeError", "TuFormatError", "MetricError",
    "TrainingDivergedError",
    # graphs
    "Graph", "GraphDataset", "PaddedBatch", "Provenance", "make_graph",
    "pad_batch", "stratified_kfold",
    # dataset IO and features
    "FeatureMode", "FeatureConfig", "load_tu_dataset", "build_features",
    "write_tu_dataset", "dataset_stats",
    # augmentation
    "AugmentConfig", "AugmentationResult", "PerturbationPair",
    "perturb_structure", "mask_features", "plan_seeds", "counterfactual_loss",
    "select_seeds", "train_perturbations", "generate_samples",
    "augment_training_set",
    # detection
    "DetectorConfig", "DetectorParams", "TrainConfig", "composite_loss",
    "init_detector", "train_detector", "plan_branches", "detector_scores",
    "predict_scores",
    "decide", "save_checkpoint", "load_checkpoint",
    # experiments
    "ExperimentConfig", "EvalReport", "VARIANTS", "DEFAULT_BETA_SWEEP",
    "compute_auc", "config_hash", "run_cv", "load_dataset",
    "export_score_histogram", "validate_report", "write_report",
    "write_scores_csv", "load_report",
]
