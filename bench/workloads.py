"""The benchmark's workloads: seeded synthetic inputs, the call each one
times, and the checks its outputs must pass.

Every workload goes through gladcf's public functions only. Inputs are made
from the workload seed alone and reach the program as TU-format files, the
way the ``gladcf`` commands receive them. Each workload has a full size,
which is timed, and a tiny size, whose output digest is compared with the
committed reference so that a change in behaviour shows next to a change in
speed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# gladcf's functions are looked up on the package at call time, so that the
# spans the traced run installs there also wrap the benchmark's own calls.
import gladcf
from gladcf import (ExperimentConfig, FeatureConfig, FeatureMode, Provenance,
                    make_graph)
from gladcf.experiment import fold_rng

# A trained detector on these inputs ranks far above chance (about 0.9);
# below this floor the run is counted as failed.
AUC_FLOOR = 0.6


# -- synthetic graphs ---------------------------------------------------------


def ring_with_chords(rng: np.random.Generator, n: int,
                     extra_degree: float) -> np.ndarray:
    """A ring (every node has degree >= 2) plus random chords.

    Chords appear independently with probability ``extra_degree / (n - 1)``,
    so ``extra_degree`` is the expected number of chords per node whatever
    the graph size.
    """
    adjacency = np.zeros((n, n))
    ring = np.arange(n)
    adjacency[ring, (ring + 1) % n] = 1.0
    p = min(1.0, extra_degree / max(n - 1, 1))
    chords = np.triu(rng.random((n, n)) < p, k=1)
    adjacency = np.maximum(adjacency, chords)
    adjacency = np.maximum(adjacency, adjacency.T)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def labelled_graphs(rng: np.random.Generator, sizes, anomalous: int) -> list:
    """Featureless graphs, ``anomalous`` of them denser than the rest."""
    labels = np.zeros(len(sizes), dtype=np.int64)
    labels[rng.permutation(len(sizes))[:anomalous]] = 1
    graphs = []
    for n, label in zip(sizes, labels):
        extra = rng.uniform(2.5, 4.5) if label else rng.uniform(1.0, 3.0)
        provenance = (Provenance.ORIGINAL_ABNORMAL if label
                      else Provenance.ORIGINAL_NORMAL)
        n = int(n)
        graphs.append(make_graph(ring_with_chords(rng, n, extra),
                                 np.zeros((n, 0)), int(label), provenance))
    return graphs


def uniform_sizes(rng: np.random.Generator, count: int, lo: int,
                  hi: int) -> np.ndarray:
    """Sizes uniform on [lo, hi]; one graph has ``hi`` nodes, fixing n_max."""
    sizes = rng.integers(lo, hi + 1, size=count)
    sizes[rng.integers(count)] = hi
    return sizes


def skewed_sizes(rng: np.random.Generator, count: int, median: int,
                 n_max: int) -> np.ndarray:
    """Log-normal sizes with a heavy tail, clipped to [6, n_max]."""
    sizes = np.exp(rng.normal(np.log(median), 1.0, size=count))
    sizes = np.clip(np.round(sizes), 6, n_max).astype(np.int64)
    sizes[rng.integers(count)] = n_max
    return sizes


def materialize(graphs, directory: Path, name: str, features: FeatureConfig,
                n_max: int):
    """Write graphs as TU files and load them back into a featured dataset."""
    gladcf.write_tu_dataset(graphs, directory / name, name)
    loaded = gladcf.load_tu_dataset(directory / name, name=name)
    return gladcf.build_features(loaded, features, name=name, n_max=n_max)


# -- output checks ------------------------------------------------------------


def report_problems(report, dataset, config: ExperimentConfig) -> list[str]:
    """Checks on one CV report: schema, scores, balance and quality."""
    problems = []
    try:
        gladcf.validate_report(report.to_dict())
    except Exception as exc:  # the check reports any failure as a problem
        problems.append(f"validate_report: {exc}")
    scores = np.array([row["score"] for row in report.scores])
    if not np.isfinite(scores).all():
        problems.append("non-finite scores")
    elif scores.min() < 0.0 or scores.max() > 1.0:
        problems.append("scores outside [0, 1]")
    if sorted(row["graph_id"] for row in report.scores) != list(
            range(len(dataset))):
        problems.append("report does not score every graph exactly once")
    labels = np.array([g.label for g in dataset.graphs])
    splits = gladcf.stratified_kfold(dataset, config.folds, config.seed)
    for fold, (train_idx, _) in enumerate(splits):
        abnormal = int(labels[train_idx].sum())
        gap = len(train_idx) - 2 * abnormal
        if report.generated_per_fold[fold] != abs(gap):
            problems.append(f"fold {fold} training split is not balanced")
    if not report.mean_auc >= AUC_FLOOR:
        problems.append(f"mean AUC {report.mean_auc:.3f} below {AUC_FLOOR}")
    return problems


def graph_epochs(report, dataset, config: ExperimentConfig) -> float:
    """Graphs the detector trained on, summed over folds and epochs."""
    splits = gladcf.stratified_kfold(dataset, config.folds, config.seed)
    graphs = sum(len(train) + generated for (train, _), generated
                 in zip(splits, report.generated_per_fold))
    return float(graphs * config.epochs)


# -- workloads ----------------------------------------------------------------


@dataclass
class Outcome:
    """What one timed call produced, reduced to what the checks need."""

    digest: list[float]
    items: float
    quality: float | None = None
    problems: list[str] = field(default_factory=list)


class CvBzr:
    """``run_cv`` with checkpoints, then every fold's checkpoint reloaded to
    re-score its test graphs: ``gladcf train`` followed by ``gladcf eval``."""

    name = "cv_bzr"
    items_name = "graph_epochs"
    full = {"count": 405, "anomalous": 86, "lo": 15, "hi": 57, "folds": 2,
            "epochs": 2, "cf_epochs": 1}
    tiny = {"count": 40, "anomalous": 9, "lo": 15, "hi": 25, "folds": 2,
            "epochs": 2, "cf_epochs": 2}

    def setup(self, seed: int, workdir: Path, size: dict) -> dict:
        rng = np.random.default_rng(seed)
        sizes = uniform_sizes(rng, size["count"], size["lo"], size["hi"])
        graphs = labelled_graphs(rng, sizes, size["anomalous"])
        dataset = materialize(graphs, workdir / "data", "synth_bzr",
                              FeatureConfig(FeatureMode.IDENTITY), size["hi"])
        config = ExperimentConfig(dataset="synth_bzr", seed=seed,
                                  folds=size["folds"], epochs=size["epochs"],
                                  cf_epochs=size["cf_epochs"],
                                  parallel_folds=1)
        return {"dataset": dataset, "config": config,
                "run_dir": workdir / "run"}

    def run(self, state: dict):
        dataset, config = state["dataset"], state["config"]
        report = gladcf.run_cv(config, dataset,
                               checkpoint_dir=state["run_dir"])
        splits = gladcf.stratified_kfold(dataset, config.folds, config.seed)
        rescored = {}
        for fold, (_, test_idx) in enumerate(splits):
            params, _ = gladcf.load_checkpoint(
                state["run_dir"] / f"fold{fold}" / "detector.npz")
            scores = gladcf.predict_scores(
                params, [dataset[i] for i in test_idx],
                chunk_size=config.chunk_size)
            rescored.update({(fold, int(i)): float(score)
                             for i, score in zip(test_idx, scores)})
        return report, rescored

    def outcome(self, state: dict, output) -> Outcome:
        report, rescored = output
        dataset, config = state["dataset"], state["config"]
        problems = report_problems(report, dataset, config)
        # the check `gladcf eval` makes: checkpoints reproduce the report
        gap = max(abs(rescored[(row["fold"], row["graph_id"])] - row["score"])
                  for row in report.scores)
        if not gap <= 1e-9:
            problems.append(f"checkpoints re-score {gap:.3g} off the report")
        return Outcome(digest=[row["score"] for row in report.scores],
                       items=graph_epochs(report, dataset, config),
                       quality=report.mean_auc, problems=problems)


class AugmentSkewed:
    """``augment_training_set`` plus the TU export, as ``gladcf augment``."""

    name = "augment_skewed"
    items_name = "seed_epochs"
    full = {"count": 400, "anomalous": 40, "median": 17, "n_max": 150,
            "cf_epochs": 2}
    tiny = {"count": 40, "anomalous": 4, "median": 10, "n_max": 30,
            "cf_epochs": 2}

    def setup(self, seed: int, workdir: Path, size: dict) -> dict:
        rng = np.random.default_rng(seed)
        sizes = skewed_sizes(rng, size["count"], size["median"],
                             size["n_max"])
        graphs = labelled_graphs(rng, sizes, size["anomalous"])
        dataset = materialize(graphs, workdir / "data", "synth_skewed",
                              FeatureConfig(FeatureMode.DEGREE_BINNING),
                              size["n_max"])
        config = ExperimentConfig(dataset="synth_skewed", seed=seed,
                                  feature_mode="degree_binning",
                                  cf_epochs=size["cf_epochs"])
        return {"dataset": dataset, "config": config,
                "out_dir": workdir / "generated"}

    def run(self, state: dict):
        dataset, config = state["dataset"], state["config"]
        result = gladcf.augment_training_set(
            list(dataset.graphs), dataset.n_max, config.augment_config(),
            fold_rng(config.seed, 0, 1))
        gladcf.write_tu_dataset(result.generated, state["out_dir"],
                                "synth_skewed_generated")
        return result

    def outcome(self, state: dict, result) -> Outcome:
        dataset, config = state["dataset"], state["config"]
        problems = []
        labels = np.array([g.label for g in dataset.graphs])
        normal, abnormal = int((labels == 0).sum()), int(labels.sum())
        if len(result.generated) != abs(normal - abnormal):
            problems.append("augmented training set is not balanced")
        digest = []
        for index, graph in zip(result.seed_indices, result.generated):
            seed_graph = dataset.graphs[index]
            adjacency = graph.adjacency
            if not (np.isin(adjacency, (0.0, 1.0)).all()
                    and np.array_equal(adjacency, adjacency.T)
                    and not np.diagonal(adjacency).any()):
                problems.append("generated adjacency is not binary, "
                                "symmetric and hollow")
            kept = graph.node_features != 0
            if (graph.num_nodes != seed_graph.num_nodes
                    or graph.label != result.minority_label
                    or graph.provenance is not Provenance.GENERATED
                    or not np.array_equal(graph.node_features[kept],
                                          seed_graph.node_features[kept])):
                problems.append("generated graph does not match its seed")
            digest += [float(adjacency.sum()) / 2.0, float(kept.sum())]
        exported = gladcf.load_tu_dataset(state["out_dir"],
                                          name="synth_skewed_generated")
        if len(exported) != len(result.generated) or any(
                not np.array_equal(a.adjacency, b.adjacency)
                for a, b in zip(exported, result.generated)):
            problems.append("exported TU dataset does not round-trip")
        seeds = float(len(result.seed_indices) * config.cf_epochs)
        return Outcome(digest=digest, items=seeds, problems=problems)


WORKLOADS = {w.name: w for w in (CvBzr(), AugmentSkewed())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
