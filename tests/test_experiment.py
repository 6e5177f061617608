"""Protocol tests: the rank metric against exhaustive pair counting,
cross-validation integrity, determinism (serial and parallel), report and
CSV artifacts, the beta grid, and histograms."""

import copy
import functools
import json
import logging
import os
import re
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from unittest import mock

import numpy as np
import pytest

from gladcf import experiment
from gladcf.errors import ConfigError, MetricError
from gladcf.experiment import (DEFAULT_BETA_SWEEP, REPORT_SCHEMA,
                               EvalReport, ExperimentConfig, compute_auc,
                               config_hash, export_score_histogram, fold_rng,
                               load_dataset, load_report, run_cv,
                               validate_report, write_csv, write_report,
                               write_scores_csv)
from gladcf.graphs import Provenance, make_graph
from gladcf.tu import (FeatureConfig, FeatureMode, build_features,
                       write_tu_dataset)
from util import ring_adjacency

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def brute_force_auc(scores, labels):
    """Exhaustive pairwise comparison; ties between classes count one half."""
    scores = np.asarray(scores, dtype=np.float64)
    abnormal = scores[np.asarray(labels) == 1]
    normal = scores[np.asarray(labels) == 0]
    total = 0.0
    for a in abnormal:
        for b in normal:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(abnormal) * len(normal))


def clique_adjacency(n):
    adjacency = np.ones((n, n)) - np.eye(n)
    return adjacency


def separable_dataset(n_normal=18, n_abnormal=6, seed=0, sizes=(4, 7)):
    """``separable_graphs`` with identity features."""
    return build_features(
        separable_graphs(n_normal, n_abnormal, seed, sizes),
        FeatureConfig(mode=FeatureMode.IDENTITY), name="synthetic")


def separable_graphs(n_normal=18, n_abnormal=6, seed=0, sizes=(4, 7)):
    """Rings labeled 0, cliques labeled 1, with node counts drawn from
    ``range(*sizes)``, without node features."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(n_normal):
        n = int(rng.integers(*sizes))
        adjacency = ring_adjacency(n)
        graphs.append(make_graph(adjacency, np.zeros((n, 0)), 0,
                                 Provenance.ORIGINAL_NORMAL))
    for _ in range(n_abnormal):
        n = int(rng.integers(*sizes))
        adjacency = clique_adjacency(n)
        graphs.append(make_graph(adjacency, np.zeros((n, 0)), 1,
                                 Provenance.ORIGINAL_ABNORMAL))
    return graphs


def fast_config(**overrides):
    defaults = dict(dataset="synthetic", folds=3, seed=0, beta=1.2, lr=0.02,
                    epochs=40, cf_lr=0.05, cf_epochs=5, hidden1=8, hidden2=6,
                    reduce_dim=8, chunk_size=16)
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# -- the metric ----------------------------------------------------------------


def test_auc_matches_brute_force_exactly():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(4, 21))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 1
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = rng.integers(0, 6, size=n) / 5.0
        assert compute_auc(scores, labels) == brute_force_auc(scores, labels)


def test_auc_extremes():
    labels = np.array([0, 0, 1, 1])
    assert compute_auc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 1.0
    assert compute_auc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 0.0
    assert compute_auc(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5


def test_auc_rejects_single_class():
    with pytest.raises(MetricError):
        compute_auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(MetricError):
        compute_auc(np.array([0.1, 0.2]), np.array([0, 0]))


# -- configuration -------------------------------------------------------------


def test_beta_and_lr_dataset_defaults():
    assert ExperimentConfig(dataset="BZR").resolved_beta() == 0.6
    assert ExperimentConfig(dataset="dhfr").resolved_beta() == 1.4
    assert ExperimentConfig(dataset="COX2").resolved_beta() == 1.2
    assert ExperimentConfig(dataset="BZR", beta=2.0).resolved_beta() == 2.0
    assert ExperimentConfig(dataset="AIDS").resolved_lr() == 0.0001
    assert ExperimentConfig(dataset="nci1").resolved_lr() == 0.0001
    assert ExperimentConfig(dataset="BZR").resolved_lr() == 0.001
    assert ExperimentConfig(dataset="AIDS", lr=0.01).resolved_lr() == 0.01


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="X", variant="no_such_thing")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="X", feature_mode="one_hot")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset="X", folds=1)
    # every model field is checked when the config is built, before any fold
    for field, value in (("threshold", 1.5), ("threshold", 1.0),
                         ("threshold", 0.0), ("hidden1", 0), ("epochs", 0),
                         ("lr", -1.0), ("cf_epochs", 0), ("cf_lr", 0.0),
                         ("chunk_size", 0), ("beta", -1.0), ("sigma", 1.5),
                         ("tau", 0.0), ("lr", float("nan")),
                         ("lr", float("inf")), ("beta", float("nan")),
                         ("beta", float("inf")), ("cf_lr", float("nan")),
                         ("cf_lr", float("inf")), ("seed", -1),
                         ("num_bins", 0)):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="X", **{field: value})


def test_variant_shapes_detector_and_loss():
    base = fast_config()
    assert base.detector_config().use_feature_branch
    assert not fast_config(variant="no_gcn_x").detector_config().use_feature_branch
    assert not fast_config(variant="no_gcn_d").detector_config().use_degree_branch
    assert not fast_config(variant="no_awlm").detector_config().use_adaptive_weighting
    assert not fast_config(variant="no_loss_nor").train_config().include_normal_term
    assert not fast_config(variant="no_loss_abn").train_config().include_abnormal_term


def test_config_hash_tracks_results_only():
    a = fast_config()
    assert config_hash(a) == config_hash(fast_config())
    assert config_hash(a) != config_hash(fast_config(beta=0.7))
    assert config_hash(a) == config_hash(fast_config(parallel_folds=4))
    assert config_hash(a) == config_hash(fast_config(data_dir="/elsewhere"))
    assert len(config_hash(a)) == 12


def test_fold_rng_streams_are_distinct_and_stable():
    draws = {}
    for fold in range(3):
        for role in (1, 2):
            draws[(fold, role)] = fold_rng(11, fold, role).random(4)
    values = list(draws.values())
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert not np.array_equal(values[i], values[j])
    assert np.array_equal(draws[(0, 1)], fold_rng(11, 0, 1).random(4))


# -- cross-validation ----------------------------------------------------------


def test_run_cv_report_integrity_and_learning():
    dataset = separable_dataset()
    report = run_cv(fast_config(), dataset)
    assert report.dataset == "synthetic"
    assert len(report.fold_aucs) == 3
    # every graph is scored exactly once, in (fold, graph_id) order
    seen = [row["graph_id"] for row in report.scores]
    assert sorted(seen) == list(range(len(dataset)))
    assert seen == [r["graph_id"] for r in
                    sorted(report.scores, key=lambda r: (r["fold"], r["graph_id"]))]
    assert all(row["provenance"] != Provenance.GENERATED.value
               for row in report.scores)
    # augmentation rebalanced every training fold of the 18 vs 6 dataset
    assert all(count > 0 for count in report.generated_per_fold)
    assert report.mean_auc == pytest.approx(np.mean(report.fold_aucs))
    assert report.std_auc == pytest.approx(np.std(report.fold_aucs))
    # rings versus cliques is easily separable
    assert report.mean_auc >= 0.9
    for row in report.scores:
        assert row["decision"] == (1 if row["score"] - 0.5 > 0 else 0)


def test_run_cv_is_deterministic():
    dataset = separable_dataset()
    first = run_cv(fast_config(), dataset)
    second = run_cv(fast_config(), dataset)
    assert first.fold_aucs == second.fold_aucs
    assert first.scores == second.scores
    assert first.config_hash == second.config_hash


def _relabelled(graphs, seed=0):
    """The same graphs, the nodes of each one put in a random order."""
    rng = np.random.default_rng(seed)
    out = []
    for g in graphs:
        order = rng.permutation(g.num_nodes)
        out.append(make_graph(g.adjacency[np.ix_(order, order)],
                              g.node_features[order], g.label, g.provenance))
    return out


# The augmenter's rewrite is tied to node index and to the n_max padding
# (ROADMAP item 2): the full model's largest score gaps here read 0.078
# (padding) and 0.23 (relabelling), against 0.0 and 6.9e-17 for no_asgm.
# The change that fixes the augmenter flips these marks.
_AUGMENTER_DEPENDS_ON_IT = pytest.mark.xfail(
    strict=True, reason="the augmenter's shared (n_max, n_max) rewrite "
    "depends on node order and padding width (ROADMAP item 2)")

# LDP features depend on neither n_max nor node order; sizes 4-20 span
# several width cuts, so chunk size 128 chunks by width alone and 3 by count.
# Measured gaps of the passing cases: 3.3e-16 for chunk size, 0.0 for
# parallel folds and for one against two BLAS threads.
_HARNESS_GRAPHS = separable_graphs(sizes=(4, 21))
_LDP = FeatureConfig(mode=FeatureMode.LDP)


def _harness_config(variant, **overrides):
    return fast_config(**{"feature_mode": "ldp", "variant": variant,
                          "chunk_size": 128, **overrides})


@functools.cache
def _untransformed_run(variant):
    return run_cv(_harness_config(variant),
                  build_features(_HARNESS_GRAPHS, _LDP, name="synthetic"))


def _spawned_run_cv(config, dataset, threads):
    """Start ``run_cv`` in a new spawned process whose BLAS runs ``threads``
    threads; the futures of its thread setting and of its report."""
    pool = ProcessPoolExecutor(1, mp_context=get_context("spawn"))
    with mock.patch.dict(os.environ, {"OPENBLAS_NUM_THREADS": str(threads),
                                      "OMP_NUM_THREADS": str(threads)}):
        # the worker process starts, and takes the environment, here
        setting = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS")
    report = pool.submit(run_cv, config, dataset)
    pool.shutdown(wait=False)
    return setting, report


def _invariance_runs(variant, transform):
    """The untransformed and the transformed CV report of one case."""
    config = _harness_config(variant)
    base = build_features(_HARNESS_GRAPHS, _LDP, name="synthetic")
    if transform == "blas_threads":
        one, two = (_spawned_run_cv(config, base, threads)
                    for threads in (1, 2))
        assert [one[0].result(), two[0].result()] == ["1", "2"]
        return one[1].result(), two[1].result()
    if transform == "padding":
        changed = run_cv(config, build_features(
            _HARNESS_GRAPHS, _LDP, name="synthetic", n_max=base.n_max + 8))
    elif transform == "relabelling":
        changed = run_cv(config, build_features(
            _relabelled(_HARNESS_GRAPHS), _LDP, name="synthetic"))
    elif transform == "chunk_size":
        changed = run_cv(_harness_config(variant, chunk_size=3), base)
    else:
        changed = run_cv(_harness_config(variant, parallel_folds=2), base)
    return _untransformed_run(variant), changed


@pytest.mark.parametrize("variant,transform", [
    ("no_asgm", "padding"), ("no_asgm", "relabelling"),
    pytest.param(None, "padding", marks=_AUGMENTER_DEPENDS_ON_IT),
    pytest.param(None, "relabelling", marks=_AUGMENTER_DEPENDS_ON_IT),
    (None, "chunk_size"), (None, "parallel_folds"), (None, "blas_threads")],
    ids=["no_asgm-padding", "no_asgm-relabelling", "full-padding",
         "full-relabelling", "full-chunk_size", "full-parallel_folds",
         "full-blas_threads"])
def test_scores_do_not_depend_on_run_layout(variant, transform):
    # one tiny run_cv under each transformation against the untransformed
    # run: scores agree to 1e-12, and serial and parallel folds exactly
    want, got = _invariance_runs(variant, transform)
    assert got.generated_per_fold == want.generated_per_fold
    assert [(r["fold"], r["graph_id"]) for r in got.scores] == \
        [(r["fold"], r["graph_id"]) for r in want.scores]
    np.testing.assert_allclose([r["score"] for r in got.scores],
                               [r["score"] for r in want.scores],
                               rtol=0, atol=1e-12)
    if transform == "parallel_folds":
        assert got.fold_aucs == want.fold_aucs
        assert got.scores == want.scores


def test_parallel_folds_start_no_more_workers_than_folds(monkeypatch):
    # a stand-in pool records its size and maps serially, so no process
    # starts however many workers are asked for
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", SerialPool)
    dataset = separable_dataset()
    serial = run_cv(fast_config(), dataset)
    wide = run_cv(fast_config(parallel_folds=64), dataset)
    assert sizes == [3]
    assert wide.fold_aucs == serial.fold_aucs
    assert wide.scores == serial.scores


def test_run_cv_logs_each_fold_phase(caplog):
    # INFO names each fold's phases with their seconds and last loss; the
    # per-epoch losses of both trainers go to DEBUG
    dataset = separable_dataset()
    config = fast_config(epochs=3, cf_epochs=2)
    with caplog.at_level(logging.DEBUG, logger="gladcf"):
        report = run_cv(config, dataset)
    info = [r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO and r.name == "gladcf.experiment"]
    for fold in range(config.folds):
        lines = [m for m in info if m.startswith(f"fold {fold}: ")]
        assert [m.split()[2] for m in lines] == [
            "augmentation", "detector", "prediction"]
        augment, train, predict = lines
        assert re.search(r"augmentation \d+\.\d{3} s, last loss -?\d", augment)
        assert f"{report.generated_per_fold[fold]} graphs generated" in augment
        assert re.search(r"training \d+\.\d{3} s, last loss -?\d", train)
        assert f"AUC {report.fold_aucs[fold]:.4f}" in predict
    debug = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG]
    assert sum(m.startswith("detector epoch ") for m in debug) == 3 * 3
    assert sum(m.startswith("augmenter epoch ") for m in debug) == 3 * 2

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="gladcf"):
        run_cv(fast_config(variant="no_asgm", epochs=2), dataset)
    assert not any("augmentation" in r.getMessage() for r in caplog.records)
    assert not any(r.levelno == logging.DEBUG for r in caplog.records)


def test_no_asgm_variant_skips_augmentation():
    dataset = separable_dataset()
    report = run_cv(fast_config(variant="no_asgm", epochs=5), dataset)
    assert report.generated_per_fold == [0, 0, 0]


def test_checkpoints_round_trip_through_eval(tmp_path):
    from gladcf.detector import load_checkpoint, predict_scores
    from gladcf.graphs import stratified_kfold

    dataset = separable_dataset()
    config = fast_config(epochs=10)
    report = run_cv(config, dataset, checkpoint_dir=tmp_path)
    for fold, (train_idx, test_idx) in enumerate(
            stratified_kfold(dataset, config.folds, config.seed)):
        params, extra = load_checkpoint(tmp_path / f"fold{fold}" / "detector.npz")
        assert extra["fold"] == fold
        scores = predict_scores(params, [dataset[i] for i in test_idx])
        labels = np.array([dataset[i].label for i in test_idx])
        assert compute_auc(scores, labels) == pytest.approx(
            report.fold_aucs[fold], abs=1e-12)
        assert extra["auc"] == pytest.approx(report.fold_aucs[fold])


# -- artifacts -----------------------------------------------------------------


def test_report_json_round_trip(tmp_path):
    dataset = separable_dataset()
    report = run_cv(fast_config(epochs=5), dataset)
    path = tmp_path / "report.json"
    write_report(report, path)
    loaded = load_report(path)
    assert loaded.to_dict() == report.to_dict()


@pytest.fixture(scope="module")
def report_payload():
    """A report as consumers see it: run_cv's, round-tripped through JSON."""
    report = run_cv(fast_config(epochs=5), separable_dataset())
    return json.loads(json.dumps(report.to_dict()))


def _second_row(edit):
    """A payload edit that applies ``edit`` to a copy of score row 1."""
    def tamper(payload):
        rows = [dict(row) for row in payload["scores"]]
        edit(rows[1])
        return dict(payload, scores=rows)
    return tamper


# case -> (payload edit, validate_report's message; None for a valid report)
REPORT_CASES = {
    "valid": (lambda p: p, None),
    # JSON has one number type: 2.0 is an integer, as it is to jsonschema
    "integral_float_count": (
        lambda p: dict(p, generated_per_fold=[2.0] + p["generated_per_fold"]),
        None),
    "not_an_object": (lambda p: [p], "report must be of type object"),
    "missing_field": (
        lambda p: {k: v for k, v in p.items() if k != "fold_aucs"},
        "report has no field 'fold_aucs'"),
    "unknown_field": (lambda p: dict(p, note="hand-edited"),
                      "report has unknown field 'note'"),
    "wrong_version": (lambda p: dict(p, format_version=99),
                      "report.format_version must be 1"),
    "bool_version": (lambda p: dict(p, format_version=True),
                     "report.format_version must be 1"),
    "numeric_dataset": (lambda p: dict(p, dataset=7),
                        "report.dataset must be of type string"),
    "list_config": (lambda p: dict(p, config=[]),
                    "report.config must be of type object"),
    "short_hash": (lambda p: dict(p, config_hash="abc"),
                   "report.config_hash must match '^[0-9a-f]{12}$'"),
    "string_fold_auc": (lambda p: dict(p, fold_aucs=["0.9"] + p["fold_aucs"]),
                        "report.fold_aucs[0] must be of type number"),
    "mean_auc_above_one": (lambda p: dict(p, mean_auc=1.5),
                           "report.mean_auc must be at most 1.0"),
    "negative_std_auc": (lambda p: dict(p, std_auc=-0.1),
                         "report.std_auc must be at least 0.0"),
    "object_scores": (lambda p: dict(p, scores={"0": p["scores"][0]}),
                      "report.scores must be of type array"),
    "number_row": (lambda p: dict(p, scores=p["scores"][:1] + [0.5]),
                   "report.scores[1] must be of type object"),
    "row_without_score": (_second_row(lambda row: row.pop("score")),
                          "report.scores[1] has no field 'score'"),
    "string_score": (_second_row(lambda row: row.update(score="0.5")),
                     "report.scores[1].score must be of type number"),
    "score_above_one": (_second_row(lambda row: row.update(score=1.5)),
                        "report.scores[1].score must be at most 1.0"),
    "negative_graph_id": (_second_row(lambda row: row.update(graph_id=-1)),
                          "report.scores[1].graph_id must be at least 0"),
    "label_two": (_second_row(lambda row: row.update(label=2)),
                  "report.scores[1].label must be one of [0, 1]"),
    "bool_decision": (_second_row(lambda row: row.update(decision=True)),
                      "report.scores[1].decision must be of type integer"),
    "null_fold_seconds": (lambda p: dict(p, fold_seconds=None),
                          "report.fold_seconds must be of type array"),
    "string_generated": (lambda p: dict(p, generated_per_fold="abc"),
                         "report.generated_per_fold must be of type array"),
    "numeric_created_at": (lambda p: dict(p, created_at=0),
                           "report.created_at must be of type string"),
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_validate_report_follows_the_schema(case, report_payload):
    tamper, message = REPORT_CASES[case]
    payload = tamper(copy.deepcopy(report_payload))
    if message is None:
        validate_report(payload)
    else:
        with pytest.raises(ConfigError) as caught:
            validate_report(payload)
        assert str(caught.value) == message
    try:
        import jsonschema
    except ImportError:
        return
    checker = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
    assert checker.is_valid(payload) is (message is None)


def _subschemas(schema):
    yield schema
    for subschema in schema.get("properties", {}).values():
        yield from _subschemas(subschema)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_report_schema_uses_only_what_the_walker_reads():
    """A keyword the walker ignores would be a constraint nobody enforces."""
    for schema in _subschemas(REPORT_SCHEMA):
        assert schema.keys() <= experiment.SCHEMA_KEYWORDS, schema
        assert schema.get("type", "object") in experiment._JSON_TYPES
        assert schema.get("additionalProperties", False) is False
        # bounds, patterns and descent need the type the walker checks first
        if schema.keys() & {"minimum", "maximum", "pattern", "required",
                            "properties", "additionalProperties", "items"}:
            assert "type" in schema, schema


def test_scores_csv_format(tmp_path):
    dataset = separable_dataset()
    report = run_cv(fast_config(epochs=5), dataset)
    path = tmp_path / "scores.csv"
    write_scores_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "graph_id,fold,label,provenance,score,decision"
    assert len(lines) == 1 + len(dataset)
    for line, row in zip(lines[1:], report.scores):
        graph_id, fold, label, provenance, score, decision = line.split(",")
        assert int(graph_id) == row["graph_id"]
        assert int(fold) == row["fold"]
        assert int(label) == row["label"]
        assert provenance == row["provenance"]
        assert float(score) == row["score"]  # repr round-trips exactly
        assert int(decision) == row["decision"]


def _report_with_scores(rows):
    return EvalReport(dataset="x", config={}, config_hash="0" * 12,
                      fold_aucs=[1.0], mean_auc=1.0, std_auc=0.0,
                      scores=rows, fold_seconds=[0.0], total_seconds=0.0,
                      generated_per_fold=[0], created_at="now")


def test_histogram_counts_and_edges(tmp_path):
    rows = [
        {"graph_id": 0, "fold": 0, "label": 0, "provenance": "original_normal",
         "score": 0.04, "decision": 0},
        {"graph_id": 1, "fold": 0, "label": 0, "provenance": "original_normal",
         "score": 0.05, "decision": 0},
        {"graph_id": 2, "fold": 0, "label": 1, "provenance": "original_abnormal",
         "score": 0.97, "decision": 1},
        {"graph_id": 3, "fold": 0, "label": 1, "provenance": "original_abnormal",
         "score": 1.0, "decision": 1},
    ]
    histogram = export_score_histogram(_report_with_scores(rows), bins=20)
    assert len(histogram) == 20
    assert histogram[0]["bin_lo"] == 0.0 and histogram[-1]["bin_hi"] == 1.0
    # 0.04 falls in bin 0, 0.05 lands on the edge of bin 1,
    # and the top edge is inclusive so 1.0 stays in the last bin
    assert histogram[0]["normal_count"] == 1
    assert histogram[1]["normal_count"] == 1
    assert histogram[19]["abnormal_count"] == 2
    total = sum(h["normal_count"] + h["abnormal_count"] for h in histogram)
    assert total == len(rows)
    path = tmp_path / "hist.csv"
    write_csv(path, list(histogram[0]), histogram)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_index,bin_lo,bin_hi,normal_count,abnormal_count"
    assert len(lines) == 21


def test_csv_writer_format(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [{"name": "full", "count": 3, "value": 1 / 3},
            {"name": "x", "count": 0, "value": 0.1}]
    write_csv(path, ["name", "count", "value"], rows)
    assert path.read_text() == ("name,count,value\n"
                                "full,3,0.3333333333333333\n"
                                "x,0,0.1\n")
    write_csv(path, ["value", "name"], rows)
    assert path.read_text() == "value,name\n0.3333333333333333,full\n0.1,x\n"


def test_histogram_conserves_real_scores():
    dataset = separable_dataset()
    report = run_cv(fast_config(epochs=5), dataset)
    histogram = export_score_histogram(report, bins=10)
    total = sum(h["normal_count"] + h["abnormal_count"] for h in histogram)
    assert total == len(report.scores)


# -- beta grid ------------------------------------------------------------------


def test_default_beta_grid():
    assert DEFAULT_BETA_SWEEP[0] == pytest.approx(0.2)
    assert DEFAULT_BETA_SWEEP[-1] == pytest.approx(2.2)
    assert len(DEFAULT_BETA_SWEEP) == 11
    steps = np.diff(DEFAULT_BETA_SWEEP)
    assert np.allclose(steps, 0.2)


# -- dataset loading ------------------------------------------------------------


def _write_toy_tu(directory):
    rng = np.random.default_rng(3)
    graphs = []
    for label in (0, 0, 0, 1, 1, 1):
        n = int(rng.integers(3, 6))
        graphs.append(make_graph(
            ring_adjacency(n), np.zeros((n, 0)), label,
            Provenance.ORIGINAL_ABNORMAL if label else Provenance.ORIGINAL_NORMAL))
    write_tu_dataset(graphs, directory, "TOY")
    return graphs


def test_load_dataset_uses_data_dir(tmp_path):
    _write_toy_tu(tmp_path / "TOY")
    config = ExperimentConfig(dataset="TOY", data_dir=str(tmp_path),
                              feature_mode="degree_binning")
    dataset = load_dataset(config)
    assert len(dataset) == 6
    assert dataset.name == "TOY"
    assert dataset.graphs[0].node_features.shape[1] == 10


def test_load_dataset_falls_back_to_env(tmp_path, monkeypatch):
    _write_toy_tu(tmp_path / "TOY")
    monkeypatch.setenv("GLADCF_DATA_DIR", str(tmp_path))
    dataset = load_dataset(ExperimentConfig(dataset="TOY"))
    assert len(dataset) == 6
    monkeypatch.delenv("GLADCF_DATA_DIR")
    with pytest.raises(ConfigError):
        load_dataset(ExperimentConfig(dataset="TOY"))
