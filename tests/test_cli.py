"""End-to-end command-line tests: every subcommand runs against a small
on-disk TU dataset; exit codes, artifacts, and option precedence are all
checked through the public entry point."""

import dataclasses
import json
import logging
import shutil

import numpy as np
import pytest

from gladcf.cli import (_CONFIG_FIELDS, RUNTIME_ERROR, build_config,
                        build_parser, main)
from gladcf.errors import ConfigError
from gladcf.experiment import ExperimentConfig, load_report
from gladcf.graphs import Provenance, make_graph
from gladcf.tu import load_tu_dataset, write_tu_dataset
from util import rewrite_checkpoint, ring_adjacency


def clique(n):
    return np.ones((n, n)) - np.eye(n)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A 12-vs-4 rings/cliques dataset written in TU format."""
    root = tmp_path_factory.mktemp("data")
    rng = np.random.default_rng(5)
    graphs = []
    for _ in range(12):
        n = int(rng.integers(4, 7))
        graphs.append(make_graph(ring_adjacency(n), np.zeros((n, 0)), 0,
                                 Provenance.ORIGINAL_NORMAL))
    for _ in range(4):
        n = int(rng.integers(4, 7))
        graphs.append(make_graph(clique(n), np.zeros((n, 0)), 1,
                                 Provenance.ORIGINAL_ABNORMAL))
    write_tu_dataset(graphs, root / "TOY", "TOY")
    return root


def base_args(data_dir):
    return ["--dataset", "TOY", "--data-dir", str(data_dir),
            "--feature-mode", "identity", "--folds", "3", "--seed", "0",
            "--beta", "1.2", "--lr", "0.02", "--epochs", "6",
            "--cf-lr", "0.05", "--cf-epochs", "4",
            "--hidden1", "8", "--hidden2", "6", "--reduce-dim", "8",
            "--chunk-size", "16"]


def assert_eval_verifies(run_dir, data_dir, capsys):
    capsys.readouterr()
    rc = main(["eval", "--run-dir", str(run_dir), "--data-dir", str(data_dir)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


@pytest.fixture(scope="module")
def trained_run(data_dir, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("runs")
    rc = main(["train"] + base_args(data_dir) + ["--out-dir", str(out_dir)])
    assert rc == 0
    run_dirs = [p for p in (out_dir / "TOY").iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    return run_dirs[0]


# -- exit codes and parsing ------------------------------------------------------


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train", "--no-such-flag"]) == 1
    assert main(["train", "--folds", "not_a_number"]) == 1


def test_missing_dataset_is_usage_like_runtime_error():
    # parses fine but cannot build a config
    assert main(["ingest"]) == 2


def test_runtime_errors_exit_2(tmp_path):
    assert main(["ingest", "--dataset", "NOPE",
                 "--data-dir", str(tmp_path)]) == 2


def test_non_ascii_byte_is_a_named_runtime_error(data_dir, tmp_path, capsys,
                                                 caplog):
    shutil.copytree(data_dir / "TOY", tmp_path / "TOY")
    edges = tmp_path / "TOY" / "TOY_A.txt"
    edges.write_bytes(edges.read_bytes().replace(b"\n", b"\xe9\n", 1))
    caplog.set_level(logging.INFO, logger="gladcf")
    rc = main(["ingest", "--dataset", "TOY", "--data-dir", str(tmp_path)])
    assert rc == RUNTIME_ERROR
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage() for r in errors] == [
        f"{edges}:1: expected ASCII text, got byte 0xe9"]
    assert all(r.exc_info is None for r in errors)
    assert "Traceback" not in capsys.readouterr().err


def test_negative_augment_count_is_a_named_runtime_error(data_dir, tmp_path,
                                                        capsys, caplog):
    caplog.set_level(logging.INFO, logger="gladcf")
    rc = main(["augment"] + base_args(data_dir) +
              ["--out-dir", str(tmp_path), "--count", "-1"])
    assert rc == RUNTIME_ERROR
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage() for r in errors] == [
        "count must be non-negative, got -1"]
    assert all(r.exc_info is None for r in errors)
    assert "Traceback" not in capsys.readouterr().err


def test_empty_augment_export_is_a_named_runtime_error(data_dir, tmp_path,
                                                       capsys, caplog):
    # zero generated graphs would make a TU export that cannot be loaded
    caplog.set_level(logging.INFO, logger="gladcf")
    rc = main(["augment"] + base_args(data_dir) +
              ["--out-dir", str(tmp_path), "--count", "0"])
    assert rc == RUNTIME_ERROR
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage() for r in errors] == [
        "cannot write a TU dataset with no graphs"]
    assert all(r.exc_info is None for r in errors)
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.txt"))


def test_negative_seed_is_a_named_runtime_error(data_dir, tmp_path, capsys,
                                               caplog):
    caplog.set_level(logging.INFO, logger="gladcf")
    args = base_args(data_dir)
    args[args.index("--seed") + 1] = "-1"
    rc = main(["train"] + args + ["--out-dir", str(tmp_path)])
    assert rc == RUNTIME_ERROR
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert [r.getMessage() for r in errors] == [
        "seed must be non-negative, got -1"]
    assert all(r.exc_info is None for r in errors)
    assert "Traceback" not in capsys.readouterr().err


def test_version_and_help_exit_0(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_config_file_merges_under_flags(tmp_path, data_dir):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "# comment line\n"
        "dataset=TOY\n"
        "beta=0.5\n"
        "folds=4\n"
        f"data_dir={data_dir}\n")
    parser = build_parser()
    args = parser.parse_args(["ingest", "--config", str(config_path)])
    config = build_config(args)
    assert config.dataset == "TOY"
    assert config.beta == 0.5
    assert config.folds == 4
    # explicit flags beat the file
    args = parser.parse_args(["ingest", "--config", str(config_path),
                              "--beta", "0.9"])
    assert build_config(args).beta == 0.9


def test_config_flags_are_exactly_the_config_fields():
    # build_config passes every merged option straight to ExperimentConfig
    assert set(_CONFIG_FIELDS) == {
        f.name for f in dataclasses.fields(ExperimentConfig)}


def test_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dataset=TOY\nnot a pair\n")
    parser = build_parser()
    args = parser.parse_args(["ingest", "--config", str(bad)])
    with pytest.raises(ConfigError, match="bad.cfg:2"):
        build_config(args)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("dataset=TOY\nwat=1\n")
    args = parser.parse_args(["ingest", "--config", str(unknown)])
    with pytest.raises(ConfigError, match="unknown option"):
        build_config(args)


def test_env_var_supplies_data_dir(data_dir, monkeypatch, capsys):
    monkeypatch.setenv("GLADCF_DATA_DIR", str(data_dir))
    assert main(["ingest", "--dataset", "TOY"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["graphs"] == 16


# -- subcommands -----------------------------------------------------------------


def test_ingest_prints_stats(data_dir, capsys):
    assert main(["ingest"] + base_args(data_dir)) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["dataset"] == "TOY"
    assert stats["graphs"] == 16
    assert stats["normal"] == 12
    assert stats["abnormal"] == 4
    assert stats["feature_mode"] == "identity"
    assert stats["feature_dim"] == stats["n_max"]


def test_train_writes_run_artifacts(trained_run):
    assert (trained_run / "report.json").is_file()
    assert (trained_run / "scores.csv").is_file()
    for fold in range(3):
        assert (trained_run / f"fold{fold}" / "detector.npz").is_file()
    report = load_report(trained_run / "report.json")
    assert len(report.fold_aucs) == 3
    assert len(report.scores) == 16
    assert all(count > 0 for count in report.generated_per_fold)


def test_train_stdout_summary(data_dir, tmp_path, capsys):
    rc = main(["train"] + base_args(data_dir) +
              ["--out-dir", str(tmp_path), "--epochs", "2", "--cf-epochs", "2"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["dataset"] == "TOY"
    assert len(summary["fold_aucs"]) == 3
    assert summary["run_dir"].startswith(str(tmp_path))


def test_eval_verifies_trained_run(trained_run, data_dir, capsys):
    rc = main(["eval", "--run-dir", str(trained_run),
               "--data-dir", str(data_dir)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["verified"] is True
    assert result["max_auc_difference"] <= 1e-9
    assert result["max_score_difference"] <= 1e-9


def test_eval_detects_tampered_checkpoint(trained_run, data_dir, tmp_path,
                                          capsys):
    import shutil
    copy = tmp_path / "run"
    shutil.copytree(trained_run, copy)
    # swap two folds' weights: stored scores no longer match
    (copy / "fold0" / "detector.npz").unlink()
    shutil.copy(copy / "fold1" / "detector.npz",
                copy / "fold0" / "detector.npz")
    rc = main(["eval", "--run-dir", str(copy), "--data-dir", str(data_dir)])
    capsys.readouterr()
    assert rc == 2


def eval_errors(run_dir, data_dir, capsys, caplog) -> list[str]:
    """Run ``eval`` on ``run_dir``, which must fail without a traceback;
    returns its error lines."""
    caplog.set_level(logging.INFO, logger="gladcf")
    caplog.clear()
    rc = main(["eval", "--run-dir", str(run_dir), "--data-dir", str(data_dir)])
    assert rc == RUNTIME_ERROR
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert all(r.exc_info is None for r in errors)
    assert "Traceback" not in capsys.readouterr().err
    return [r.getMessage() for r in errors]


def assert_eval_rejects(tampered, message, run_dir, data_dir, copy, capsys,
                        caplog):
    """Run ``eval`` on a copy of ``run_dir`` whose report is ``tampered``;
    it must fail with exactly ``message`` as one error line."""
    shutil.copytree(run_dir, copy)
    (copy / "report.json").write_text(json.dumps(tampered), "utf-8")
    assert eval_errors(copy, data_dir, capsys, caplog) == [message]


def test_eval_names_what_a_tampered_report_lacks(trained_run, data_dir,
                                                tmp_path, capsys, caplog):
    payload = json.loads((trained_run / "report.json").read_text("utf-8"))
    dropped = payload["scores"][-1]
    cases = [
        (dict(payload, scores=payload["scores"][:-1]),
         f"report has no score for fold {dropped['fold']}, "
         f"graph {dropped['graph_id']}"),
        (dict(payload, fold_aucs=payload["fold_aucs"][:-1]),
         "report has 2 fold AUCs for 3 folds"),
    ]
    for case, (tampered, message) in enumerate(cases):
        assert_eval_rejects(tampered, message, trained_run, data_dir,
                            tmp_path / f"run{case}", capsys, caplog)


def _extra_fold_auc(payload):
    return (dict(payload, fold_aucs=payload["fold_aucs"] + [0.123]),
            "report has 4 fold AUCs for 3 folds")


def _extra_score_row(payload):
    row = dict(payload["scores"][0], fold=7, graph_id=999)
    return (dict(payload, scores=payload["scores"] + [row]),
            "report has a score for fold 7, graph 999, which no test split "
            "holds")


def _repeated_score_row(payload):
    rows = payload["scores"]
    return (dict(payload, scores=rows + rows[:1]),
            f"report has {len(rows) + 1} score rows for {len(rows)} test "
            "graphs")


def _summary_mismatch(name, recompute):
    def tamper(payload):
        value = abs(payload[name] - 0.01)
        return (dict(payload, **{name: value}),
                f"report {name} {value!r} does not match its fold AUCs "
                f"({float(recompute(payload['fold_aucs']))!r})")
    return tamper


@pytest.mark.parametrize("tamper", [
    _extra_fold_auc, _extra_score_row, _repeated_score_row,
    _summary_mismatch("mean_auc", np.mean),
    _summary_mismatch("std_auc", np.std),
], ids=["extra_fold_auc", "extra_score_row", "repeated_score_row",
        "mean_auc_mismatch", "std_auc_mismatch"])
def test_eval_rejects_what_a_tampered_report_adds(tamper, trained_run,
                                                 data_dir, tmp_path, capsys,
                                                 caplog):
    payload = json.loads((trained_run / "report.json").read_text("utf-8"))
    tampered, message = tamper(payload)
    assert_eval_rejects(tampered, message, trained_run, data_dir,
                        tmp_path / "run", capsys, caplog)


def test_eval_rejects_a_malformed_report(trained_run, data_dir, tmp_path,
                                         capsys, caplog):
    payload = json.loads((trained_run / "report.json").read_text("utf-8"))
    rows = payload["scores"]
    config = payload["config"]
    cases = [
        (dict(payload, note="hand-edited"), "report has unknown field 'note'"),
        (dict(payload, scores={"0": rows[0]}),
         "report.scores must be of type array"),
        (dict(payload, scores=rows[:1] + [0.5] + rows[2:]),
         "report.scores[1] must be of type object"),
        (dict(payload, config=[]), "report.config must be of type object"),
        (dict(payload, scores=[dict(rows[0], score="0.5")] + rows[1:]),
         "report.scores[0].score must be of type number"),
        (dict(payload, config=dict(config, seed="0")),
         "report config 'seed' must be of type int, got '0'"),
        (dict(payload, config=dict(config, folds=3.0)),
         "report config 'folds' must be of type int, got 3.0"),
        (dict(payload, config=dict(config, sigma=None)),
         "report config 'sigma' must be of type float, got None"),
        (dict(payload, config={k: v for k, v in config.items()
                               if k != "dataset"}),
         "report config has no 'dataset'"),
    ]
    for case, (tampered, message) in enumerate(cases):
        assert_eval_rejects(tampered, message, trained_run, data_dir,
                            tmp_path / f"run{case}", capsys, caplog)


def test_eval_reads_an_integer_float_and_a_null_default(trained_run,
                                                         data_dir, tmp_path,
                                                         capsys):
    # JSON does not tell 1 from 1.0, and `beta`'s default is None
    copy = tmp_path / "run"
    shutil.copytree(trained_run, copy)
    payload = json.loads((copy / "report.json").read_text("utf-8"))
    payload["config"].update(cf_lr=1, beta=None)
    (copy / "report.json").write_text(json.dumps(payload), "utf-8")
    assert_eval_verifies(copy, data_dir, capsys)


@pytest.mark.parametrize("edit,message", [
    (lambda arrays, meta: meta["config"].update(threshold=0.5),
     "checkpoint config must hold exactly"),
    (lambda arrays, meta: arrays.pop("head_bias"),
     "checkpoint array 'head_bias': shape None in the file, (1,) for its "
     "config"),
    (lambda arrays, meta: arrays.update(head_weight=arrays["head_weight"].T),
     "checkpoint array 'head_weight': shape (1, 8) in the file, (8, 1) for "
     "its config"),
    (lambda arrays, meta: meta["config"].update(hidden1="8"),
     "checkpoint config 'hidden1' must be of type int, got '8'"),
    (lambda arrays, meta: meta["config"].update(use_feature_branch="no"),
     "checkpoint config 'use_feature_branch' must be of type bool, got 'no'"),
], ids=["unknown_config_key", "missing_array", "misshapen_array",
        "string_width", "string_switch"])
def test_eval_rejects_a_malformed_checkpoint(edit, message, trained_run,
                                             data_dir, tmp_path, capsys,
                                             caplog):
    copy = tmp_path / "run"
    shutil.copytree(trained_run, copy)
    rewrite_checkpoint(copy / "fold1" / "detector.npz", edit)
    errors = eval_errors(copy, data_dir, capsys, caplog)
    assert len(errors) == 1 and errors[0].startswith(message), errors


def test_augment_exports_generated_dataset(data_dir, tmp_path, capsys):
    rc = main(["augment"] + base_args(data_dir) + ["--out-dir", str(tmp_path)])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["generated"] == 8  # 12 normal vs 4 abnormal
    out = tmp_path / "TOY" / "generated"
    graphs = load_tu_dataset(out, name="TOY_generated")
    assert len(graphs) == 8
    assert all(g.label == 1 for g in graphs)
    manifest = json.loads((out / "TOY_generated_manifest.json").read_text())
    assert manifest["source_dataset"] == "TOY"
    assert manifest["count"] == 8
    assert manifest["minority_label"] == 1
    assert len(manifest["loss_trace"]) == 4


def test_ablate_single_variant(data_dir, tmp_path, capsys):
    rc = main(["ablate"] + base_args(data_dir) +
              ["--out-dir", str(tmp_path), "--variant", "no_awlm",
               "--epochs", "2", "--cf-epochs", "2"])
    assert rc == 0
    summary = (tmp_path / "TOY" / "ablation_summary.csv").read_text().splitlines()
    assert summary[0] == "variant,mean_auc,std_auc"
    assert [line.split(",")[0] for line in summary[1:]] == ["full", "no_awlm"]
    result = json.loads(capsys.readouterr().out)
    assert {r["variant"] for r in result["results"]} == {"full", "no_awlm"}
    # every variant left a full run directory that eval can verify
    run_dirs = [p for p in (tmp_path / "TOY").iterdir() if p.is_dir()]
    assert len(run_dirs) == 2
    for run_dir in run_dirs:
        assert (run_dir / "scores.csv").is_file()
        assert_eval_verifies(run_dir, data_dir, capsys)


def test_sweep_beta_subcommand(data_dir, tmp_path, capsys):
    rc = main(["sweep-beta"] + base_args(data_dir) +
              ["--out-dir", str(tmp_path), "--beta-values", "0.5,1.0",
               "--epochs", "2", "--cf-epochs", "2"])
    assert rc == 0
    summary = (tmp_path / "TOY" / "sweep_summary.csv").read_text().splitlines()
    assert summary[0] == "beta,mean_auc,std_auc"
    assert len(summary) == 3
    result = json.loads(capsys.readouterr().out)
    assert [r["beta"] for r in result["results"]] == [0.5, 1.0]
    # each beta left a full run directory behind, under its own hash
    run_dirs = [p for p in (tmp_path / "TOY").iterdir() if p.is_dir()]
    assert len(run_dirs) == 2
    reports = {}
    for run_dir in run_dirs:
        report = load_report(run_dir / "report.json")
        assert report.config_hash == run_dir.name
        reports[report.config["beta"]] = report
        assert (run_dir / "scores.csv").is_file()
        assert_eval_verifies(run_dir, data_dir, capsys)
    assert sorted(reports) == [0.5, 1.0]
    for line in summary[1:]:
        beta, mean_auc, std_auc = line.split(",")
        assert float(mean_auc) == reports[float(beta)].mean_auc
        assert float(std_auc) == reports[float(beta)].std_auc


def test_sweep_beta_rejects_bad_value_before_training(data_dir, tmp_path,
                                                      capsys, caplog):
    caplog.set_level(logging.INFO, logger="gladcf")
    rc = main(["sweep-beta"] + base_args(data_dir) +
              ["--out-dir", str(tmp_path), "--beta-values", "0.6,-1"])
    capsys.readouterr()
    assert rc == 2
    assert not any("fold CV" in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "TOY").exists()


def test_plot_scores_writes_histogram(trained_run, capsys):
    rc = main(["plot-scores", "--run-dir", str(trained_run), "--bins", "10"])
    assert rc == 0
    lines = (trained_run / "score_histogram.csv").read_text().splitlines()
    assert lines[0] == "bin_index,bin_lo,bin_hi,normal_count,abnormal_count"
    assert len(lines) == 11
    total = sum(int(line.split(",")[3]) + int(line.split(",")[4])
                for line in lines[1:])
    assert total == 16
    capsys.readouterr()


def test_plot_scores_render(trained_run, capsys):
    pytest.importorskip("matplotlib")
    rc = main(["plot-scores", "--run-dir", str(trained_run), "--render"])
    assert rc == 0
    assert (trained_run / "score_histogram.png").stat().st_size > 0
    capsys.readouterr()
