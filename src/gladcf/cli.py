"""Command-line interface.

Subcommands::

    ingest       load a TU-format dataset and print summary statistics
    augment      fit counterfactual perturbations on a whole dataset and
                 export the generated graphs as a new TU-format dataset
    train        run stratified cross-validation and write a run directory
    eval         re-score the saved fold checkpoints of a run and verify
                 the stored results
    ablate       repeat training across ablation variants
    sweep-beta   repeat training across a grid of beta values
    plot-scores  export a score histogram (CSV, optionally a PNG) for a run

Options can also come from a ``key=value`` config file (``--config``);
explicit command-line flags win over the file, which wins over defaults.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .augment import augment_training_set
from .detector import load_checkpoint, predict_scores
from .errors import ConfigError, GladcfError
from .experiment import (DEFAULT_BETA_SWEEP, ROLE_AUGMENT, VARIANTS,
                         EvalReport, ExperimentConfig, compute_auc,
                         config_hash, export_score_histogram, fold_rng,
                         load_dataset, load_report, run_cv, write_csv,
                         write_report, write_scores_csv)
from .graphs import GraphDataset, stratified_kfold
from .tu import dataset_stats, write_tu_dataset

logger = logging.getLogger(__name__)

USAGE_ERROR = 1
RUNTIME_ERROR = 2

# flag name -> (python type, help text); this one table drives both the
# argparse options and the config-file parser so they cannot drift apart
_CONFIG_FIELDS: dict[str, tuple[type, str]] = {
    "dataset": (str, "dataset name (directory under the data dir)"),
    "data_dir": (str, "directory holding TU datasets "
                 "(default: $GLADCF_DATA_DIR)"),
    "feature_mode": (str, "identity | degree_binning | ldp"),
    "num_bins": (int, "bin count for degree_binning features"),
    "anomaly_label": (int, "raw label treated as anomalous"),
    "folds": (int, "number of cross-validation folds"),
    "seed": (int, "master seed; folds derive their own streams"),
    "beta": (float, "weight on the generated-anomaly loss term"),
    "lr": (float, "detector learning rate"),
    "epochs": (int, "detector training epochs"),
    "cf_lr": (float, "counterfactual generator learning rate"),
    "cf_epochs": (int, "counterfactual generator epochs"),
    "sigma": (float, "structure threshold for hard perturbations"),
    "tau": (float, "feature-mask threshold for hard perturbations"),
    "hidden1": (int, "first hidden width of each branch"),
    "hidden2": (int, "second hidden width of each branch"),
    "reduce_dim": (int, "embedding width after the linear reducer"),
    "threshold": (float, "decision threshold on scores"),
    "variant": (str, f"ablation variant: one of {', '.join(VARIANTS)}"),
    "chunk_size": (int, "graphs per padded chunk, in both models"),
    "parallel_folds": (int, "worker processes for folds (1 = serial)"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file supplying any of the options below")
    for name, (typ, help_text) in _CONFIG_FIELDS.items():
        parser.add_argument(_flag(name), dest=name, type=typ, default=None,
                            help=help_text)


def _parse_config_file(path: str) -> dict:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        typ = _CONFIG_FIELDS[key][0]
        try:
            values[key] = typ(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults < config file < explicit flags into a config."""
    merged: dict[str, object] = {}
    if getattr(args, "config", None):
        merged.update(_parse_config_file(args.config))
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            merged[name] = value
    if "dataset" not in merged:
        raise ConfigError("a dataset is required (--dataset or config file)")
    return ExperimentConfig(**merged)


def _run_dir(args: argparse.Namespace,
             config: ExperimentConfig | None = None) -> Path:
    """``--run-dir`` when given, else ``OUT/DATASET/CONFIG_HASH``; the config
    is built from the arguments only when the hash is needed."""
    if getattr(args, "run_dir", None):
        return Path(args.run_dir)
    if config is None:
        config = build_config(args)
    return Path(args.out_dir) / config.dataset / config_hash(config)


def _save_run(config: ExperimentConfig, dataset: GraphDataset,
              run_dir: Path) -> EvalReport:
    """Cross-validate with fold checkpoints, then write the run directory:
    ``foldN/detector.npz``, ``report.json`` and ``scores.csv``."""
    report = run_cv(config, dataset, checkpoint_dir=run_dir)
    write_report(report, run_dir / "report.json")
    write_scores_csv(report, run_dir / "scores.csv")
    return report


def _run_grid(args: argparse.Namespace, field: str, values,
              summary_name: str) -> int:
    """Save one run per value of a config field, then a
    ``FIELD,mean_auc,std_auc`` summary; a ``None`` value is the full model."""
    base = build_config(args)
    # every grid config is built, and so checked, before any training
    configs = [dataclasses.replace(base, **{field: value}) for value in values]
    dataset = load_dataset(base)
    rows = []
    for value, config in zip(values, configs):
        report = _save_run(config, dataset, _run_dir(args, config))
        rows.append({field: "full" if value is None else value,
                     "mean_auc": report.mean_auc, "std_auc": report.std_auc})
    summary_path = Path(args.out_dir) / base.dataset / summary_name
    write_csv(summary_path, [field, "mean_auc", "std_auc"], rows)
    print(json.dumps({"summary": str(summary_path), "results": rows},
                     sort_keys=True, indent=2))
    return 0


# -- subcommand implementations -------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = build_config(args)
    dataset = load_dataset(config)
    stats = dataset_stats(dataset.graphs)
    stats.update({
        "dataset": dataset.name,
        "feature_mode": dataset.feature_mode,
        "feature_dim": int(dataset.graphs[0].node_features.shape[1]),
        "n_max": dataset.n_max,
    })
    print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    config = build_config(args)
    dataset = load_dataset(config)
    result = augment_training_set(
        list(dataset.graphs), dataset.n_max, config.augment_config(),
        fold_rng(config.seed, 0, ROLE_AUGMENT), count=args.count)
    out_dir = Path(args.out_dir) / config.dataset / "generated"
    name = f"{config.dataset}_generated"
    write_tu_dataset(result.generated, out_dir, name)
    manifest = {
        "format_version": 1,
        "source_dataset": config.dataset,
        "seed": config.seed,
        "sigma": config.sigma,
        "tau": config.tau,
        "epochs": config.cf_epochs,
        "lr": config.cf_lr,
        "count": len(result.generated),
        "minority_label": result.minority_label,
        "loss_trace": result.loss_trace,
    }
    manifest_path = out_dir / f"{name}_manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8")
    logger.info("wrote %d generated graphs to %s", len(result.generated),
                out_dir)
    print(json.dumps({"generated": len(result.generated),
                      "minority_label": result.minority_label,
                      "out_dir": str(out_dir)}, sort_keys=True))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args)
    run_dir = _run_dir(args, config)
    report = _save_run(config, load_dataset(config), run_dir)
    print(json.dumps({
        "dataset": report.dataset,
        "config_hash": report.config_hash,
        "fold_aucs": report.fold_aucs,
        "mean_auc": report.mean_auc,
        "std_auc": report.std_auc,
        "run_dir": str(run_dir),
    }, sort_keys=True, indent=2))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    run_dir = _run_dir(args)
    report = load_report(run_dir / "report.json")
    # rebuild the exact configuration the run used; only the data location
    # may be overridden, since the data may have moved between machines
    field_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    stored = {k: v for k, v in report.config.items() if k in field_names}
    if getattr(args, "data_dir", None):
        stored["data_dir"] = args.data_dir
    config = ExperimentConfig(**stored)
    dataset = load_dataset(config)
    splits = stratified_kfold(dataset, config.folds, config.seed)
    stored_scores = {(row["fold"], row["graph_id"]): row["score"]
                     for row in report.scores}
    worst_auc_gap = 0.0
    worst_score_gap = 0.0
    for fold, (_, test_idx) in enumerate(splits):
        params, extra = load_checkpoint(run_dir / f"fold{fold}" / "detector.npz")
        scores = predict_scores(params, [dataset[i] for i in test_idx],
                                chunk_size=config.chunk_size)
        labels = np.array([dataset[i].label for i in test_idx])
        auc = compute_auc(scores, labels)
        worst_auc_gap = max(worst_auc_gap,
                            abs(auc - report.fold_aucs[fold]))
        for graph_id, score in zip(test_idx, scores):
            worst_score_gap = max(
                worst_score_gap,
                abs(float(score) - stored_scores[(fold, int(graph_id))]))
        logger.info("fold %d: stored AUC %.6f, recomputed %.6f (extra: %s)",
                    fold, report.fold_aucs[fold], auc, extra)
    verified = worst_auc_gap <= 1e-9 and worst_score_gap <= 1e-9
    print(json.dumps({
        "run_dir": str(run_dir),
        "folds": len(splits),
        "max_auc_difference": worst_auc_gap,
        "max_score_difference": worst_score_gap,
        "verified": verified,
    }, sort_keys=True, indent=2))
    if not verified:
        raise GladcfError(
            f"checkpoint verification failed: AUC gap {worst_auc_gap:.3g}, "
            f"score gap {worst_score_gap:.3g}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    variants = [None] + ([args.variant] if args.variant else list(VARIANTS))
    return _run_grid(args, "variant", variants, "ablation_summary.csv")


def _cmd_sweep_beta(args: argparse.Namespace) -> int:
    values = DEFAULT_BETA_SWEEP
    if args.beta_values:
        try:
            values = [float(v) for v in args.beta_values.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --beta-values: {exc}")
    return _run_grid(args, "beta", values, "sweep_summary.csv")


def _cmd_plot_scores(args: argparse.Namespace) -> int:
    if args.report:
        report_path = Path(args.report)
    else:
        report_path = _run_dir(args) / "report.json"
    out_base = report_path.parent
    report = load_report(report_path)
    histogram = export_score_histogram(report, bins=args.bins)
    csv_path = out_base / "score_histogram.csv"
    write_csv(csv_path, list(histogram[0]), histogram)
    rendered = None
    if args.render:
        rendered = str(out_base / "score_histogram.png")
        _render_histogram(histogram, rendered, report.dataset)
    print(json.dumps({"histogram": str(csv_path), "bins": args.bins,
                      "rendered": rendered}, sort_keys=True, indent=2))
    return 0


def _render_histogram(histogram: list[dict], path: str, title: str) -> None:
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise GladcfError(
            "matplotlib is not installed; install the 'plot' extra "
            "(pip install gladcf[plot]) or drop --render")
    lows = [row["bin_lo"] for row in histogram]
    width = histogram[0]["bin_hi"] - histogram[0]["bin_lo"]
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.bar(lows, [row["normal_count"] for row in histogram], width=width,
           align="edge", alpha=0.6, label="normal")
    ax.bar(lows, [row["abnormal_count"] for row in histogram], width=width,
           align="edge", alpha=0.6, label="abnormal")
    ax.set_xlabel("anomaly score")
    ax.set_ylabel("test graphs")
    ax.set_title(title)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)


# -- parser and entry point -----------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gladcf",
        description="Graph-level anomaly detection on imbalanced datasets "
                    "with counterfactual augmentation.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        _add_config_options(p)
        p.set_defaults(func=func)
        return p

    command("ingest", _cmd_ingest,
            "load a TU dataset and print summary statistics")

    p = command("augment", _cmd_augment,
                "export counterfactually generated graphs as a TU dataset")
    p.add_argument("--out-dir", default="runs", help="artifact root directory")
    p.add_argument("--count", type=int, default=None,
                   help="how many graphs to generate (default: the class gap)")

    p = command("train", _cmd_train,
                "run stratified cross-validation and save a run directory")
    p.add_argument("--out-dir", default="runs", help="artifact root directory")
    p.add_argument("--run-dir", default=None,
                   help="exact run directory (default: OUT/DATASET/HASH)")

    p = command("eval", _cmd_eval,
                "re-score a run's saved checkpoints and verify its report")
    p.add_argument("--out-dir", default="runs", help="artifact root directory")
    p.add_argument("--run-dir", default=None,
                   help="run directory holding report.json and fold checkpoints")

    p = command("ablate", _cmd_ablate,
                "compare the full model against ablation variants")
    p.add_argument("--out-dir", default="runs", help="artifact root directory")

    p = command("sweep-beta", _cmd_sweep_beta,
                "repeat cross-validation over a grid of beta values")
    p.add_argument("--out-dir", default="runs", help="artifact root directory")
    p.add_argument("--beta-values", default=None,
                   help="comma-separated betas (default: 0.2..2.2 step 0.2)")

    p = command("plot-scores", _cmd_plot_scores,
                "export a score histogram for a finished run")
    p.add_argument("--out-dir", default="runs", help="artifact root directory")
    p.add_argument("--run-dir", default=None,
                   help="run directory holding report.json")
    p.add_argument("--report", default=None, help="path to a report.json")
    p.add_argument("--bins", type=int, default=20, help="histogram bins")
    p.add_argument("--render", action="store_true",
                   help="also render a PNG (requires matplotlib)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems and 0 for --help
        return USAGE_ERROR if exc.code not in (0, None) else 0
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except GladcfError as exc:
        logger.error("%s", exc)
        return RUNTIME_ERROR
    except FileNotFoundError as exc:
        logger.error("%s", exc)
        return RUNTIME_ERROR
    except Exception:
        logger.exception("unexpected failure")
        return RUNTIME_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
