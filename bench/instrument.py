"""Spans around gladcf's public functions, installed from outside the package.

``instrument(tracer)`` swaps module attributes of the loaded ``gladcf``
modules for timing wrappers and returns a function that puts the originals
back. A function imported by name into several modules (``pad_batch`` lives
in ``graphs``, ``detector`` and ``augment``) is replaced everywhere it is
bound, so every caller goes through the wrapper. Each tensor an autodiff op
returns gets its ``_backward`` closure wrapped too, which times the backward
pass per op class.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import numpy as np
from gladcf import autodiff as ad
from gladcf import detector, graphs, tu
from gladcf.optim import Adam

from spans import Tracer, tail_percentile

# module attribute -> span name, timed inclusively
LAYER_SPANS = {
    ("detector", "detector_scores"): "detector.detector_scores",
    ("detector", "predict_scores"): "detector.predict_scores",
    ("detector", "load_checkpoint"): "detector.load_checkpoint",
    ("augment", "augment_training_set"): "augment.augment_training_set",
    ("augment", "train_perturbations"): "augment.train_perturbations",
    ("augment", "counterfactual_loss"): "augment.counterfactual_loss",
    ("augment", "generate_samples"): "augment.generate_samples",
    ("gcn", "normalize_adjacency"): "gcn.normalize_adjacency",
    ("gcn", "gcn_layer"): "gcn.gcn_layer",
    ("gcn", "masked_mean_pool"): "gcn.masked_mean_pool",
    ("graphs", "stratified_kfold"): "graphs.stratified_kfold",
    ("tu", "load_tu_dataset"): "tu.load_tu_dataset",
    ("tu", "build_features"): "tu.build_features",
    ("experiment", "run_cv"): "experiment.run_cv",
    ("experiment", "compute_auc"): "experiment.compute_auc",
}

# autodiff op -> op class; matmul is split further by operand ranks
OP_CLASSES = {
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "sigmoid": "elementwise", "relu": "elementwise", "log": "elementwise",
    "sqrt": "elementwise", "absolute": "elementwise", "power": "elementwise",
    "clamp": "elementwise", "safe_nonzero": "elementwise",
    "reshape": "elementwise", "concat_last": "elementwise",
    "add_diagonal": "elementwise",
    "tsum": "reduce", "softmax_last": "reduce",
    "take_nodes": "take_nodes",
    "matmul": "matmul",
}

MATMUL_CLASSES = {(3, 2): "batched_shared", (3, 3): "batched_batched",
                  (2, 3): "shared_batched", (2, 2): "single"}


def _owner(tracer: Tracer) -> str | None:
    """Which model a call serves, from the spans open around it."""
    if tracer.inside("augment."):
        return "augment"
    if tracer.inside("detector."):
        return "detector"
    return None


class _Patcher:
    def __init__(self):
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == "gladcf" or name.startswith("gladcf.")]
        self.undo: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        """Rebind every module attribute that holds ``original``."""
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self.undo.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for target, attr, original in reversed(self.undo):
            setattr(target, attr, original)
        self.undo.clear()


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _timed_backward(tracer: Tracer, name: str, backward, flop: float,
                    operands=(), shape_key: str | None = None):
    def wrapper(grad):
        tracer.enter(name)
        try:
            backward(grad)
        finally:
            duration = tracer.exit()
        if flop:
            needed = sum(1 for t in operands if t.requires_grad)
            tracer.count("autodiff.matmul.flop", flop * needed)
        if shape_key:
            tracer.count(f"{name}_s{shape_key}", duration)
    return wrapper


def _op(tracer: Tracer, op_name: str, fn, tensor_type):
    family = OP_CLASSES[op_name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        flop = 0.0
        operands = ()
        label = family
        if op_name == "matmul":
            ranks = tuple(min(np.ndim(getattr(x, "data", x)), 3)
                          for x in args[:2])
            label = "matmul." + MATMUL_CLASSES.get(ranks, "single")
            operands = tuple(x for x in args[:2]
                             if isinstance(x, tensor_type))
        tracer.enter(f"autodiff.{label}.fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        tracer.count("autodiff.nodes")
        shape_key = None
        if op_name == "matmul":
            inner = np.shape(getattr(args[0], "data", args[0]))[-1]
            flop = 2.0 * out.data.size * inner
            tracer.count("autodiff.matmul.flop", flop)
            if label == "matmul.batched_shared":
                # time per weight shape, e.g. [256x128] for the second GCN
                # layer's H @ W; kept in the run record only
                shape_key = f"[{inner}x{out.shape[-1]}]"
                tracer.count(f"autodiff.{label}.fwd_s{shape_key}", duration)
        if out._backward is not None:
            out._backward = _timed_backward(
                tracer, f"autodiff.{label}.bwd", out._backward, flop,
                operands, shape_key)
        return out
    return wrapper


def _pad_batch(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(graphs, n_max):
        owner = _owner(tracer)
        if owner is not None:
            tracer.count(f"{owner}.real_cells",
                         float(sum(g.num_nodes ** 2 for g in graphs)))
            tracer.count(f"{owner}.padded_cells",
                         float(len(graphs) * n_max * n_max))
        tracer.enter("graphs.pad_batch")
        try:
            return fn(graphs, n_max)
        finally:
            tracer.exit()
    return wrapper


def _write_tu(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(graphs, directory, name):
        tracer.enter("tu.write_tu_dataset")
        try:
            fn(graphs, directory, name)
        finally:
            tracer.exit()
        for suffix in ("A", "graph_indicator", "graph_labels"):
            path = Path(directory) / f"{name}_{suffix}.txt"
            tracer.count("tu.bytes_written", float(path.stat().st_size))
    return wrapper


def _train_detector(tracer: Tracer, fn, marks: dict):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter("detector.train_detector")
        marks["epoch"] = tracer.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            marks.pop("epoch", None)
            tracer.exit()
    return wrapper


def _adam_step(tracer: Tracer, fn, marks: dict):
    @functools.wraps(fn)
    def wrapper(self):
        tracer.enter("optim.Adam.step")
        try:
            fn(self)
        finally:
            tracer.exit()
        # a detector epoch ends with its one optimizer step
        if "epoch" in marks and _owner(tracer) == "detector":
            now = tracer.clock()
            tracer.sample("detector.epoch_s", now - marks["epoch"])
            marks["epoch"] = now
    return wrapper


def _tensor_backward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        tracer.enter(f"{_owner(tracer) or 'autodiff'}.backward")
        try:
            fn(self)
        finally:
            tracer.exit()
    return wrapper


def instrument(tracer: Tracer):
    """Wrap gladcf's layer boundaries with spans; returns the undo function."""
    patcher = _Patcher()
    modules = {m.__name__.rpartition(".")[2]: m for m in patcher.modules}
    marks: dict = {}  # when the current detector epoch began
    try:
        for (module, attr), name in LAYER_SPANS.items():
            original = getattr(modules[module], attr)
            patcher.replace(original, _spanned(tracer, name, original))
        for op_name in OP_CLASSES:
            original = getattr(ad, op_name)
            patcher.replace(original,
                            _op(tracer, op_name, original, ad.Tensor))
        patcher.replace(detector.train_detector, _train_detector(
            tracer, detector.train_detector, marks))
        patcher.replace_method(Adam, "step",
                               _adam_step(tracer, Adam.step, marks))
        patcher.replace(graphs.pad_batch,
                        _pad_batch(tracer, graphs.pad_batch))
        patcher.replace(tu.write_tu_dataset,
                        _write_tu(tracer, tu.write_tu_dataset))
        patcher.replace_method(ad.Tensor, "backward",
                               _tensor_backward(tracer, ad.Tensor.backward))
    except BaseException:
        patcher.restore()
        raise
    return patcher.restore


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, float]:
    """Per-layer figures per main call, from the spans of ``calls`` calls."""
    per = 1.0 / calls

    def span_s(name: str) -> float:
        return tracer.total(name) * per

    out: dict[str, float] = {}
    matmul_s = 0.0
    for label in ("matmul.batched_shared", "matmul.batched_batched",
                  "matmul.shared_batched", "matmul.single", "elementwise",
                  "reduce", "take_nodes"):
        for direction in ("fwd", "bwd"):
            value = span_s(f"autodiff.{label}.{direction}")
            out[f"autodiff.{label}.{direction}_s"] = value
            if label.startswith("matmul."):
                matmul_s += value
    flop = tracer.counters.get("autodiff.matmul.flop", 0.0) * per
    out["autodiff.matmul.flop"] = flop
    out["autodiff.matmul.gflops"] = flop / matmul_s / 1e9 if matmul_s else 0.0
    out["autodiff.nodes"] = tracer.counters.get("autodiff.nodes", 0.0) * per

    for name in ("detector.train_detector", "detector.detector_scores",
                 "detector.backward", "detector.predict_scores",
                 "detector.load_checkpoint", "augment.augment_training_set",
                 "augment.train_perturbations", "augment.counterfactual_loss",
                 "augment.backward", "augment.generate_samples",
                 "gcn.normalize_adjacency", "gcn.gcn_layer",
                 "gcn.masked_mean_pool", "graphs.pad_batch",
                 "graphs.stratified_kfold", "tu.load_tu_dataset",
                 "tu.build_features", "tu.write_tu_dataset",
                 "experiment.compute_auc", "optim.Adam.step"):
        out[f"{name}.s"] = span_s(name)
    out["experiment.run_cv.s"] = tracer.self_time("experiment.run_cv") * per
    out["optim.Adam.step.calls"] = tracer.calls("optim.Adam.step") * per
    out["augment.augment_training_set.calls"] = (
        tracer.calls("augment.augment_training_set") * per)
    out["tu.bytes_written"] = (
        tracer.counters.get("tu.bytes_written", 0.0) * per)

    for owner in ("detector", "augment"):
        padded = tracer.counters.get(f"{owner}.padded_cells", 0.0)
        real = tracer.counters.get(f"{owner}.real_cells", 0.0)
        out[f"{owner}.pad_efficiency"] = real / padded if padded else 0.0
    out["augment.padded_cells"] = (
        tracer.counters.get("augment.padded_cells", 0.0) * per)

    # 0 stands in where too few epochs leave no percentile to report
    epochs = tracer.samples.get("detector.epoch_s", [])
    pct, tail = tail_percentile(epochs)
    out["detector.epoch_s.n"] = float(len(epochs))
    out["detector.epoch_s.p50"] = float(np.median(epochs)) if epochs else 0.0
    out["detector.epoch_s.tail_pct"] = float(pct or 0)
    out["detector.epoch_s.tail"] = tail or 0.0
    return out
