"""The traced benchmark's spans still fit the live package.

``bench/instrument.py`` looks gladcf's functions and autodiff ops up by
name, so a renamed ``gcn.gcn_layer`` or autodiff op would otherwise break
only ``bench/run.py --trace 1``. Here both workloads' tiny cases run once
under the spans, as a traced bench call does.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import gladcf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from instrument import instrument, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, fresh_dir  # noqa: E402


def _bindings():
    return {(name, attr): value for name, module in sys.modules.items()
            if name == "gladcf" or name.startswith("gladcf.")
            for attr, value in vars(module).items()}


def test_instrument_spans_both_workloads_and_restores_the_package(tmp_path):
    states = {name: w.setup(3, fresh_dir(tmp_path / name), w.tiny)
              for name, w in WORKLOADS.items()}
    untraced = WORKLOADS["cv_bzr"].run(states["cv_bzr"])
    before = _bindings()
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        assert gladcf.gcn.gcn_layer is not before[("gladcf.gcn", "gcn_layer")]
        traced = {name: w.run(states[name]) for name, w in WORKLOADS.items()}
    finally:
        undo()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    for name, w in WORKLOADS.items():
        assert not w.outcome(states[name], traced[name]).problems
    # the spans change no score
    np.testing.assert_array_equal(
        [row["score"] for row in traced["cv_bzr"][0].scores],
        [row["score"] for row in untraced[0].scores])
    metrics = layer_metrics(tracer, calls=1)
    for span in ("gcn.gcn_layer", "gcn.normalize_adjacency",
                 "detector.detector_scores", "detector.backward",
                 "detector.predict_scores", "augment.counterfactual_loss",
                 "augment.backward", "experiment.run_cv"):
        assert tracer.calls(span) > 0, span
    assert metrics["autodiff.nodes"] > 0
    assert metrics["autodiff.matmul.flop"] > 0
    assert metrics["detector.epoch_s.n"] > 0
