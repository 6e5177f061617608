"""Tests for the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gladcf  # noqa: E402
import gladcf.autodiff as ad  # noqa: E402
from instrument import instrument, layer_metrics  # noqa: E402
from spans import Tracer, tail_percentile  # noqa: E402
from workloads import WORKLOADS, fresh_dir  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("middle")
    clock.now = 3.0
    tracer.enter("inner")
    clock.now = 6.0
    tracer.exit()            # inner: 3 s
    clock.now = 7.0
    tracer.exit()            # middle: 6 s, of which 3 s is inner
    clock.now = 10.0
    tracer.exit()            # outer: 10 s, of which 6 s is middle

    assert tracer.total("outer") == 10.0
    assert tracer.self_time("outer") == 4.0
    assert tracer.total("middle") == 6.0
    assert tracer.self_time("middle") == 3.0
    assert tracer.self_time("inner") == 3.0
    # self times add up to the outermost span's duration
    assert tracer.self_time_sum() == 10.0


def test_self_times_of_repeated_siblings_accumulate():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        for step in range(3):
            with tracer.span("op"):
                clock.now += 2.0
            clock.now += 1.0
    assert tracer.calls("op") == 3
    assert tracer.total("op") == 6.0
    assert tracer.self_time("root") == 3.0
    assert tracer.self_time_sum() == tracer.total("root") == 9.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer(FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    assert tracer.calls("failing") == 1
    assert not tracer.inside("failing")


@pytest.mark.parametrize("n, expected", [
    (10, (None, None)),          # no percentile leaves ten samples beyond it
    (11, (9, 1.0)),              # only the minimum has ten beyond it
    (20, (50, 10.0)),            # median: ranks 11..20 lie beyond it
    (100, (90, 90.0)),           # p90: ranks 91..100 lie beyond it
    (1000, (99, 990.0)),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # n..1, unsorted input
    assert tail_percentile(samples) == expected


def test_layer_metrics_report_sample_count_and_tail():
    tracer = Tracer(FakeClock())
    for i in range(30):
        tracer.sample("detector.epoch_s", float(i + 1))
    metrics = layer_metrics(tracer, calls=1)
    assert metrics["detector.epoch_s.n"] == 30.0
    assert metrics["detector.epoch_s.p50"] == 15.5
    assert metrics["detector.epoch_s.tail_pct"] == 66.0
    assert metrics["detector.epoch_s.tail"] == 20.0


def test_instrument_classifies_matmuls_and_restores_the_package():
    original = ad.matmul
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert ad.matmul is not original
        assert gladcf.autodiff.matmul is ad.matmul
        batched = ad.Tensor(np.ones((4, 3, 5)), requires_grad=True)
        weight = ad.Tensor(np.ones((5, 2)), requires_grad=True)
        loss = ad.tsum(ad.matmul(batched, weight))
        loss.backward()
    finally:
        restore()
    assert ad.matmul is original
    assert tracer.calls("autodiff.matmul.batched_shared.fwd") == 1
    assert tracer.calls("autodiff.matmul.batched_shared.bwd") == 1
    assert tracer.calls("autodiff.backward") == 1
    # forward 2·(4·3·2)·5 flops, and the same again per gradient taken
    assert tracer.counters["autodiff.matmul.flop"] == 240.0 * 3
    np.testing.assert_array_equal(weight.grad, np.full((5, 2), 12.0))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_workload_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.setup(7, fresh_dir(tmp_path / "a"), workload.tiny)
    second = workload.setup(7, fresh_dir(tmp_path / "b"), workload.tiny)
    other = workload.setup(8, fresh_dir(tmp_path / "c"), workload.tiny)

    def arrays(state):
        return [(g.adjacency, g.node_features, g.label)
                for g in state["dataset"].graphs]

    for (a1, f1, y1), (a2, f2, y2) in zip(arrays(first), arrays(second)):
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(f1, f2)
        assert y1 == y2
    assert len(arrays(first)) == len(arrays(second))
    assert any(a1.shape != a3.shape or not np.array_equal(a1, a3)
               for (a1, _, _), (a3, _, _) in zip(arrays(first), arrays(other)))
