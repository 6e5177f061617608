"""Shared helpers for the test suite: finite differences, a traced-memory
peak, graph builders and a checkpoint rewriter."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np

from gladcf.autodiff import Tensor
from gladcf.graphs import Graph, Provenance, make_graph


def central_difference(loss_fn, tensors, step=1e-5):
    """Numerical gradient of ``loss_fn()`` w.r.t. each tensor, elementwise.

    ``loss_fn`` must return a plain float and read the tensors' ``.data`` in
    place; entries are perturbed one at a time with a central difference.
    """
    grads = []
    for t in tensors:
        grad = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up = loss_fn()
            flat[i] = original - step
            down = loss_fn()
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(grad)
    return grads


def max_rel_err(analytic, numeric, floor=1e-6):
    """Largest elementwise relative error, floored so near-zeros compare sanely."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def assert_grads_close(loss_builder, params, tol=1e-4, step=1e-5):
    """Check autodiff gradients of ``loss_builder()`` (a scalar Tensor) by FD."""
    for p in params:
        p.zero_grad()
    loss = loss_builder()
    loss.backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    numeric = central_difference(lambda: float(loss_builder().data),
                                 params, step=step)
    for a, n in zip(analytic, numeric):
        assert max_rel_err(a, n) < tol, f"gradient mismatch: {max_rel_err(a, n)}"


def traced_peak(call):
    """``call()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True)


# -- graph builders --------------------------------------------------------


def ring_adjacency(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
        a[(i + 1) % n, i] = 1.0
    return a


def path_adjacency(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = 1.0
        a[i + 1, i] = 1.0
    return a


def random_adjacency(rng: np.random.Generator, n: int, p: float = 0.4) -> np.ndarray:
    upper = rng.random((n, n)) < p
    a = np.triu(upper, k=1).astype(float)
    return a + a.T


def random_graph(rng, n, h, label=0,
                 provenance=Provenance.ORIGINAL_NORMAL, p=0.4) -> Graph:
    adj = random_adjacency(rng, n, p)
    feats = rng.random((n, h))
    return make_graph(adj, feats, label, provenance)


def connected_random_graph(rng, n, h, label=0,
                           provenance=Provenance.ORIGINAL_NORMAL,
                           p=0.3) -> Graph:
    """Ring backbone plus random chords: every node has degree >= 2.

    Finite-difference gradient checks need inputs in generic position; an
    isolated node puts a pre-ReLU activation exactly on the kink (zero
    propagated input plus zero-initialized bias), where central differences
    and the subgradient legitimately disagree.
    """
    adj = np.maximum(ring_adjacency(n), random_adjacency(rng, n, p))
    feats = rng.random((n, h))
    return make_graph(adj, feats, label, provenance)


def write_tu(directory, name, graph_edges, graph_sizes, labels):
    """Write raw TU files from per-graph edge lists (1-indexed local ids)."""
    directory.mkdir(parents=True, exist_ok=True)
    offsets = np.cumsum([0] + list(graph_sizes))
    with open(directory / f"{name}_A.txt", "w") as fh:
        for gid, edges in enumerate(graph_edges):
            for u, v in edges:
                fh.write(f"{offsets[gid] + u}, {offsets[gid] + v}\n")
    with open(directory / f"{name}_graph_indicator.txt", "w") as fh:
        for gid, size in enumerate(graph_sizes, start=1):
            for _ in range(size):
                fh.write(f"{gid}\n")
    with open(directory / f"{name}_graph_labels.txt", "w") as fh:
        for label in labels:
            fh.write(f"{label}\n")


def rewrite_checkpoint(path, edit):
    """Re-save the checkpoint archive at ``path`` after ``edit(arrays, meta)``
    has changed its arrays or its decoded meta blob in place."""
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta_json"]).decode())
    edit(arrays, meta)
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
