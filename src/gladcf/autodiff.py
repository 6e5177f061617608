"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the graph models actually need live here: broadcasted
elementwise arithmetic, (batched) matmul, a few activations, reductions, and
two gather-style ops. Everything is float64. ``backward()`` runs an iterative
topological sweep, so deep tapes cannot hit the recursion limit. A node whose
inputs all have ``requires_grad=False`` records no tape entry at all, which
makes "no grad" evaluation free.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum-reduce ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array plus an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # Make numpy defer to the reflected operators below instead of trying to
    # broadcast a Tensor elementwise into an object array.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autograd plumbing ----------------------------------------------------

    def _accumulate(self, grad: Array) -> None:
        """Add one gradient contribution, never writing into a gradient.

        The first contribution is stored as it arrives, without a copy. It
        may be a read-only broadcast view, or the very array a sibling node
        holds (``add`` hands ``g`` to both operands), so every later one
        rebinds ``self.grad`` to a new sum instead of adding in place.
        """
        self.grad = grad if self.grad is None else self.grad + grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded tape."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        # Iterative post-order DFS: children land in `topo` before parents, so
        # the reversed list visits every node after all of its consumers.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, _as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("divide by a plain scalar, not a Tensor")
        return mul(self, _as_tensor(1.0 / float(other)))


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: Array, parents: Sequence[Tensor], backward) -> Tensor:
    """Create a result tensor, recording a tape entry only if needed."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


# -- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _node(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's stacked-matrix broadcasting rules.

    A shared right operand ``(k, m)`` is applied to all leading axes of ``a``
    at once: one flat ``(rows, k) @ (k, m)`` GEMM forward, and one
    ``a₂ᵀ @ g₂`` weight gradient instead of a per-matrix stack summed away.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
    if b.ndim == 2:
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[1:])

        def backward(g: Array) -> None:
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(a2.T @ g2)

        return _node(data, (a, b), backward)

    data = a.data @ b.data

    def backward(g: Array) -> None:
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.shape))

    return _node(data, (a, b), backward)


# -- elementwise nonlinearities -----------------------------------------------


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    x = t.data
    # Stable in both tails: exp only ever sees a non-positive argument.
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def backward(g: Array) -> None:
        t._accumulate(g * out * (1.0 - out))

    return _node(out, (t,), backward)


def relu(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.maximum(t.data, 0.0)

    def backward(g: Array) -> None:
        t._accumulate(g * (t.data > 0))

    return _node(data, (t,), backward)


def log(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.log(t.data)

    def backward(g: Array) -> None:
        t._accumulate(g / t.data)

    return _node(data, (t,), backward)


def sqrt(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.sqrt(t.data)

    def backward(g: Array) -> None:
        # Guarded so an exact zero does not poison the tape with inf.
        t._accumulate(g * 0.5 / np.maximum(data, 1e-300))

    return _node(data, (t,), backward)


def absolute(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.abs(t.data)

    def backward(g: Array) -> None:
        t._accumulate(g * np.sign(t.data))

    return _node(data, (t,), backward)


def power(t: Tensor, exponent: float) -> Tensor:
    """Elementwise ``t ** exponent`` for a plain-float exponent."""
    t = _as_tensor(t)
    data = t.data ** exponent

    def backward(g: Array) -> None:
        t._accumulate(g * exponent * t.data ** (exponent - 1.0))

    return _node(data, (t,), backward)


def clamp(t: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the input lies inside."""
    t = _as_tensor(t)
    data = np.clip(t.data, lo, hi)

    def backward(g: Array) -> None:
        t._accumulate(g * ((t.data >= lo) & (t.data <= hi)))

    return _node(data, (t,), backward)


def safe_nonzero(t: Tensor) -> Tensor:
    """Replace non-positive entries with 1; gradient passes where input > 0.

    Used on degree vectors so padded (zero-degree) rows normalize as degree 1
    without a divide-by-zero.
    """
    t = _as_tensor(t)
    positive = t.data > 0
    data = np.where(positive, t.data, 1.0)

    def backward(g: Array) -> None:
        t._accumulate(g * positive)

    return _node(data, (t,), backward)


# -- reductions and shape ops -------------------------------------------------


def tsum(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    data = t.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: Array) -> None:
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g = np.expand_dims(g, axes)
        t._accumulate(np.broadcast_to(g, t.shape))

    return _node(data, (t,), backward)


def mean(t: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    t = _as_tensor(t)
    if axis is None:
        count = t.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([t.shape[a] for a in axes]))
    return tsum(t, axis=axis, keepdims=keepdims) * (1.0 / count)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    t = _as_tensor(t)
    data = t.data.reshape(shape)
    original = t.shape

    def backward(g: Array) -> None:
        t._accumulate(g.reshape(original))

    return _node(data, (t,), backward)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two tensors along their last axis."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = np.concatenate([a.data, b.data], axis=-1)
    split = a.shape[-1]

    def backward(g: Array) -> None:
        if a.requires_grad:
            a._accumulate(g[..., :split])
        if b.requires_grad:
            b._accumulate(g[..., split:])

    return _node(data, (a, b), backward)


def softmax_last(t: Tensor) -> Tensor:
    """Softmax along the last axis (shift-stabilized)."""
    t = _as_tensor(t)
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g: Array) -> None:
        dot = (g * out).sum(axis=-1, keepdims=True)
        t._accumulate(out * (g - dot))

    return _node(out, (t,), backward)


def take_nodes(t: Tensor, order: Array) -> Tensor:
    """Reorder the node axis (axis 1) of a (B, n, F) tensor per batch element.

    ``order`` must hold a permutation of ``range(n)`` in each row; the backward
    pass scatters gradients through the inverse permutation.
    """
    t = _as_tensor(t)
    if t.ndim != 3 or order.ndim != 2:
        raise ValueError("take_nodes expects a (B, n, F) tensor and (B, n) order")
    idx = order[:, :, None]
    data = np.take_along_axis(t.data, idx, axis=1)
    batch_index = np.arange(order.shape[0])[:, None]

    def backward(g: Array) -> None:
        scattered = np.zeros_like(t.data)
        scattered[batch_index, order] = g  # permutation rows: no collisions
        t._accumulate(scattered)

    return _node(data, (t,), backward)


def add_diagonal(t: Tensor, diag: Array) -> Tensor:
    """Add a constant per-row diagonal to a (..., n, n) tensor.

    ``diag`` broadcasts against the leading axes; entries are plain numbers
    (no gradient flows into them), which is all adjacency self-loop masking
    needs.
    """
    t = _as_tensor(t)
    n = t.shape[-1]
    data = t.data.copy()
    idx = np.arange(n)
    data[..., idx, idx] += diag

    def backward(g: Array) -> None:
        t._accumulate(g)

    return _node(data, (t,), backward)
