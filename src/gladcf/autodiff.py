"""Minimal reverse-mode automatic differentiation over numpy arrays.

Only the operations the graph models actually need live here: broadcasted
elementwise arithmetic, matmul with numpy's stacked broadcasting (one path
for every rank), a few activations, whole-tensor and per-axis sums, a
scalar mean, two gather-style ops and a block slice. Two ops are whole
pooled GCN hidden layers on constant graph terms, with the weight and bias
as their only tape parents: one is a single tape node that streams the
chunk in cache-sized blocks of whole graphs, each one flat GEMM, then the
bias, ReLU and mean pool, and keeps only a one-byte ReLU mask per unit for
the backward pass; its values are bit-equal to the unfused chain and its
gradients are sums of block partials. It needs no padding mask because the
pool weighs padded nodes 0. The other sums the activation over sorted
scalars in closed form. One more is the augmenter's squared sum of a
sigmoid rewrite over the rows a chunk cuts off. The sigmoid selects its
numerator without a data-dependent branch. Everything is float64.
``backward()`` runs an iterative topological sweep, so deep tapes cannot
hit the recursion limit. A node whose inputs all have
``requires_grad=False`` records no tape entry at all, which makes "no grad"
evaluation free.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

Array = np.ndarray

# Rows of one pooled_bias_relu block: 512 rows of h = 256 float64 units are
# 1 MB, so a block's activations stay inside a 2 MB per-core L2 cache.
ROWS = 512


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

    An operand broadcast across the other's leading axes gets its gradient
    summed back over them.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must be at least 2-D")
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


def _sigmoid_over(x: Array) -> Array:
    """``σ(x)`` written over ``x``, which is returned.

    Stable in both tails: exp only ever sees ``−|x|``, so ``e = exp(−|x|)``
    lies in ``(0, 1]`` (or underflows to 0) and ``max(e, x ≥ 0)`` is 1 where
    ``x ≥ 0`` and ``e`` elsewhere, NaN included. The numerator needs no
    data-dependent select, and the values are bit for bit those of
    ``np.where(x >= 0, 1.0, e) / (1.0 + e)``.
    """
    positive = x >= 0
    e = np.exp(np.negative(np.abs(x, out=x), out=x), out=x)
    denominator = 1.0 + e
    np.maximum(e, positive, out=e)
    e /= denominator
    return e


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out = _sigmoid_over(t.data.copy())

    def backward(g: Array) -> None:
        t._accumulate(g * out * (1.0 - out))

    return _node(out, (t,), backward)


def sigmoid_square_sums(logits: Tensor, adjacency: Array) -> Tensor:
    """``Σ σ(L·A_b)²`` over each graph's rows and columns, ``(B,)``.

    ``logits`` is an ``(r, w)`` tensor and ``adjacency`` a constant
    ``(B, w, w)`` stack; the tape's one parent is ``logits``. The forward
    pass makes one ``(B, r, w)`` buffer, ``L @ A``, and takes the sigmoid
    in place. The backward pass forms ``(g·s + g·s)·s·(1 − s)`` in that
    buffer's shape, in that float order, and makes one product with ``Aᵀ``
    summed over the stack. These are the
    float operations of the unfused chain ``matmul``, ``sigmoid``, ``mul``
    (of the result with itself) and ``tsum`` over the last two axes, so the
    value is bit-identical to it. ``r = 0`` gives zeros.
    """
    logits = _as_tensor(logits)
    s = _sigmoid_over(logits.data @ adjacency)
    data = (s * s).sum(axis=(-2, -1))

    def backward(g: Array) -> None:
        grad = g.reshape(-1, 1, 1) * s
        grad += grad
        grad *= s
        grad *= 1.0 - s
        logits._accumulate(
            (grad @ np.swapaxes(adjacency, -1, -2)).sum(axis=0))

    return _node(data, (logits,), backward)


def relu(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    data = np.maximum(t.data, 0.0)

    def backward(g: Array) -> None:
        t._accumulate(g * (t.data > 0))

    return _node(data, (t,), backward)


def pooled_bias_relu(t: Array, weight: Tensor, bias: Tensor,
                     pool: Array) -> Tensor:
    """``pool · relu(t·W + b)`` as one node, ``(B, h)``.

    ``t`` is a constant ``(B, n, k)`` array, ``weight`` ``(k, h)``, ``bias``
    ``(h,)`` and ``pool`` a constant ``(B, 1, n)`` array; the tape's parents
    are ``weight`` and ``bias``. The chunk is streamed in blocks of
    ``max(1, ROWS // n)`` whole graphs. Per block, the forward pass is one
    flat ``(rows, k) @ (k, h)`` GEMM into one block buffer, reused from
    block to block, which takes the bias and the ReLU in place, then one
    batched product with the block's ``pool`` rows. GEMM rows are
    independent and the pool is per graph, so the values are bit-identical
    to the unfused chain ``matmul`` (of ``t`` flattened to ``(B·n, k)``),
    ``+ bias``, ``relu``, ``pool @``, whatever the block size. When a tape
    entry is made, the forward pass also keeps the ReLU's ``> 0`` test as
    one ``(B, n, h)`` bool array, one byte per unit, and no float
    activation outlives its block. The backward pass walks the same blocks,
    forms ``pᵀ ⊙ g ⊙ (hidden > 0)`` per block, and adds its bias sum and
    its ``t_blockᵀ @ grad`` to one ``(h,)`` and one ``(k, h)`` sum, so the
    gradients are sums of block partials and match the unfused chain's up
    to rounding. A node whose ``t`` row and ``pool`` weight are 0, as at a
    padded node, adds exactly 0 to the value and to both gradients.
    """
    weight, bias = _as_tensor(weight), _as_tensor(bias)
    b, n, k = t.shape
    h = weight.shape[1]
    step = max(1, ROWS // max(n, 1))
    blocks = [slice(lo, min(lo + step, b)) for lo in range(0, b, step)]
    taped = weight.requires_grad or bias.requires_grad
    active = np.empty((b, n, h), dtype=bool) if taped else None
    out = np.empty((b, 1, h))
    hidden = np.empty((min(step, b), n, h))  # one block, reused
    for rows in blocks:
        block = hidden[:rows.stop - rows.start]
        np.matmul(t[rows].reshape(-1, k), weight.data,
                  out=block.reshape(-1, h))
        block += bias.data
        np.maximum(block, 0.0, out=block)
        if taped:
            np.greater(block, 0.0, out=active[rows])
        np.matmul(pool[rows], block, out=out[rows])

    def backward(g: Array) -> None:
        g = g.reshape(b, 1, h)
        grad_b, grad_w = np.zeros(h), np.zeros((k, h))
        grad = np.empty((min(step, b), n, h))  # one block, reused
        for rows in blocks:
            block = np.multiply(np.swapaxes(pool[rows], -1, -2), g[rows],
                                out=grad[:rows.stop - rows.start])
            block *= active[rows]
            if bias.requires_grad:
                grad_b += block.sum(axis=(0, 1))
            if weight.requires_grad:
                grad_w += t[rows].reshape(-1, k).T @ block.reshape(-1, h)
        if bias.requires_grad:
            bias._accumulate(grad_b)
        if weight.requires_grad:
            weight._accumulate(grad_w)

    return _node(out.reshape(b, h), (weight, bias), backward)


class RampSums(NamedTuple):
    """Per-row scalars in ascending order, with prefix sums of their weights.

    ``weights[:, k]`` and ``moments[:, k]`` sum ``q`` and ``q·s`` over the
    first ``k`` sorted entries of each row, so column 0 is zero and the last
    column is the row total. ``values`` repeats each row's last entry up to
    ``2^j − 1`` columns, so a bisection over it needs no bounds check.
    """

    values: Array   # (B, 2^j − 1) for n entries, 2^j > n; rows ascending
    weights: Array  # (B, n + 1)
    moments: Array  # (B, n + 1)


def ramp_sums(values: Array, weights: Array) -> RampSums:
    """Sort each row of ``values`` (B, n) and sum ``weights`` along it."""
    order = np.argsort(values, axis=-1, kind="stable")
    s = np.take_along_axis(values, order, axis=-1)
    q = np.take_along_axis(weights, order, axis=-1)
    n = s.shape[-1]
    zero = np.zeros((s.shape[0], 1))
    return RampSums(
        values=np.pad(s, ((0, 0), (0, (1 << n.bit_length()) - 1 - n)),
                      mode="edge"),
        weights=np.concatenate([zero, np.cumsum(q, axis=-1)], axis=-1),
        moments=np.concatenate([zero, np.cumsum(q * s, axis=-1)], axis=-1))


def ramp_relu_sum(weight: Tensor, bias: Tensor, sums: RampSums) -> Tensor:
    """``Σᵢ qᵢ·relu(sᵢ·w_j + b_j)`` per row and unit ``j``, ``(B, h)``.

    ``weight`` holds the ``h`` slopes (``(1, h)`` or ``(h,)``), ``bias`` the
    ``h`` offsets, ``sums`` the rows' sorted ``s`` and prefix sums of ``q``
    and ``q·s`` (``ramp_sums``). The predicate ``s·w_j + b_j > 0`` is the
    one ``pooled_bias_relu`` evaluates on a one-column input, in the
    same float operations, and it is monotone in ``s``: its true entries
    are a suffix of the sorted row for ``w_j ≥ 0`` and a prefix for
    ``w_j < 0``. A bisection over the sorted row finds that boundary for
    every row and unit at once, and the unit is ``w_j·S₁ + b_j·S₀``, with
    ``S₀`` and ``S₁`` the sums of ``q`` and ``q·s`` over the active side.
    Those two sums are also the gradients of ``w_j`` and ``b_j``; ``s`` and
    ``q`` are constants.
    """
    weight, bias = _as_tensor(weight), _as_tensor(bias)
    w = weight.data.reshape(1, -1)
    b = bias.data.reshape(1, -1)
    rows, width = sums.values.shape
    falling = w < 0
    # k counts the leading sorted entries whose predicate equals w_j < 0:
    # the inactive ones of a rising unit, the active ones of a falling one
    flat = sums.values.ravel()
    before_row = (np.arange(rows) * width - 1)[:, None]
    k = np.zeros((rows, w.shape[1]), dtype=np.intp)
    step = (width + 1) >> 1
    while step:
        s = flat.take(k + (before_row + step))  # entry k + step − 1
        k += step * ((s * w + b > 0) == falling)
        step >>= 1
    np.minimum(k, sums.weights.shape[1] - 1, out=k)
    below_w = np.take_along_axis(sums.weights, k, axis=-1)
    below_m = np.take_along_axis(sums.moments, k, axis=-1)
    s0 = np.where(falling, below_w, sums.weights[:, -1:] - below_w)
    s1 = np.where(falling, below_m, sums.moments[:, -1:] - below_m)
    data = s1 * w + s0 * b

    def backward(g: Array) -> None:
        if weight.requires_grad:
            weight._accumulate((g * s1).sum(axis=0).reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate((g * s0).sum(axis=0).reshape(bias.shape))

    return _node(data, (weight, bias), backward)


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


def tsum(t: Tensor, axis=None) -> Tensor:
    t = _as_tensor(t)
    data = t.data.sum(axis=axis)

    def backward(g: Array) -> None:
        if axis is not None:
            g = np.expand_dims(g, axis)
        t._accumulate(np.broadcast_to(g, t.shape))

    return _node(data, (t,), backward)


def mean(t: Tensor) -> Tensor:
    """The mean of every entry, a scalar."""
    t = _as_tensor(t)
    return tsum(t) * (1.0 / t.data.size)


def reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    t = _as_tensor(t)
    data = t.data.reshape(shape)
    original = t.shape

    def backward(g: Array) -> None:
        t._accumulate(g.reshape(original))

    return _node(data, (t,), backward)


def block(t: Tensor, rows: int, cols: int, first_row: int = 0) -> Tensor:
    """A ``rows × cols`` block of the last two axes (a view): the rows from
    ``first_row`` on and the leading columns.

    The backward pass zero-fills the cropped-off rows and columns.
    """
    t = _as_tensor(t)
    kept = slice(first_row, first_row + rows)
    data = t.data[..., kept, :cols]

    def backward(g: Array) -> None:
        full = np.zeros(t.shape)
        full[..., kept, :cols] = g
        t._accumulate(full)

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
