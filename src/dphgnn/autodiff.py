"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

Tensors hold at most two axes (plus 0-d scalars for losses). A
:class:`Tensor` holds its ``value`` and, when it requires grad, a grad
node. An op's node holds the parents' nodes and a backward closure, never
a tensor, so the tape pins only what the closures save:

- ``mul``, dense ``matmul`` and ``segment_sums``: the operands their
  gradients read (the other operand of each operand that requires grad);
  ``segment_sums`` takes one weights tensor per attention head, each a
  parent of its one node, and reads the values' column blocks in place;
- ``sigmoid`` and ``segment_softmax``: their output;
  ``cross_entropy``: the masked logits, their row maxima, labels and rows;
- ``relu``, ``leaky_relu`` and ``dropout``: a bool mask; dropout rebuilds
  its ``keep / (1 - p)`` factor in backward, and ``relu`` forms its mask
  only while recording;
- ``add``, ``sub``, ``scale``, the concats, the selects, ``transpose``,
  ``sum_all`` and sparse ``matmul``: no values, only shapes, indices or
  the constant operator.

An op output whose value no closure saves is freed as soon as the caller
drops it. ``backward`` runs a reverse topological sweep, accumulates
gradients into the leaf tensors that require them, and consumes the graph
as it goes: each op's gradient, closure and parent links are dropped once
it has run, so saved arrays die during the sweep. A second ``backward``
through a consumed op raises :class:`~dphgnn.errors.GraphConsumedError`.
Inside :func:`no_grad` ops record nothing and their outputs never require
grad. Structure matrices enter as constants, either dense or as a
:class:`~dphgnn.sparse.SparseMatrix` or
:class:`~dphgnn.sparse.FactoredOperator`, and never receive gradients.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import EmptyMaskError, GraphConsumedError, NonScalarLossError, ShapeMismatchError
from .sparse import FactoredOperator, SparseMatrix

# Pairs per slice of the segment_sums weights gradient, which holds two
# (slice x values width) arrays at a time instead of two (pairs x width) ones.
_WEIGHT_GRAD_PAIRS = 4096

__all__ = [
    "Tensor",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "concat_cols",
    "concat_rows",
    "relu",
    "leaky_relu",
    "sigmoid",
    "segment_softmax",
    "segment_sums",
    "dropout",
    "select_rows",
    "select_cols",
    "transpose",
    "sum_all",
    "cross_entropy",
    "backward",
    "grad_check",
    "no_grad",
]


class _Node:
    """Gradient slot of a tensor that requires grad.

    A leaf's node has no closure and keeps its gradient. An op's node holds
    its parents' nodes and its backward closure until ``backward`` runs it;
    then ``backward`` is set to ``_CONSUMED``.
    """

    __slots__ = ("grad", "parents", "backward")

    def __init__(self, parents: tuple[_Node, ...] = (), backward=None):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward: Callable[[np.ndarray], None] | None = backward


# Marks an op node whose closure an earlier backward ran and dropped.
_CONSUMED = object()


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: op outputs never require grad.

    Nests, and restores the previous mode on exit, exceptions included.
    Values are computed exactly as with recording on.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


class Tensor:
    """Array value plus, when it requires grad, its node in the graph."""

    __slots__ = ("value", "_node")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        if self.value.ndim > 2:
            raise ShapeMismatchError("tensors hold at most two axes")
        self._node: _Node | None = _Node() if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        if self._node is not None:
            self._node.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; the functional forms below do the work.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(value: np.ndarray, parents: tuple[Tensor, ...], bwd) -> Tensor:
    out = Tensor(value)
    if _GRAD_MODE.enabled:
        nodes = tuple(p._node for p in parents if p._node is not None)
        if nodes:
            out._node = _Node(nodes, bwd)
    return out


def _accum(node: _Node | None, g, view: bool = False) -> None:
    """Add ``g`` into ``node``'s gradient; a no-op for a constant (None).

    A first gradient is taken as it is: closures pass arrays they built and
    hold no other reference to. One that is a view or an alias of another
    array (``view=True``) is copied first, since a later ``+=`` into it
    would write through to that array.
    """
    if node is None:
        return
    if node.grad is None:
        node.grad = np.array(g, dtype=np.float64, copy=True) if view else np.asarray(g, dtype=np.float64)
    else:
        node.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to the given broadcast source shape; g itself if no axis is summed."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ----------------------------------------------------------------------
# elementwise and structural ops
#
# Closures capture parent nodes, shapes, indices and the arrays they save,
# never a Tensor: a captured Tensor would pin its value on the tape.


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    val = a.value + b.value
    an, bn, a_shape, b_shape = a._node, b._node, a.value.shape, b.value.shape

    def bwd(g):
        # g is this op's own gradient and may go to one parent as it is;
        # the other parent copies it when it gets g unsummed as well.
        ga = _unbroadcast(g, a_shape)
        _accum(an, ga)
        gb = _unbroadcast(g, b_shape)
        _accum(bn, gb, view=gb is g)

    return _make(val, (a, b), bwd)


def sub(a, b) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a, b) -> Tensor:
    """Hadamard product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    val = a.value * b.value
    an, bn, a_shape, b_shape = a._node, b._node, a.value.shape, b.value.shape
    av = a.value if bn is not None else None
    bv = b.value if an is not None else None

    def bwd(g):
        if an is not None:
            _accum(an, _unbroadcast(g * bv, a_shape))
        if bn is not None:
            _accum(bn, _unbroadcast(g * av, b_shape))

    return _make(val, (a, b), bwd)


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    factor = float(factor)
    val = a.value * factor
    an = a._node

    def bwd(g):
        _accum(an, g * factor)

    return _make(val, (a,), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product; ``a`` may be a constant SparseMatrix or FactoredOperator."""
    if isinstance(a, (SparseMatrix, FactoredOperator)):
        b = as_tensor(b)
        val = a.matmul_dense(b.value)
        bn = b._node

        def bwd_sparse(g):
            _accum(bn, a.transpose().matmul_dense(g))

        return _make(val, (b,), bwd_sparse)

    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ShapeMismatchError("matmul expects two-axis tensors")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatchError(
            f"cannot multiply {a.value.shape} by {b.value.shape}"
        )
    val = a.value @ b.value
    an, bn = a._node, b._node
    av = a.value if bn is not None else None
    bv = b.value if an is not None else None

    def bwd(g):
        if an is not None:
            _accum(an, g @ bv.T)
        if bn is not None:
            _accum(bn, av.T @ g)

    return _make(val, (a, b), bwd)


def concat_cols(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[0] != b.value.shape[0]:
        raise ShapeMismatchError("concat_cols needs equal row counts")
    val = np.concatenate([a.value, b.value], axis=1)
    split = a.value.shape[1]
    an, bn = a._node, b._node

    def bwd(g):
        _accum(an, g[:, :split], view=True)
        _accum(bn, g[:, split:], view=True)

    return _make(val, (a, b), bwd)


def concat_rows(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.value.shape[1] != b.value.shape[1]:
        raise ShapeMismatchError("concat_rows needs equal column counts")
    val = np.concatenate([a.value, b.value], axis=0)
    split = a.value.shape[0]
    an, bn = a._node, b._node

    def bwd(g):
        _accum(an, g[:split], view=True)
        _accum(bn, g[split:], view=True)

    return _make(val, (a, b), bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    # fmax maps NaN and every non-positive value to 0.0 or -0.0, and adding
    # 0.0 turns -0.0 into 0.0: np.where(x > 0, x, 0.0) bit for bit.
    val = np.fmax(a.value, 0.0)
    val += 0.0
    an = a._node
    keep = a.value > 0 if an is not None and _GRAD_MODE.enabled else None

    def bwd(g):
        _accum(an, g * keep)

    return _make(val, (a,), bwd)


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    a = as_tensor(a)
    pos = a.value > 0
    val = np.where(pos, a.value, negative_slope * a.value)
    an = a._node

    def bwd(g):
        _accum(an, g * np.where(pos, 1.0, negative_slope))

    return _make(val, (a,), bwd)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # Split by sign to stay overflow-free.
    x = a.value
    e = np.exp(-np.abs(x))
    val = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    an = a._node

    def bwd(g):
        _accum(an, g * val * (1.0 - val))

    return _make(val, (a,), bwd)


def _check_segments(indptr: np.ndarray, total: int) -> np.ndarray:
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0 or indptr[-1] != total:
        raise ShapeMismatchError("indptr must run from 0 to the row count")
    lengths = np.diff(indptr)
    if np.any(lengths < 0):
        raise ShapeMismatchError("indptr must be non-decreasing")
    if np.any(lengths == 0):
        raise EmptyMaskError("segment with no rows")
    return indptr


def segment_softmax(a, indptr: np.ndarray) -> Tensor:
    """Softmax over contiguous row segments of an (n, 1) tensor.

    ``indptr`` delimits segments the way CSR row pointers do; every
    segment must be non-empty. Used for neighborhood attention where row
    i's candidate scores are stored contiguously.
    """
    a = as_tensor(a)
    x = a.value
    if x.ndim != 2 or x.shape[1] != 1:
        raise ShapeMismatchError("segment_softmax expects an (n, 1) tensor")
    indptr = _check_segments(indptr, x.shape[0])
    starts = indptr[:-1]
    seg_id = np.repeat(np.arange(starts.size), np.diff(indptr))
    flat = x[:, 0]
    if flat.size:
        shifted = flat - np.maximum.reduceat(flat, starts)[seg_id]
        e = np.exp(shifted)
        val_flat = e / np.add.reduceat(e, starts)[seg_id]
    else:
        val_flat = flat.copy()
    val = val_flat[:, None]
    an = a._node

    def bwd(g):
        gf = g[:, 0]
        if gf.size:
            inner = np.add.reduceat(val_flat * gf, starts)[seg_id]
        else:
            inner = gf
        _accum(an, (val_flat * (gf - inner))[:, None])

    return _make(val, (a,), bwd)


def segment_sums(weights, values, pattern: SparseMatrix) -> Tensor:
    """Weighted neighbor sums over the stored entries of a CSR pattern.

    ``weights`` is a list of (nnz, 1) tensors, one per head; the values'
    columns split into that many equal blocks, and block h is summed
    with head h's weights: output row i, block h, is the sum over the
    entries p of row i of ``pattern`` of ``weights[h][p] * values[pattern.indices[p], block h]``.
    Each block is one sparse @ dense product with the weights as the
    pattern's values, written into its columns of the one output. Only the
    pattern's structure is read; an empty row sums to zero. The values
    gradient is the transposed product with the same weights
    (:meth:`SparseMatrix.transpose_matmul_dense`): the product of
    ``pattern``'s transpose, which the first backward builds and caches;
    a forward alone builds none.
    """
    heads = [as_tensor(w) for w in weights]
    values = as_tensor(values)
    v = values.value
    for head in heads:
        if head.value.shape != (pattern.nnz, 1):
            raise ShapeMismatchError(
                f"segment_sums needs ({pattern.nnz}, 1) weights, got {head.value.shape}"
            )
    if not heads or v.ndim != 2 or v.shape[1] % len(heads):
        raise ShapeMismatchError(
            f"segment_sums cannot split values of shape {v.shape} among {len(heads)} heads"
        )
    step = v.shape[1] // len(heads)
    blocks = [slice(h * step, (h + 1) * step) for h in range(len(heads))]
    ws = [head.value[:, 0] for head in heads]
    # matmul_dense rejects values whose row count is not pattern.cols.
    val = np.empty((pattern.rows, v.shape[1]))
    for w, cols in zip(ws, blocks):
        pattern.matmul_dense(v[:, cols], data=w, out=val[:, cols])
    wns, vn = [head._node for head in heads], values._node
    # Each gradient reads the other operand; keep only the ones it needs.
    ws = ws if vn is not None else None
    v = v if any(n is not None for n in wns) else None

    def bwd(g):
        if vn is not None:
            # Column sums in stored-entry order from 0.0, as np.add.at adds.
            gv = np.empty((pattern.cols, g.shape[1]))
            for w, cols in zip(ws, blocks):
                pattern.transpose_matmul_dense(w, g[:, cols], out=gv[:, cols])
            _accum(vn, gv)
        if v is None:
            return
        # g[row] . v[col] per pair and head, _WEIGHT_GRAD_PAIRS pairs at a
        # time. Summed over the head's width by a product with ones, so the
        # result matches the broadcast-and-multiply formulation bit for bit.
        row_of, _ = pattern._pattern_index()
        ones = np.ones((1, step)).T
        grads = [None if wn is None else np.empty((pattern.nnz, 1)) for wn in wns]
        for lo in range(0, pattern.nnz, _WEIGHT_GRAD_PAIRS):
            at = slice(lo, lo + _WEIGHT_GRAD_PAIRS)
            cols_at, rows_at = pattern.indices[at], row_of[at]
            for grad, cols in zip(grads, blocks):
                if grad is not None:
                    terms = v[cols_at, cols]
                    terms *= g[rows_at, cols]
                    grad[at] = terms @ ones
        for wn, grad in zip(wns, grads):
            _accum(wn, grad)

    return _make(val, (*heads, values), bwd)


def dropout(a, p: float, rng: np.random.Generator | int | None = None) -> Tensor:
    """Inverted dropout: kept entries are scaled by 1 / (1 - p).

    With ``p == 0`` the input tensor is returned unchanged. Backward keeps
    the bool mask and rebuilds the factor.
    """
    a = as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    keep = rng.random(a.value.shape) >= p
    val = a.value * (keep / (1.0 - p))
    an = a._node

    def bwd(g):
        _accum(an, g * (keep / (1.0 - p)))

    return _make(val, (a,), bwd)


def _scatter_rows(index: np.ndarray, g: np.ndarray, rows: int) -> np.ndarray:
    # Row k of g added into row index[k] of a zero (rows, ...) array.
    # bincount adds in index order from zero, as np.add.at does, but fast;
    # a 2-d g is one bincount keyed by (row, column) over g in row-major order.
    if g.ndim == 1:
        return np.bincount(index, weights=g, minlength=rows)
    width = g.shape[1]
    key = index[:, None] * width + np.arange(width)
    return np.bincount(key.ravel(), weights=g.ravel(), minlength=rows * width).reshape(rows, width)


def select_rows(a, index: np.ndarray) -> Tensor:
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    val = a.value[index]
    an, rows = a._node, a.value.shape[0]

    def bwd(g):
        _accum(an, _scatter_rows(index, g, rows))

    return _make(val, (a,), bwd)


def select_cols(a, index: np.ndarray) -> Tensor:
    a = as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    val = a.value[:, index]
    an, (rows, cols) = a._node, a.value.shape

    def bwd(g):
        # Entry (r, k) of g adds into (r, index[k]): one bincount over g in
        # row-major order, so repeated columns add in index order from 0.0,
        # as np.add.at does, with no transposed copy of g or of the result.
        key = np.arange(rows)[:, None] * cols + index
        _accum(an, np.bincount(key.ravel(), weights=g.ravel(), minlength=rows * cols).reshape(rows, cols))

    return _make(val, (a,), bwd)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    val = a.value.T.copy()
    an = a._node

    def bwd(g):
        _accum(an, g.T, view=True)

    return _make(val, (a,), bwd)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    val = np.asarray(a.value.sum())
    an, shape = a._node, a.value.shape

    def bwd(g):
        _accum(an, np.broadcast_to(g, shape), view=True)

    return _make(val, (a,), bwd)


def cross_entropy(logits, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over masked rows.

    Uses a shifted log-sum-exp; the gradient is (softmax - onehot) / k on
    masked rows and zero elsewhere.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if logits.value.ndim != 2:
        raise ShapeMismatchError("cross_entropy expects (n, C) logits")
    n, c = logits.value.shape
    if labels.shape != (n,) or mask.shape != (n,):
        raise ShapeMismatchError("labels/mask must have one entry per row")
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise EmptyMaskError("cross_entropy over an empty mask")
    z = logits.value[rows]
    y = labels[rows]
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    val = np.asarray(np.mean(lse - z[np.arange(rows.size), y]))
    node = logits._node

    def bwd(g):
        soft = np.exp(z - zmax)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(rows.size), y] -= 1.0
        full = np.zeros((n, c))
        full[rows] = soft * (float(g) / rows.size)
        _accum(node, full)

    return _make(val, (logits,), bwd)


# ----------------------------------------------------------------------
# backward pass and gradient checking


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar loss, consuming its graph.

    Each op's closure runs once and is then dropped with its gradient and
    its parent links, so the arrays it saved are freed during the sweep.
    Leaves keep their gradients.

    Raises:
        NonScalarLossError: ``loss`` holds more than one value.
        GraphConsumedError: the graph reaches an op that an earlier
            backward already ran; no gradient is touched then.
    """
    if loss.value.size != 1:
        raise NonScalarLossError(
            f"backward needs a scalar, got shape {loss.value.shape}"
        )
    root = loss._node
    if root is None:
        return
    topo: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward is _CONSUMED:
            raise GraphConsumedError(
                "backward reached an op whose graph an earlier backward already "
                "consumed; run the forward again"
            )
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(loss.value)
    for node in reversed(topo):
        if node.backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node.backward(node.grad)
        node.grad, node.parents, node.backward = None, (), _CONSUMED


def grad_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor] | Iterable[Tensor],
    eps: float = 1e-5,
    max_entries: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` must be deterministic and rebuild its graph on every call. All
    entries are checked for parameters of at most ``max_entries`` values;
    larger parameters use a seeded sample of ``max_entries`` entries.
    Returns the maximum relative error, where differences below 1e-9 in
    absolute value count as zero.
    """
    if isinstance(params, Mapping):
        tensors = list(params.values())
    else:
        tensors = list(params)
    for t in tensors:
        t.zero_grad()
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(t.value) if t.grad is None else t.grad.copy() for t in tensors]

    rng = np.random.default_rng(seed)
    worst = 0.0
    for t, ana in zip(tensors, analytic):
        flat = t.value.reshape(-1)
        size = flat.size
        if size <= max_entries:
            picks = np.arange(size)
        else:
            picks = rng.choice(size, size=max_entries, replace=False)
        ana_flat = ana.reshape(-1)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = float(f().value)
            flat[idx] = orig - eps
            lo = float(f().value)
            flat[idx] = orig
            numeric = (hi - lo) / (2.0 * eps)
            diff = abs(ana_flat[idx] - numeric)
            if diff < 1e-9:
                continue
            denom = max(abs(ana_flat[idx]), abs(numeric))
            worst = max(worst, diff / denom)
    return worst
