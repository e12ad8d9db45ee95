"""Dense float64 tensors with tape-based reverse-mode autodiff.

All compute is 64-bit; 32-bit exists only as checkpoint storage (see
mrpdiff.checkpoint). The op set is exactly what a small pre-norm
transformer plus a distillation loss needs; there is no broadcasting
machinery beyond what those forwards require.

Backward semantics: ``backward(loss)`` walks the tape once with a scratch
gradient table and *adds* the result into ``.grad`` of every tensor with
``requires_grad=True``, so repeated calls accumulate. Intermediate nodes
never retain gradients.

``no_grad()`` turns recording off. The ops here still return Tensors, with
no tape behind them. The model forwards (``backbone.forward``,
``mrp.mrp_forward``) go further: under ``no_grad`` they hand each
parameter's ``.data`` to the ndarray-only twins in ``numerics.arrays`` and
wrap only their outputs in Tensors. The twins share the value helpers
(``_rmsnorm_data``, ``_softmax_data``) and the numpy calls of the ops here,
and return views where these copy.

``backbone.transformer_layer`` computes on plain arrays with and without
the tape. On the tape it records one node per layer, not one per op, and
its backward is the chain rule written out with the gradient helpers that
the ops' own backwards call (``_rmsnorm_grad``, ``_softmax_grad``,
``_silu_grad``, ``_weight_grad``), in the order the ops' backwards would
run. So a layer's output and gradients have the bits of the same layer
composed from the ops here, and a forward gives the same bits with and
without the tape. The node keeps only the arrays that are more than one
multiply from others it keeps; the backward redoes those multiplies.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import InvalidShapeError

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (teacher/inference forwards)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    """False inside `no_grad()`."""
    return _GRAD_ENABLED


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _tracked(self) -> bool:
        return self.requires_grad or self._parents != ()

    def _accumulate(self, g: np.ndarray) -> None:
        # the table's entry may be a view or shared with another entry, so
        # the first gradient is a copy that this tensor owns
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    return Tensor(data)


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p._tracked() for p in parents):
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to `shape`, inverting numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def bwd(g, table):
        _push(table, a, _unbroadcast(g, a.data.shape))
        _push(table, b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def bwd(g, table):
        _push(table, a, _unbroadcast(g, a.data.shape))
        _push(table, b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def bwd(g, table):
        _push(table, a, _unbroadcast(g * b.data, a.data.shape))
        _push(table, b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bwd)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    out = a.data * s

    def bwd(g, table):
        _push(table, a, g * s)

    return _make(out, (a,), bwd)


def _silu_data(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(silu(x), sigmoid(x))."""
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig


def _silu_grad(g: np.ndarray, x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """The gradient through silu at x, given sigmoid(x)."""
    return g * sig * (1.0 + x * (1.0 - sig))


def silu(a) -> Tensor:
    a = _as_tensor(a)
    out, sig = _silu_data(a.data)

    def bwd(g, table):
        _push(table, a, _silu_grad(g, a.data, sig))

    return _make(out, (a,), bwd)


# ---------------------------------------------------------------------------
# shape / indexing
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g, table):
        _push(table, a, g.reshape(a.data.shape))

    return _make(out, (a,), bwd)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    out = np.ascontiguousarray(a.data.transpose(axes))

    def bwd(g, table):
        _push(table, a, g.transpose(tuple(np.argsort(axes))))

    return _make(out, (a,), bwd)


def concat_last(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = np.concatenate([a.data, b.data], axis=-1)
    na = a.data.shape[-1]

    def bwd(g, table):
        _push(table, a, g[..., :na])
        _push(table, b, g[..., na:])

    return _make(out, (a, b), bwd)


def slice_last(a, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    out = np.ascontiguousarray(a.data[..., start:stop])

    def bwd(g, table):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        _push(table, a, full)

    return _make(out, (a,), bwd)


def slice_rows(a, stop: int, start: int = 0) -> Tensor:
    """Rows [start, stop) of a 2-D tensor (positional-embedding lookup)."""
    a = _as_tensor(a)
    out = np.ascontiguousarray(a.data[start:stop])

    def bwd(g, table):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _push(table, a, full)

    return _make(out, (a,), bwd)


def select_rows(a, idx) -> Tensor:
    """Gather rows of a 2-D tensor by integer index (loss-row selection)."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = a.data[idx]

    def bwd(g, table):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _push(table, a, full)

    return _make(out, (a,), bwd)


def take_per_row(a, cols) -> Tensor:
    """out[r] = a[r, cols[r]] for a 2-D tensor (target log-prob pick)."""
    a = _as_tensor(a)
    cols = np.asarray(cols, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    out = a.data[rows, cols]

    def bwd(g, table):
        full = np.zeros_like(a.data)
        full[rows, cols] = g
        _push(table, a, full)

    return _make(out, (a,), bwd)


def embed(table_t, ids) -> Tensor:
    """Row lookup into an embedding table; ids is a plain integer array."""
    table_t = _as_tensor(table_t)
    ids = np.asarray(ids, dtype=np.int64)
    out = table_t.data[ids]

    def bwd(g, table):
        full = np.zeros_like(table_t.data)
        np.add.at(full, ids, g)
        _push(table, table_t, full)

    return _make(out, (table_t,), bwd)


# ---------------------------------------------------------------------------
# matmul / norms / softmax
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise InvalidShapeError("matmul requires tensors with ndim >= 2")
    out = np.matmul(a.data, b.data)

    def bwd(g, table):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.data.ndim == 2:
            gb = _weight_grad(a.data, g)
        else:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _push(table, a, _unbroadcast(ga, a.data.shape))
        _push(table, b, _unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), bwd)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a matrix w in a @ w, given g = d(a @ w): for a stack
    of rows, one product over all rows instead of one per stack entry and a
    sum."""
    return np.matmul(a.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))


def _rmsnorm_data(x: np.ndarray, gain: np.ndarray, eps: float):
    """(normed * gain, 1 / rms, normed) with normed = x / sqrt(mean(x^2) + eps)."""
    # the ufunc reductions here and in _softmax_data are what np.mean/max/sum
    # compute, without their Python-level dispatch
    ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + eps
    inv = 1.0 / np.sqrt(ms)
    normed = x * inv
    return normed * gain, inv, normed


def _rmsnorm_grad(g: np.ndarray, x: np.ndarray, gain: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gradient through rmsnorm at x, given 1 / rms from _rmsnorm_data."""
    gg = g * gain
    dot = np.sum(gg * x, axis=-1, keepdims=True)
    return inv * gg - (inv ** 3 / x.shape[-1]) * x * dot


def rmsnorm(a, gain, eps: float = 1e-6) -> Tensor:
    """y = x / sqrt(mean(x^2, last) + eps) * gain, gain shaped (d,)."""
    a, gain = _as_tensor(a), _as_tensor(gain)
    out, inv, normed = _rmsnorm_data(a.data, gain.data, eps)

    def bwd(g, table):
        _push(table, a, _rmsnorm_grad(g, a.data, gain.data, inv))
        _push(table, gain, _unbroadcast(g * normed, gain.data.shape))

    return _make(out, (a, gain), bwd)


def _softmax_data(z: np.ndarray) -> np.ndarray:
    # max-subtraction keeps exp() <= 1 and the row sum >= 1. An entry more
    # than ~745 below its row's max (a blocked attention score, additive
    # mask -1e30) becomes exactly 0, so neither it nor its gradient is a
    # subnormal, which would slow every later product it enters.
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The gradient through softmax_rows, given its output p."""
    return p * (g - np.sum(g * p, axis=-1, keepdims=True))


def softmax_rows(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim == 0 or a.data.shape[-1] < 1:
        raise InvalidShapeError("softmax_rows requires a non-empty last extent")
    p = _softmax_data(a.data)

    def bwd(g, table):
        _push(table, a, _softmax_grad(g, p))

    return _make(p, (a,), bwd)


def log_softmax_rows(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim == 0 or a.data.shape[-1] < 1:
        raise InvalidShapeError("log_softmax_rows requires a non-empty last extent")
    m = np.max(a.data, axis=-1, keepdims=True)
    shifted = a.data - m
    lse = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def bwd(g, table):
        gsum = np.sum(g, axis=-1, keepdims=True)
        _push(table, a, g - p * gsum)

    return _make(out, (a,), bwd)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum())

    def bwd(g, table):
        _push(table, a, np.broadcast_to(g, a.data.shape).copy())

    return _make(out, (a,), bwd)


_KL_EPS = 1e-12


def kl_per_row(p, q) -> Tensor:
    """sum_v p_v (log p_v - log q_v) for each row: shape p.shape[:-1].

    p and q hold probability rows on the last axis. Terms with p_v = 0
    contribute exactly 0; q is clamped at 1e-12 so numerically one-hot
    teacher rows never raise. A loss over rows of several sequences weighs
    the result per row (`mul`, `sum_all`).
    """
    p, q = _as_tensor(p), _as_tensor(q)
    if p.data.shape != q.data.shape:
        raise InvalidShapeError(
            f"kl_per_row shape mismatch: {p.data.shape} vs {q.data.shape}"
        )
    if p.ndim < 1 or p.data.shape[-1] < 1:
        raise InvalidShapeError("kl_per_row requires a non-empty last extent")
    qc = np.maximum(q.data, _KL_EPS)
    active = p.data > 0.0
    log_ratio = np.log(np.maximum(p.data, _KL_EPS)) - np.log(qc)
    out = np.add.reduce(np.where(active, p.data * log_ratio, 0.0), axis=-1)

    def bwd(g, table):
        g = np.expand_dims(g, -1)
        if p._tracked():  # a distillation teacher's rows are constants
            _push(table, p, np.where(active, log_ratio + 1.0, 0.0) * g)
        _push(table, q, np.where(active & (q.data >= _KL_EPS), -p.data / qc, 0.0) * g)

    return _make(out, (p, q), bwd)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _push(table: dict, t: Tensor, g: np.ndarray) -> None:
    """Add g to t's gradient in the table. The first g is stored as it is,
    possibly a view or an array another node's entry also holds; later ones
    add out of place, so no stored gradient is ever changed in place."""
    if not t._tracked():
        return
    tid = id(t)
    prev = table.get(tid)
    table[tid] = g if prev is None else prev + g


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad tensor reachable from `loss`.

    Repeated calls accumulate into .grad. Raises on a non-scalar loss.
    """
    if loss.data.size != 1:
        raise InvalidShapeError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent._tracked():
                stack.append((parent, False))

    table: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = table.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node._accumulate(g)
        if node._backward_fn is not None:
            node._backward_fn(g, table)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
