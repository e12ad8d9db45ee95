"""Forward-only twins of the tensor ops a model forward uses, on plain
ndarrays.

Each op makes the same numpy calls as its namesake in ``numerics.tensor``
(the value helpers for rmsnorm, silu and softmax are shared), so it returns
exactly the bits that op would put in ``.data``, without building a Tensor
or a backward closure. Arguments may be Tensors (the model's parameters);
their ``.data`` is read. No gradient flows through these ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _rmsnorm_data, _silu_data, _softmax_data


def _v(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else x


def add(a, b) -> np.ndarray:
    return _v(a) + _v(b)


def scale(a, s: float) -> np.ndarray:
    return _v(a) * float(s)


def silu(a) -> np.ndarray:
    return _silu_data(_v(a))[0]


def reshape(a, shape) -> np.ndarray:
    return _v(a).reshape(shape)


def transpose(a, axes) -> np.ndarray:
    # contiguous like the tensor op, so later matmuls see the same layout
    return np.ascontiguousarray(_v(a).transpose(axes))


def concat_last(a, b) -> np.ndarray:
    return np.concatenate([_v(a), _v(b)], axis=-1)


def slice_rows(a, stop: int, start: int = 0) -> np.ndarray:
    return np.ascontiguousarray(_v(a)[start:stop])


def unstack(a) -> tuple[np.ndarray, ...]:
    return tuple(_v(a))


def embed(table, ids) -> np.ndarray:
    return _v(table)[np.asarray(ids, dtype=np.int64)]


def matmul(a, b) -> np.ndarray:
    return np.matmul(_v(a), _v(b))


def rmsnorm(a, gain, eps: float = 1e-6) -> np.ndarray:
    return _rmsnorm_data(_v(a), _v(gain), eps)[0]


def softmax_rows(a) -> np.ndarray:
    return _softmax_data(_v(a))
