"""Forward-only twins of the tensor ops a model forward uses, on plain
ndarrays.

Every op takes and returns ndarrays: the model forwards pass each
parameter's ``.data``. An op computes the values its namesake in
``numerics.tensor`` puts in ``.data`` (the rmsnorm, silu and softmax helpers
are shared), without building a Tensor or a backward closure.
``transpose`` and ``slice_rows`` return views where the tensor ops copy to
contiguous memory; ``backbone.transformer_layer`` keeps the one operand
whose layout changes a matmul's bits, the keys, in a contiguous buffer. No
gradient flows through these ops.
"""

from __future__ import annotations

import numpy as np

from .tensor import _rmsnorm_data, _silu_data, _softmax_data

add = np.add
scale = np.multiply
matmul = np.matmul
softmax_rows = _softmax_data


def silu(a: np.ndarray) -> np.ndarray:
    return _silu_data(a)[0]


def reshape(a: np.ndarray, shape) -> np.ndarray:
    return a.reshape(shape)


def transpose(a: np.ndarray, axes) -> np.ndarray:
    return a.transpose(axes)


def concat_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate((a, b), axis=-1)


def slice_rows(a: np.ndarray, stop: int, start: int = 0) -> np.ndarray:
    return a[start:stop]


def unstack(a: np.ndarray) -> tuple[np.ndarray, ...]:
    return tuple(a)


def embed(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return table[ids]


def rmsnorm(a: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return _rmsnorm_data(a, gain, eps)[0]
