"""Forward-only twins of the tensor ops the model forwards call outside
their transformer layers, on plain ndarrays.

Every op takes and returns ndarrays: the model forwards pass each
parameter's ``.data``. An op computes the values its namesake in
``numerics.tensor`` puts in ``.data`` (the rmsnorm helper is shared),
without building a Tensor or a backward closure. ``slice_rows`` returns a
view where the tensor op copies. No gradient flows through these ops.
``backbone.transformer_layer`` computes on plain arrays itself, with and
without the tape.
"""

from __future__ import annotations

import numpy as np

from .tensor import _rmsnorm_data

add = np.add
matmul = np.matmul


def concat_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate((a, b), axis=-1)


def slice_rows(a: np.ndarray, stop: int, start: int = 0) -> np.ndarray:
    return a[start:stop]


def embed(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    return table[ids]


def rmsnorm(a: np.ndarray, gain: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    return _rmsnorm_data(a, gain, eps)[0]
