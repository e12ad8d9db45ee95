"""The frozen-at-distillation-time denoiser: a bidirectional pre-norm
RMSNorm transformer with block-causal attention, learned absolute
positions, and a bias-free LM head.

The LM head has no bias so the logit residual of the correction head is
exactly its hidden residual times the head matrix (one matmul, no affine
seam). Embedding and head are untied to keep freezing semantics simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import checkpoint
from .errors import ContractViolationError, InvalidConfigError, InvalidShapeError
from .numerics import arrays as A
from .numerics import tensor as T
from .numerics.tensor import Tensor


@dataclass
class BackboneConfig:
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 4
    vocab_size: int = 44
    block_size: int = 8
    max_len: int = 128
    norm_eps: float = 1e-6
    mlp_mult: int = 4

    def validate(self) -> None:
        sizes = ("d_model", "n_heads", "n_layers", "block_size", "max_len", "mlp_mult")
        small = [name for name in sizes if getattr(self, name) < 1]
        if small:
            raise InvalidConfigError(f"{', '.join(small)} must be >= 1")
        if not self.norm_eps > 0:
            raise InvalidConfigError("norm_eps must be > 0")
        if self.vocab_size < 5:
            raise InvalidConfigError("vocab_size must be >= 5")
        if self.d_model % self.n_heads:
            raise InvalidConfigError("d_model must be divisible by n_heads")
        if self.max_len % self.block_size:
            raise InvalidConfigError("block_size must divide max_len")


class ParamSet:
    """Base of the parameter dataclasses. Tensor names follow the fields in
    field order: a tensor field is `<prefix>.<field>`, a list of layers is
    `<prefix>.<field>.<i>.<layer field>`, and the config is not a tensor.
    `named_tensors()` is the one list that saving, loading and the
    optimizer walk."""

    PREFIX = ""

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out.append((f"{prefix}.{f.name}", value))
            elif isinstance(value, list):
                for i, layer in enumerate(value):
                    out.extend(layer.named(f"{prefix}.{f.name}.{i}"))
        return out

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        return self.named(self.PREFIX)

    def set_requires_grad(self, flag: bool) -> None:
        for _, t in self.named_tensors():
            t.requires_grad = flag


@dataclass
class LayerParams(ParamSet):
    attn_norm: Tensor
    w_qkv: Tensor
    w_attn_out: Tensor
    mlp_norm: Tensor
    w_up: Tensor
    w_down: Tensor

    @classmethod
    def init(cls, d: int, hidden: int, rng: np.random.Generator, std: float) -> LayerParams:
        """Norm gains at one; matrices drawn from N(0, std^2) in field order."""
        return cls(
            attn_norm=T.param(np.ones(d)),
            w_qkv=T.param(rng.normal(0.0, std, (d, 3 * d))),
            w_attn_out=T.param(rng.normal(0.0, std, (d, d))),
            mlp_norm=T.param(np.ones(d)),
            w_up=T.param(rng.normal(0.0, std, (d, hidden))),
            w_down=T.param(rng.normal(0.0, std, (hidden, d))),
        )


@dataclass
class BackboneParams(ParamSet):
    config: BackboneConfig
    embed: Tensor       # V x d token embedding table (houses the MASK row)
    pos: Tensor         # max_len x d learned absolute positions
    layers: list = field(default_factory=list)
    final_norm: Tensor = None
    w_lm: Tensor = None  # d x V, no bias

    PREFIX = "backbone"


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator, std: float = 0.02) -> BackboneParams:
    cfg.validate()
    d = cfg.d_model
    return BackboneParams(
        config=cfg,
        embed=T.param(rng.normal(0.0, std, (cfg.vocab_size, d))),
        pos=T.param(rng.normal(0.0, std, (cfg.max_len, d))),
        layers=[LayerParams.init(d, cfg.mlp_mult * d, rng, std) for _ in range(cfg.n_layers)],
        final_norm=T.param(np.ones(d)),
        w_lm=T.param(rng.normal(0.0, std, (d, cfg.vocab_size))),
    )


# ---------------------------------------------------------------------------
# block-causal attention mask
# ---------------------------------------------------------------------------


def block_index(positions, block_size: int, prompt_len: int):
    """Block id per position: the prompt is leading block 0, then the
    response is gridded in blocks of block_size."""
    pos = np.asarray(positions)
    return np.where(pos < prompt_len, 0, 1 + (pos - prompt_len) // block_size)


def attention_mask(L: int, block_size: int, prompt_len: int = 0) -> np.ndarray:
    """Boolean LxL matrix: query q may attend key k iff block(k) <= block(q)
    (all preceding blocks plus full bidirectional attention within a block)."""
    if (L - prompt_len) % block_size:
        raise InvalidConfigError(
            f"response region of length {L - prompt_len} is not a multiple of "
            f"block_size {block_size}"
        )
    blocks = block_index(np.arange(L), block_size, prompt_len)
    return blocks[None, :] <= blocks[:, None]


_MASK_CACHE: dict[tuple, np.ndarray] = {}


def additive_mask(L: int, block_size: int, prompt_len: int) -> np.ndarray:
    """0 where attention is allowed, -1e30 where blocked (kept finite so no
    intermediate is ever inf/NaN)."""
    key = (L, block_size, prompt_len)
    cached = _MASK_CACHE.get(key)
    if cached is None:
        cached = np.where(attention_mask(L, block_size, prompt_len), 0.0, -1e30)
        _MASK_CACHE[key] = cached
    return cached


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def active_ops():
    """The op set a forward starts on: the tensor ops `T` while the tape
    records, their plain-array twins `A` under `no_grad` (same bits, no
    Tensor per intermediate)."""
    return T if T.grad_enabled() else A


def operands(ops, *tensors) -> tuple | list:
    """`tensors` as `ops` computes with them: the Tensors for `T`, their
    arrays for `A`."""
    return tensors if ops is T else [t.data for t in tensors]


@dataclass
class LayerKV:
    """One layer's keys, stored transposed as ([B,] heads, dh, L), and
    values, ([B,] heads, L, dh), over the L rows of a window; the leading
    axis holds a batch of B sequences."""

    k_t: np.ndarray
    v: np.ndarray

    @classmethod
    def empty(cls, n_heads: int, rows: int, dh: int, lead: tuple = ()) -> LayerKV:
        return cls(np.empty((*lead, n_heads, dh, rows)), np.empty((*lead, n_heads, rows, dh)))

    def write(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store the keys and values, each ([B,] heads, n, dh), of the
        window's last n rows in place and return the whole window's
        (k_t, v)."""
        lo = self.v.shape[-2] - k.shape[-2]
        self.k_t[..., lo:] = k.swapaxes(-1, -2)
        self.v[..., lo:, :] = v
        return self.k_t, self.v


class PrefixKV:
    """Every layer's keys and values over a window, plus the h and logits
    of its rows [0, rows).

    `rows` is where the window's last block starts. Block-causal attention
    keeps the rows before it from seeing that block, so while the block is
    denoised their keys, values, h and logits do not change: the first
    forward given the prefix computes the full window and fills it, later
    ones compute only the last block's rows and overwrite that block's
    keys and values. No-grad only.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.ids: bytes | None = None
        self.layers: list[LayerKV] = []
        self.h: np.ndarray | None = None
        self.logits: np.ndarray | None = None

    def begin(self, ids: np.ndarray, x, cfg: BackboneConfig) -> int:
        """Check that the prefix fits this forward and return its first
        row to compute: 0 when the prefix is empty, else `rows`."""
        if T.grad_enabled():
            raise ContractViolationError(
                "a prefix cache holds no tape: run the forward under no_grad"
            )
        last = len(ids) - x.block_size
        if last < x.prompt_len or self.rows != last or (last - x.prompt_len) % x.block_size:
            raise ContractViolationError(
                f"prefix of {self.rows} rows does not end where the window's "
                f"last block starts ({last})"
            )
        # the prefix ids as bytes: one compare instead of numpy's array_equal
        prefix_ids = ids[:self.rows].tobytes()
        if self.h is None:
            self.ids = prefix_ids
            dh = cfg.d_model // cfg.n_heads
            self.layers = [LayerKV.empty(cfg.n_heads, len(ids), dh) for _ in range(cfg.n_layers)]
            return 0
        if prefix_ids != self.ids:
            raise ContractViolationError("prefix tokens changed since the cache was filled")
        return self.rows

    def complete(self, h: np.ndarray, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The full window's h and logits, new arrays, from the rows this
        forward computed; an empty prefix keeps a copy of its rows."""
        if self.h is None:
            self.h, self.logits = h[:self.rows].copy(), logits[:self.rows].copy()
            return h, logits
        return np.concatenate([self.h, h]), np.concatenate([self.logits, logits])


# Axis orders for an (L, d) stream and a (B, L, d) one, keyed by the
# number of leading axes: the split of the fused projection into
# (3, [B,] heads, L, dh), the keys' transpose, and the merge of the heads.
_AXES = {0: ((1, 2, 0, 3), (0, 2, 1), (1, 0, 2)),
         1: ((2, 0, 3, 1, 4), (0, 1, 3, 2), (0, 2, 1, 3))}


def transformer_layer(stream: Tensor | np.ndarray, layer: LayerParams,
                      addmask: np.ndarray | None, n_heads: int, eps: float,
                      cache: LayerKV | None = None) -> Tensor | np.ndarray:
    """One pre-norm block: masked self-attention + MLP, both residual.
    Computes with `T` on a Tensor stream and with `A` on an ndarray.
    `addmask` holds the stream's rows of the window's additive mask; None
    adds nothing, for rows that see every key. A Tensor stream may carry a
    leading batch axis, (B, L, d): B sequences of one length under one
    mask. On an ndarray the keys and values are written into `cache`, or
    into a new window-sized `LayerKV` with the stream's leading axes, and
    attention reads the whole window's from it; with a filled cache the
    stream, (L, d), holds only the window's last rows."""
    ops = T if isinstance(stream, Tensor) else A
    attn_norm, w_qkv, w_attn_out, mlp_norm, w_up, w_down = operands(
        ops, layer.attn_norm, layer.w_qkv, layer.w_attn_out, layer.mlp_norm,
        layer.w_up, layer.w_down)
    *lead, L, d = stream.shape
    split, keys, merge = _AXES[len(lead)]
    dh = d // n_heads
    a = ops.rmsnorm(stream, attn_norm, eps)
    qkv = ops.transpose(ops.reshape(ops.matmul(a, w_qkv), (*lead, L, 3, n_heads, dh)), split)
    q, k, v = ops.unstack(qkv)
    if ops is T:
        k_t = T.transpose(k, keys)
    else:
        # keys in a contiguous (heads, dh, L) buffer, the layout the tensor
        # transpose leaves: on a strided view the scores' matmul gives other bits
        k_t, v = (LayerKV.empty(n_heads, L, dh, lead) if cache is None else cache).write(k, v)
    scores = ops.scale(ops.matmul(q, k_t), 1.0 / math.sqrt(dh))
    if addmask is not None:
        scores = ops.add(scores, addmask)
    probs = ops.softmax_rows(scores)
    ctx = ops.reshape(ops.transpose(ops.matmul(probs, v), merge), (*lead, L, d))
    stream = ops.add(stream, ops.matmul(ctx, w_attn_out))
    m = ops.rmsnorm(stream, mlp_norm, eps)
    return ops.add(stream, ops.matmul(ops.silu(ops.matmul(m, w_up)), w_down))


def input_embedding(params: BackboneParams, ids: np.ndarray, start: int = 0) -> Tensor | np.ndarray:
    """Token embedding plus learned absolute position rows for ids, (L,) or
    (B, L), at positions start, start + 1, ...: a Tensor while the tape
    records, an ndarray under `no_grad`."""
    ops = active_ops()
    embed, pos = operands(ops, params.embed, params.pos)
    return ops.add(ops.embed(embed, ids), ops.slice_rows(pos, start + ids.shape[-1], start))


def check_ids(ids: np.ndarray, cfg: BackboneConfig) -> None:
    """Raise InvalidShapeError unless there is at least one id and every id,
    of an (L,) or (B, L) array, indexes the embedding table (a negative id
    would silently wrap to the last row)."""
    # a plain list: cheaper than two numpy reductions at a window's few ids
    values = ids.ravel().tolist()
    if not values or min(values) < 0 or max(values) >= cfg.vocab_size:
        raise InvalidShapeError("token ids must be non-empty and within the vocabulary")


def forward(x, params: BackboneParams, window: int | None = None,
            prefix: PrefixKV | None = None) -> tuple[Tensor, Tensor]:
    """Run the denoiser on sequence state `x` (ids, prompt_len, block_size).

    Returns (h, logits): h is the final post-norm hidden state (the tensor
    that multiplies the LM head), logits = h @ w_lm. `window` truncates the
    computation to the first `window` positions; block-causality makes the
    retained rows bit-identical to a full-length forward. Under `no_grad`
    every intermediate is a plain ndarray and only h and logits are wrapped.

    `prefix` (no-grad only) caches the rows before the window's last block:
    an empty one is filled by this forward, a filled one limits the work to
    the last block's rows. Either way h and logits are new arrays over the
    whole window.

    `x.ids` of shape (B, L) is a batch of B sequences that share
    prompt_len and so one mask: h and logits get a leading B axis. A batch
    runs over the full window only, on the tape or under `no_grad`.
    """
    cfg = params.config
    ids = np.asarray(x.ids, dtype=np.int64)
    if ids.ndim == 2:
        if window is not None or prefix is not None:
            raise ContractViolationError(
                "a batch of sequences runs over the full window, without window or prefix"
            )
    elif ids.ndim != 1:
        raise InvalidShapeError(f"token ids must be (L,) or (B, L), got shape {ids.shape}")
    if window is not None:
        ids = ids[:window]
    L = ids.shape[-1]
    if L > cfg.max_len:
        raise InvalidShapeError(f"sequence length {L} exceeds max_len {cfg.max_len}")
    check_ids(ids, cfg)
    start, caches = 0, [None] * len(params.layers)
    if prefix is not None:
        start = prefix.begin(ids, x, cfg)
        caches = prefix.layers
    # the rows of the window's last block see every key: their mask rows
    # are all zero, so a filled prefix adds no mask
    addmask = None if start else additive_mask(L, x.block_size, x.prompt_len)

    ops = active_ops()
    final_norm, w_lm = operands(ops, params.final_norm, params.w_lm)
    stream = input_embedding(params, ids[start:], start)
    for layer, cache in zip(params.layers, caches):
        stream = transformer_layer(stream, layer, addmask, cfg.n_heads, cfg.norm_eps, cache)
    h = ops.rmsnorm(stream, final_norm, cfg.norm_eps)
    logits = ops.matmul(h, w_lm)
    if prefix is not None:
        h, logits = prefix.complete(h, logits)
    return T._as_tensor(h), T._as_tensor(logits)


def perturbation_norm(x_a, x_b, params: BackboneParams) -> float:
    """Frobenius norm of the token-embedding difference between two states
    (the per-transition perturbation size entering the contraction bound)."""
    ids_a = np.asarray(x_a.ids, dtype=np.int64)
    ids_b = np.asarray(x_b.ids, dtype=np.int64)
    if ids_a.shape != ids_b.shape:
        raise InvalidShapeError("sequences of different length")
    diff = ids_a != ids_b
    if not np.any(diff):
        return 0.0
    rows_a = params.embed.data[ids_a[diff]]
    rows_b = params.embed.data[ids_b[diff]]
    return float(np.sqrt(np.sum((rows_b - rows_a) ** 2)))


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_backbone(path: str, params: BackboneParams) -> None:
    checkpoint.save_params(path, params)


def load_backbone(path: str) -> BackboneParams:
    blob = checkpoint.load_tensors(path)
    cfg = checkpoint.read_config(blob, BackboneParams.PREFIX, BackboneConfig)
    return checkpoint.fill(init_backbone(cfg, checkpoint.UNFILLED), blob)
