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
from .errors import ContractViolationError, InvalidConfigError, InvalidShapeError, check_int
from .numerics import arrays as A
from .numerics import tensor as T
from .numerics.tensor import (
    Tensor,
    _rmsnorm_data,
    _rmsnorm_grad,
    _silu_data,
    _silu_grad,
    _softmax_data,
    _softmax_grad,
    _unbroadcast,
    _weight_grad,
)


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
        for name in ("d_model", "n_heads", "n_layers", "block_size", "max_len", "mlp_mult"):
            check_int(name, getattr(self, name), 1)
        check_int("vocab_size", self.vocab_size, 5)
        if not self.norm_eps > 0:
            raise InvalidConfigError("norm_eps must be > 0")
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
    """Every layer's keys and values over a state's rows (in decoding, a
    block's window, `x.window(block)`), plus the h and logits of its rows
    [0, rows), for one sequence or a (B, L) stack.

    `rows` is a row of the block grid at or after the prompt and before the
    state's end: the prompt's end, or the start of a response block.
    Block-causal attention keeps the rows before it from seeing any row
    after it, so while only the rows from `rows` on change (a block being
    denoised, or the unroll states of one clean stack in distillation),
    the earlier rows' keys, values, h and logits do not change. The first
    forward given the prefix computes every row and fills it; later ones
    compute only the rows from `rows` on and overwrite their keys and
    values. No-grad only.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.ids: tuple | None = None
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
        L = ids.shape[-1]
        if not x.prompt_len <= self.rows < L or (self.rows - x.prompt_len) % x.block_size:
            raise ContractViolationError(
                f"prefix of {self.rows} rows does not end on the block grid "
                f"between the prompt ({x.prompt_len}) and the window's end ({L})"
            )
        # the window's shape and the prefix ids as bytes: one compare
        # instead of numpy's array_equal
        key = (ids.shape, ids[..., :self.rows].tobytes())
        if self.h is None:
            self.ids = key
            dh = cfg.d_model // cfg.n_heads
            self.layers = [LayerKV.empty(cfg.n_heads, L, dh, ids.shape[:-1])
                           for _ in range(cfg.n_layers)]
            return 0
        if key != self.ids:
            raise ContractViolationError(
                "prefix tokens or window shape changed since the cache was filled"
            )
        return self.rows

    def complete(self, h: np.ndarray, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The full window's h and logits, new arrays, from the rows this
        forward computed; an empty prefix keeps a copy of its rows."""
        if self.h is None:
            self.h = h[..., :self.rows, :].copy()
            self.logits = logits[..., :self.rows, :].copy()
            return h, logits
        return (np.concatenate([self.h, h], axis=-2),
                np.concatenate([self.logits, logits], axis=-2))


# Axis orders for an (L, d) stream and a (B, L, d) one, keyed by the
# number of leading axes: the split of the fused projection into
# (3, [B,] heads, L, dh), and the merge of the heads (its own inverse).
_AXES = {0: ((1, 2, 0, 3), (1, 0, 2)),
         1: ((2, 0, 3, 1, 4), (0, 2, 1, 3))}


def transformer_layer(stream: Tensor | np.ndarray, layer: LayerParams,
                      addmask: np.ndarray | None, n_heads: int, eps: float,
                      cache: LayerKV | None = None) -> Tensor | np.ndarray:
    """One pre-norm block: masked self-attention + MLP, both residual.

    The forward computes on plain arrays. An ndarray stream gets an ndarray
    back. A Tensor stream gets a Tensor that is one tape node, whose parents
    are the stream and the six `LayerParams` tensors, and whose backward
    (`_layer_backward`) gives the gradients of the same layer composed from
    tensor ops, bit for bit. The stream may carry a leading batch axis,
    (B, L, d): B sequences of one length under one mask. `addmask` holds
    the stream's rows of the window's additive mask; None adds nothing, for
    rows that see every key.

    The keys and values are written into `cache`, or into a new window-sized
    `LayerKV` with the stream's leading axes, and attention reads the whole
    window's from it; with a filled cache (no-grad only) the stream holds
    only the window's last rows.
    """
    taped = isinstance(stream, Tensor)
    if taped and cache is not None:
        raise ContractViolationError("a taped layer computes its own keys and values")
    params = (layer.attn_norm, layer.w_qkv, layer.w_attn_out, layer.mlp_norm, layer.w_up,
              layer.w_down)
    attn_norm, w_qkv, w_attn_out, mlp_norm, w_up, w_down = [t.data for t in params]
    x = stream.data if taped else stream
    *lead, L, d = x.shape
    split, merge = _AXES[len(lead)]
    dh = d // n_heads
    scale = 1.0 / math.sqrt(dh)
    a, inv1, _ = _rmsnorm_data(x, attn_norm, eps)
    q, k, v = np.matmul(a, w_qkv).reshape(*lead, L, 3, n_heads, dh).transpose(split)
    # keys in a contiguous ([B,] heads, dh, L) buffer, as a prefix cache
    # holds them: on a strided view the scores' matmul can give other bits
    k_t, v = (LayerKV.empty(n_heads, L, dh, lead) if cache is None else cache).write(k, v)
    scores = np.matmul(q, k_t) * scale
    if addmask is not None:
        scores = scores + addmask
    probs = _softmax_data(scores)
    ctx = np.matmul(probs, v).transpose(merge).reshape(*lead, L, d)
    x1 = x + np.matmul(ctx, w_attn_out)
    m, inv2, _ = _rmsnorm_data(x1, mlp_norm, eps)
    u = np.matmul(m, w_up)
    su, sig = _silu_data(u)
    out = x1 + np.matmul(su, w_down)
    if not taped:
        return out
    # a, m, su and the normed rows are each one multiply from arrays kept
    # here: the backward redoes those multiplies, so the graph does not
    # hold them until it runs
    saved = (x, inv1, q, k_t, v, probs, ctx, x1, inv2, u, sig)
    return T._make(out, (stream, *params), _layer_backward(stream, params, saved, scale))


def _layer_backward(stream: Tensor, params: tuple, saved: tuple, scale: float):
    """The backward of one taped `transformer_layer`, over the arrays its
    forward saved. The norms' outputs and silu's are recomputed here with
    the forward's own multiplies (`_rmsnorm_data`, `_silu_data`), so they
    have its bits. It runs the chain rule in the order the composed tensor
    ops' backwards would, so every gradient has their bits: a stacked
    operand's weight gradient is one product over all rows (as in
    `tensor.matmul`), gain gradients are summed as `_unbroadcast` sums
    them, and the residual's gradient comes before the norm's."""
    x, inv1, q, k_t, v, probs, ctx, x1, inv2, u, sig = saved
    attn_norm, w_qkv, w_attn_out, mlp_norm, w_up, w_down = [t.data for t in params]
    *lead, L, d = x.shape
    split, merge = _AXES[len(lead)]
    n_heads, dh = q.shape[-3], q.shape[-1]

    def bwd(g, table):
        # out = x1 + silu(m @ w_up) @ w_down
        normed2 = x1 * inv2
        m = normed2 * mlp_norm
        g_w_down = _weight_grad(u * sig, g)
        g_u = _silu_grad(np.matmul(g, w_down.T), u, sig)
        g_w_up = _weight_grad(m, g_u)
        g_m = np.matmul(g_u, w_up.T)
        g_mlp_norm = _unbroadcast(g_m * normed2, mlp_norm.shape)
        g_x1 = g + _rmsnorm_grad(g_m, x1, mlp_norm, inv2)
        # x1 = x + merge(softmax(q k^T * scale + mask) v) @ w_attn_out
        g_w_attn_out = _weight_grad(ctx, g_x1)
        g_ctx = np.matmul(g_x1, w_attn_out.T).reshape(*lead, L, n_heads, dh).transpose(merge)
        g_probs = np.matmul(g_ctx, v.swapaxes(-1, -2))
        g_v = np.matmul(probs.swapaxes(-1, -2), g_ctx)
        g_scores = _softmax_grad(g_probs, probs) * scale
        g_q = np.matmul(g_scores, k_t.swapaxes(-1, -2))
        g_k = np.matmul(q.swapaxes(-1, -2), g_scores).swapaxes(-1, -2)
        # the three heads' gradients written through the split into one
        # contiguous (..., L, 3d) array
        g_qkv = np.empty((*lead, L, 3, n_heads, dh))
        g_split = g_qkv.transpose(split)
        g_split[0], g_split[1], g_split[2] = g_q, g_k, g_v
        g_qkv = g_qkv.reshape(*lead, L, 3 * d)
        normed1 = x * inv1
        g_w_qkv = _weight_grad(normed1 * attn_norm, g_qkv)
        g_a = np.matmul(g_qkv, w_qkv.T)
        g_attn_norm = _unbroadcast(g_a * normed1, attn_norm.shape)
        T._push(table, stream, g_x1 + _rmsnorm_grad(g_a, x, attn_norm, inv1))
        grads = (g_attn_norm, g_w_qkv, g_w_attn_out, g_mlp_norm, g_w_up, g_w_down)
        for t, grad in zip(params, grads):
            T._push(table, t, grad)

    return bwd


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


def forward(x, params: BackboneParams, prefix: PrefixKV | None = None) -> tuple[Tensor, Tensor]:
    """Run the denoiser on every row of sequence state `x` (ids, prompt_len,
    block_size); for the rows up to a block, pass `x.window(block)`.

    Returns (h, logits): h is the final post-norm hidden state (the tensor
    that multiplies the LM head), logits = h @ w_lm. Under `no_grad` every
    intermediate is a plain ndarray and only h and logits are wrapped. A
    window's rows see no later row, yet their bits are not those of the same
    rows of a full forward: a matmul over another row count rounds
    differently (by up to ~2e-14 at the default widths).

    `prefix` (no-grad only) caches the rows before its end, see `PrefixKV`:
    an empty one is filled by this forward, a filled one limits the work to
    the rows from its end on. Either way h and logits are new arrays over
    every row of `x`.

    `x.ids` of shape (B, L) is a batch of B sequences that share
    prompt_len and so one mask: h and logits get a leading B axis. A batch
    runs on the tape or under `no_grad` and may take a prefix; a stacked
    window forward is bit-equal to each sequence's own (measured at the
    default widths, with and without a prefix).
    """
    cfg = params.config
    ids = np.asarray(x.ids, dtype=np.int64)
    if ids.ndim not in (1, 2):
        raise InvalidShapeError(f"token ids must be (L,) or (B, L), got shape {ids.shape}")
    L = ids.shape[-1]
    if L > cfg.max_len:
        raise InvalidShapeError(f"sequence length {L} exceeds max_len {cfg.max_len}")
    check_ids(ids, cfg)
    start, caches = 0, [None] * len(params.layers)
    if prefix is not None:
        start = prefix.begin(ids, x, cfg)
        caches = prefix.layers
    # the rows from `start` on take their rows of the mask; the last
    # block's rows see every key, so a filled prefix whose tail is that
    # block adds no mask
    if start and L - start == x.block_size:
        addmask = None
    else:
        addmask = additive_mask(L, x.block_size, x.prompt_len)[start:]

    ops = active_ops()
    final_norm, w_lm = operands(ops, params.final_norm, params.w_lm)
    stream = input_embedding(params, ids[..., start:], start)
    for layer, cache in zip(params.layers, caches):
        stream = transformer_layer(stream, layer, addmask, cfg.n_heads, cfg.norm_eps, cache)
    h = ops.rmsnorm(stream, final_norm, cfg.norm_eps)
    logits = ops.matmul(h, w_lm)
    if prefix is not None:
        h, logits = prefix.complete(h, logits)
    return T._as_tensor(h), T._as_tensor(logits)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_backbone(path: str, params: BackboneParams) -> None:
    checkpoint.save_params(path, params)


def load_backbone(path: str) -> BackboneParams:
    blob = checkpoint.load_tensors(path)
    cfg = checkpoint.read_config(blob, BackboneParams.PREFIX, BackboneConfig)
    d = cfg.d_model
    checkpoint.check_shapes(blob, {"backbone.embed": (cfg.vocab_size, d),
                                   "backbone.pos": (cfg.max_len, d),
                                   "backbone.layers.0.w_up": (d, cfg.mlp_mult * d)})
    checkpoint.check_layer_count(blob, "backbone.layers", cfg.n_layers)
    return checkpoint.fill(init_backbone(cfg, checkpoint.UNFILLED), blob)
