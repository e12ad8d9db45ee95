"""The residual correction head.

Fuses the backbone's hidden states with embeddings of the revealed
sequence (concat then learned projection), runs a small stack of
transformer layers under the same block-causal mask, and emits a hidden
residual through a zero-initialized output projection. The logit residual
is that hidden residual pushed through the backbone's own (bias-free) LM
head, so accumulating hiddens and logits in parallel stays exactly
consistent: delta_logits == delta_h @ w_lm by construction.

The zero output projection makes a freshly initialized head the identity
correction (zero residual), which is the right starting point when the
target itself is a small correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from .backbone import (
    BackboneConfig,
    BackboneParams,
    LayerParams,
    ParamSet,
    active_ops,
    additive_mask,
    check_ids,
    input_embedding,
    operands,
    transformer_layer,
)
from .errors import InvalidConfigError, InvalidShapeError
from .numerics import arrays as A
from .numerics import tensor as T
from .numerics.tensor import Tensor

OBJECTIVES = ("residual", "direct")


@dataclass
class MrpConfig:
    depth: int = 3            # trunk transformer layers
    sigma_init: float = 0.2
    unroll: int = 2           # training unroll steps per backward
    reveal_k: int = 1         # ground-truth tokens revealed per block per step
    objective: str = field(default="residual", metadata={"choices": OBJECTIVES})

    def validate(self) -> None:
        if self.depth < 1:
            raise InvalidConfigError("mrp depth must be >= 1")
        if not (math.isfinite(self.sigma_init) and self.sigma_init > 0):
            raise InvalidConfigError("sigma_init must be finite and > 0")
        if self.reveal_k < 1 or self.unroll < 1:
            raise InvalidConfigError("reveal_k and unroll must be >= 1")
        if self.objective not in OBJECTIVES:
            raise InvalidConfigError(f"objective must be one of {OBJECTIVES}")


@dataclass
class MrpParams(ParamSet):
    config: MrpConfig
    w_fuse: Tensor            # 2d x d
    b_fuse: Tensor            # d
    layers: list = field(default_factory=list)
    out_norm: Tensor = None
    w_out: Tensor = None      # d x d, zero-initialized

    PREFIX = "mrp"


def init_mrp(cfg: MrpConfig, bb_cfg: BackboneConfig, rng: np.random.Generator) -> MrpParams:
    cfg.validate()
    d = bb_cfg.d_model
    std = cfg.sigma_init
    # the trunk draws before w_fuse; this order fixes the random stream
    layers = [LayerParams.init(d, bb_cfg.mlp_mult * d, rng, std) for _ in range(cfg.depth)]
    return MrpParams(
        config=cfg,
        w_fuse=T.param(rng.normal(0.0, std, (2 * d, d))),
        b_fuse=T.param(np.zeros(d)),
        layers=layers,
        out_norm=T.param(np.ones(d)),
        w_out=T.param(np.zeros((d, d))),
    )


def mrp_forward(x, h: Tensor | np.ndarray, params: MrpParams,
                bb_params: BackboneParams) -> tuple[Tensor, Tensor]:
    """Predict (hidden residual, logit residual) for the post-reveal state x.

    `h` is the running hidden state with one row per row of x (a window
    `x.window(block)` with its h), else InvalidShapeError. The trunk reuses
    the backbone's token/positional embeddings and LM head; only the fusion,
    trunk layers, output norm and output projection are its own. Under
    `no_grad` it computes on plain ndarrays, as `backbone.forward` does. A
    batch, `h` of shape (B, L, d) with `x.ids` of shape (B, L), runs as one
    stack, as in `backbone.forward`.
    """
    cfg = bb_params.config
    d = cfg.d_model
    if params.w_fuse.shape != (2 * d, d):
        raise InvalidConfigError(
            f"correction head of width {params.w_fuse.shape[1]} does not fit a "
            f"backbone of width {d}"
        )
    ids = np.asarray(x.ids, dtype=np.int64)
    if ids.shape != h.shape[:-1] or h.shape[-1] != d or ids.ndim > 2:
        raise InvalidShapeError(
            f"hidden state of shape {h.shape} does not align with ids of shape {ids.shape}"
        )
    check_ids(ids, cfg)
    addmask = additive_mask(ids.shape[-1], x.block_size, x.prompt_len)
    ops = active_ops()
    w_fuse, b_fuse, out_norm, w_out, w_lm = operands(
        ops, params.w_fuse, params.b_fuse, params.out_norm, params.w_out, bb_params.w_lm)
    if ops is A and isinstance(h, Tensor):
        h = h.data
    stream = ops.add(ops.matmul(ops.concat_last(input_embedding(bb_params, ids), h), w_fuse),
                     b_fuse)
    for layer in params.layers:
        stream = transformer_layer(stream, layer, addmask, cfg.n_heads, cfg.norm_eps)
    delta_h = ops.matmul(ops.rmsnorm(stream, out_norm, cfg.norm_eps), w_out)
    delta_logits = ops.matmul(delta_h, w_lm)
    return T._as_tensor(delta_h), T._as_tensor(delta_logits)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_mrp(path: str, params: MrpParams) -> None:
    checkpoint.save_params(path, params)


def load_mrp(path: str) -> MrpParams:
    blob = checkpoint.load_tensors(path)
    cfg = checkpoint.read_config(blob, MrpParams.PREFIX, MrpConfig)
    # the file holds no backbone config: the head's widths come from its
    # first MLP matrix (d x mlp_mult * d), and fill checks every other shape
    w_up = blob.get("mrp.layers.0.w_up")
    if w_up is None or w_up.ndim != 2 or w_up.shape[0] < 1:
        raise InvalidConfigError(
            "checkpoint record 'mrp.layers.0.w_up' is missing or not a matrix"
        )
    d, hidden = w_up.shape
    checkpoint.check_layer_count(blob, "mrp.layers", cfg.depth)
    widths = BackboneConfig(d_model=d, mlp_mult=hidden // d)
    return checkpoint.fill(init_mrp(cfg, widths, checkpoint.UNFILLED), blob)
