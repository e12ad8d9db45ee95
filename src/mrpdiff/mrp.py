"""The residual correction head.

Fuses the backbone's hidden states with embeddings of the revealed
sequence (concat then learned projection), runs its transformer layers
(one by default, `MrpConfig.depth`) under the same block-causal mask, and
emits a hidden residual through a zero-initialized output projection. The
logit residual is that hidden residual pushed through the backbone's own
(bias-free) LM head, so accumulating hiddens and logits in parallel stays
exactly consistent: delta_logits == delta_h @ w_lm by construction.

The backbone is frozen by construction: its embeddings and LM head enter
the head's graph as constants, so a backward through the head reaches the
head's parameters only, whatever the backbone's grad flags are.

The zero output projection makes a freshly initialized head the identity
correction (zero residual), which is the right starting point when the
target itself is a small correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from .backbone import (
    MLP_RATIO,
    BackboneConfig,
    BackboneParams,
    LayerParams,
    ParamSet,
    active_ops,
    additive_mask,
    input_embedding,
    operands,
    transformer_layer,
)
from .errors import InvalidConfigError, InvalidShapeError, check_int
from .numerics import arrays as A
from .numerics import tensor as T
from .numerics.tensor import Tensor

# std of the head's random initial weights (trunk layers and fusion)
_INIT_STD = 0.2


@dataclass(frozen=True)
class MrpConfig:
    """The head's sizes; checked when built, InvalidConfigError if invalid."""

    # trunk transformer layers: one by default, so that a head round costs
    # less than the cached backbone forward it stands in for (one layer over
    # a block's window against every backbone layer over the block); a head
    # file keeps its own depth
    depth: int = 1
    unroll: int = 2           # training unroll steps per backward
    reveal_k: int = 1         # ground-truth tokens revealed per block per step

    def __post_init__(self):
        for name in ("depth", "unroll", "reveal_k"):
            check_int(name, getattr(self, name), 1)


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
    d = bb_cfg.d_model
    # the trunk draws before w_fuse; this order fixes the random stream
    layers = [LayerParams.init(d, rng, _INIT_STD) for _ in range(cfg.depth)]
    return MrpParams(
        config=cfg,
        w_fuse=T.param(rng.normal(0.0, _INIT_STD, (2 * d, d))),
        b_fuse=T.param(np.zeros(d)),
        layers=layers,
        out_norm=T.param(np.ones(d)),
        w_out=T.param(np.zeros((d, d))),
    )


def mrp_forward(x, h: Tensor | np.ndarray, params: MrpParams,
                bb_params: BackboneParams) -> tuple[Tensor, Tensor]:
    """Predict (hidden residual, logit residual) for the post-reveal state x.

    `h`, a Tensor or ndarray, is the running hidden state with one row per
    row of x (a window `x.window(block)` with its h), else
    InvalidShapeError. The trunk reuses the backbone's token/positional
    embeddings and LM head as constants, off the tape; only the fusion,
    trunk layers, output norm and output projection are its own, and only
    they receive gradients. Under `no_grad` it computes on plain
    ndarrays, as `backbone.forward` does. A batch, `h` of shape (B, L, d)
    with `x.ids` of shape (B, L), runs as one stack, as in
    `backbone.forward`. Its ids and positions are checked where they are
    embedded, as in `backbone.forward` (InvalidShapeError).
    """
    cfg = bb_params.config
    d = cfg.d_model
    if params.w_fuse.shape != (2 * d, d):
        raise InvalidConfigError(
            f"correction head of width {params.w_fuse.shape[1]} does not fit a "
            f"backbone of width {d}"
        )
    if not isinstance(h, (Tensor, np.ndarray)):
        raise InvalidShapeError(
            f"hidden state must be a Tensor or ndarray, got {type(h).__name__}")
    if x.ids.shape != h.shape[:-1] or h.shape[-1] != d:
        raise InvalidShapeError(
            f"hidden state of shape {h.shape} does not align with ids of shape {x.ids.shape}"
        )
    ops = active_ops()
    # the embedding checks the ids before a mask is cached; on the tape it
    # runs untaped, so the backbone's rows are constants of the head's graph
    if ops is T:
        with T.no_grad():
            embedded = input_embedding(bb_params, x.ids)
    else:
        embedded = input_embedding(bb_params, x.ids)
    addmask = additive_mask(x.length, x.block_size, x.prompt_len)
    w_fuse, b_fuse, out_norm, w_out = operands(
        ops, params.w_fuse, params.b_fuse, params.out_norm, params.w_out)
    if ops is A and isinstance(h, Tensor):
        h = h.data
    stream = ops.add(ops.matmul(ops.concat_last(embedded, h), w_fuse), b_fuse)
    for layer in params.layers:
        stream = transformer_layer(stream, layer, addmask, cfg.n_heads)
    delta_h = ops.matmul(ops.rmsnorm(stream, out_norm), w_out)
    delta_logits = ops.matmul(delta_h, bb_params.w_lm.data)
    return T._as_tensor(delta_h), T._as_tensor(delta_logits)


# ---------------------------------------------------------------------------
# checkpoint I/O
# ---------------------------------------------------------------------------


def save_mrp(path: str, params: MrpParams) -> None:
    checkpoint.save_params(path, params)


def load_mrp(path: str) -> MrpParams:
    blob = checkpoint.load_tensors(path)
    cfg = checkpoint.read_config(blob, MrpParams.PREFIX, MrpConfig)
    # the file holds no backbone config: the head's width d is the first
    # axis of its first MLP matrix, whose shape is checked before a skeleton
    # of that width is built; fill checks every other shape
    w_up = blob.get("mrp.layers.0.w_up")
    d = w_up.shape[0] if w_up is not None and w_up.ndim == 2 else 1
    checkpoint.check_shapes(blob, {"mrp.layers.0.w_up": (d, MLP_RATIO * d)})
    checkpoint.check_layer_count(blob, "mrp.layers", cfg.depth)
    # one attention head, so that any width is a valid config
    widths = BackboneConfig(d_model=d, n_heads=1)
    return checkpoint.fill(init_mrp(cfg, widths, checkpoint.UNFILLED), blob)
