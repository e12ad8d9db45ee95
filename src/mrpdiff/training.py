"""Training loops: backbone pretraining on the toy task, and correction-head
distillation with K-step unrolling.

Both trainers share one step and one loop (`_train_step`, `_fit`). A step
runs its batch as a few graphs, not one per sequence: sequences that share
length and prompt_len share one attention mask, so they go through one
(B, L, d) forward together, in chunks of at most `_CHUNK`, each graph freed
after its backward. Both trainers corrupt the whole batch first and stack
only the sequences that have a loss. Pretraining's chunk is a stack of
corrupted sequences. Distillation's is a stack of clean sequences with
their corruptions, each of which keeps a masked position after the first
reveal: one no-grad teacher forward per unroll state over the stack, and
one taped head graph over the same stack, with one KL node per unroll
step over all its still-masked rows. The unroll states of a stack differ
only in the response, so the teacher computes the prompt's rows once per
stack and reuses their keys and values (`backbone.PrefixKV`). Gradients
and losses match a per-sequence loop to rounding (~1e-15). A step where
no sequence has a loss logs a loss of 0.0 and makes no update.

The distillation teacher is always the frozen backbone run without
gradients; only the correction head's parameters ever receive updates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import mrp as mrp_mod
from .corpus import MASK_ID, PAD_ID, Example
from .diffusion import SequenceState, corrupt, state_from_example
from .errors import (ContractViolationError, DivergenceError, InvalidConfigError,
                     InvalidShapeError, check_int)
from .numerics import tensor as T
from .numerics.optim import OptimizerState, adamw_step, cosine_lr
from .numerics.tensor import Tensor, backward, no_grad, zero_grads


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 16
    peak_lr: float = 1e-3
    min_lr: float = 1e-5
    weight_decay: float = 0.01
    seed: int = 0
    max_steps: int | None = None  # cap for quick runs; None = full epoch count
    log_every: int = 50

    def validate(self) -> None:
        # a NaN fails every comparison, so each check is written to pass
        # only finite values in range
        for name in ("peak_lr", "min_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidConfigError(f"{name} must be finite and >= 0")
        for name in ("epochs", "batch_size", "log_every"):
            check_int(name, getattr(self, name), 1)
        if self.max_steps is not None:
            check_int("max_steps", self.max_steps, 1)
        check_int("seed", self.seed, 0)


def _plan_steps(n_examples: int, cfg: TrainConfig) -> int:
    per_epoch = max(1, n_examples // cfg.batch_size)
    steps = cfg.epochs * per_epoch
    if cfg.max_steps is not None:
        steps = min(steps, cfg.max_steps)
    return steps


def _batches(n: int, cfg: TrainConfig, rng: np.random.Generator, steps: int):
    """Yield index arrays; reshuffles once per epoch."""
    emitted = 0
    width = min(cfg.batch_size, n)
    while emitted < steps:
        order = rng.permutation(n)
        for lo in range(0, n - width + 1, width):
            if emitted >= steps:
                return
            yield order[lo: lo + width]
            emitted += 1


def _stack(states: list[SequenceState]) -> SequenceState:
    """One state whose ids are (B, L): sequences of one length and
    prompt_len, which share one attention mask."""
    first = states[0]
    return SequenceState(ids=np.stack([x.ids for x in states]),
                         prompt_len=first.prompt_len, block_size=first.block_size)


def _shape_key(x: SequenceState) -> tuple[int, int]:
    """(length, prompt_len): sequences that agree on both can be stacked."""
    return x.length, x.prompt_len


def _groups(items: list, key) -> dict:
    """`items` grouped by `key(item)`, groups and items in first-seen order."""
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


# Sequences per taped graph, in both trainers. Every intermediate of a graph
# is live until its backward. Pretraining: a graph of 4 takes ~0.7x the time
# of 4 single-sequence graphs and raises peak memory by ~7%; 8 or 16 are a
# little faster but raise it by ~20%. Distillation: the head's graph over a
# stack sets the train benchmark's peak RSS; with a layer tape of 11 arrays
# (see `backbone.transformer_layer`) and only sequences with a loss in a
# stack, stacks of 4 peak at ~56.3 MB, and stacks of 6 and 8 at ~59.2 and
# ~61.7 MB (2-vCPU x86 host). Stacks of 8 cut the train op_cost_p90 by a
# further ~13%, at ~10% more peak memory.
_CHUNK = 4


def _train_step(named: list, opt: OptimizerState, pairs: list, chunk_loss,
                batch_size: int) -> tuple[float, list]:
    """One optimizer step over a batch, shared by both trainers.

    `pairs` are the (clean, corrupted) sequences of the batch that have a
    loss. Groups them by the corrupted sequence's `_shape_key` in
    first-seen order and calls `chunk_loss` on runs of at most `_CHUNK`
    pairs of a group. It returns (total, per_seq): the chunk's loss Tensor
    and one entry per pair. Each total's gradient is added over
    `batch_size`, and its graph is freed before the next chunk builds its
    own. Returns the mean loss over the pairs and their entries. A
    non-finite mean raises DivergenceError; a step with no pairs makes no
    update and only advances the step count.
    """
    zero_grads([t for _, t in named])
    loss_sum, used = 0.0, []
    for group in _groups(pairs, lambda pair: _shape_key(pair[1])).values():
        for lo in range(0, len(group), _CHUNK):
            total, per_seq = chunk_loss(group[lo:lo + _CHUNK])
            used += per_seq
            backward(T.scale(total, 1.0 / batch_size))
            loss_sum += total.item()
            del total  # frees the chunk's graph before the next one is built
    if not used:
        opt.step_count += 1
        return 0.0, used
    mean_loss = loss_sum / len(used)
    if not np.isfinite(mean_loss):
        raise DivergenceError(f"loss became {mean_loss} at step {opt.step_count}")
    adamw_step(named, opt)
    return mean_loss, used


def _fit(examples: list[Example], cfg: TrainConfig, params, rng: np.random.Generator,
         step, log_rows: list | None) -> None:
    """The loop both trainers share. Runs `step(batch, opt)` on each
    shuffled batch of examples; it returns (mean loss, mean per-unroll-step
    losses). Every `log_every` steps and at the last one a row logs the
    step, its learning rate, the losses and the wall time so far. The
    parameters hold no gradients on return."""
    steps = _plan_steps(len(examples), cfg)
    opt = OptimizerState(peak_lr=cfg.peak_lr, min_lr=cfg.min_lr, total_steps=steps,
                         weight_decay=cfg.weight_decay)
    t0 = time.perf_counter()
    for i, batch in enumerate(_batches(len(examples), cfg, rng, steps)):
        lr = cosine_lr(opt.step_count, opt)
        loss, per_step = step([examples[j] for j in batch], opt)
        if log_rows is not None and (i % cfg.log_every == 0 or i == steps - 1):
            row = {"step": i, "lr": lr, "loss": loss, "wall_seconds": time.perf_counter() - t0}
            for j, v in enumerate(per_step):
                row[f"loss_step_{j + 1}"] = float(v)
            log_rows.append(row)
    zero_grads([t for _, t in params.named_tensors()])  # the last step's would outlive it


# ---------------------------------------------------------------------------
# backbone pretraining
# ---------------------------------------------------------------------------


def masked_cross_entropy(logits: Tensor, x: SequenceState, targets: np.ndarray) -> Tensor | None:
    """Mean CE over masked response positions (None when nothing is masked).

    On a batch, logits (B, L, V) with `x.masked` and `targets` (B, L), each
    sequence's masked rows weigh 1 / (its masked count): the loss is the sum
    over the B sequences of each one's mean CE; a single sequence is a
    batch of one. Logits without one row per position of the state, a
    target array of another shape than the state's, or a target id outside
    [0, V), raise InvalidShapeError.
    """
    if logits.shape[:-1] != x.ids.shape:
        raise InvalidShapeError(
            f"logits of shape {logits.shape} for a state of shape {x.ids.shape}"
        )
    rows = np.flatnonzero(x.masked)
    if len(rows) == 0:
        return None
    vocab = logits.shape[-1]
    targets = np.asarray(targets)
    if targets.shape != x.masked.shape:
        raise InvalidShapeError(
            f"targets of shape {targets.shape} for a state of shape {x.masked.shape}"
        )
    picked_ids = targets.ravel()[rows]
    if picked_ids.min() < 0 or picked_ids.max() >= vocab:
        raise InvalidShapeError(f"target ids must lie in [0, {vocab})")
    flat = logits if logits.ndim == 2 else T.reshape(logits, (-1, vocab))
    logp = T.log_softmax_rows(T.select_rows(flat, rows))
    picked = T.take_per_row(logp, picked_ids)
    masked = x.masked.reshape(-1, x.masked.shape[-1])
    weights = -1.0 / masked.sum(axis=1)
    return T.sum_all(T.mul(picked, weights[rows // masked.shape[1]]))


def train_backbone(
    examples: list[Example],
    cfg: TrainConfig,
    bb_cfg: bb.BackboneConfig,
    log_rows: list | None = None,
) -> bb.BackboneParams:
    """Pretrain the denoiser with masked cross-entropy on corrupted inputs.

    A step corrupts its batch in order, then groups the sequences with a
    masked position by (length, prompt_len) and runs each group in chunks
    of at most `_CHUNK` sequences, one taped graph per chunk. The gradient
    and the logged loss are the mean over those sequences of each one's
    mean CE, as a loop over single sequences would give them.
    """
    cfg.validate()
    bb_cfg.validate()
    if not examples:
        raise InvalidConfigError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    params = bb.init_backbone(bb_cfg, rng)
    named = params.named_tensors()

    def chunk_loss(chunk):
        xt = _stack([xt for _, xt in chunk])
        _, logits = bb.forward(xt, params)
        targets = np.stack([x0.ids for x0, _ in chunk])
        # every pair has a loss, and pretraining logs no per-step losses
        return masked_cross_entropy(logits, xt, targets), [()] * len(chunk)

    def step(batch, opt):
        pairs = []
        for ex in batch:
            x0 = state_from_example(ex, bb_cfg.block_size, all_masked=False)
            xt = corrupt(x0, rng)
            if xt.masked.any():
                pairs.append((x0, xt))
        loss, _ = _train_step(named, opt, pairs, chunk_loss, len(batch))
        return loss, ()

    _fit(examples, cfg, params, rng, step, log_rows)
    return params


# ---------------------------------------------------------------------------
# ground-truth reveal for distillation
# ---------------------------------------------------------------------------


def reveal_ground_truth(x: SequenceState, x0: SequenceState, k: int) -> SequenceState:
    """Reveal the k lowest-index masked positions of every block (restoring
    tokens from x0). Blocks with fewer than k masks reveal what remains."""
    out = x.clone()
    for block in range(out.n_blocks):
        positions = out.masked_in_block(block)[:k]
        out.ids[positions] = x0.ids[positions]
    return out


# ---------------------------------------------------------------------------
# distillation loss (the KL to the teacher of the residual-corrected logits)
# ---------------------------------------------------------------------------


def _rows(x: SequenceState) -> list[SequenceState]:
    """The sequences of an (L,) or (B, L) state, as views of its rows."""
    L = x.ids.shape[-1]
    return [SequenceState(ids=ids, prompt_len=x.prompt_len, block_size=x.block_size)
            for ids in x.ids.reshape(-1, L)]


def _check_corruption(x0: SequenceState, xt: SequenceState) -> None:
    """Raise unless xt could come from `corrupt(x0)`: InvalidShapeError for
    another shape, ContractViolationError when x0 is not clean, when xt has
    another prompt_len or block_size, when an unmasked position's id
    differs from x0, or when a prompt or PAD position is masked."""
    if xt.ids.shape != x0.ids.shape:
        raise InvalidShapeError(
            f"corrupted state of shape {xt.ids.shape} for clean sequences of shape "
            f"{x0.ids.shape}"
        )
    if x0.masked.any():
        raise ContractViolationError("kd_sequence_loss expects clean sequences")
    if (xt.prompt_len, xt.block_size) != (x0.prompt_len, x0.block_size):
        raise ContractViolationError("corrupted state has another prompt_len or block_size")
    if not np.array_equal(xt.ids, np.where(xt.masked, MASK_ID, x0.ids)):
        raise ContractViolationError("corrupted state changes an unmasked token")
    if xt.masked[..., :x0.prompt_len].any() or (xt.masked & (x0.ids == PAD_ID)).any():
        raise ContractViolationError("corrupted state masks a prompt or PAD position")


def kd_sequence_loss(
    x0: SequenceState,
    bb_params: bb.BackboneParams,
    g_params: mrp_mod.MrpParams,
    cfg: TrainConfig | None,
    rng: np.random.Generator,
    xt: SequenceState | None = None,
) -> tuple[Tensor | None, list]:
    """Unrolled distillation loss for a (B, L) stack of clean sequences
    that share length and prompt_len; a single sequence is a stack of one.

    `xt`, when given, is the stack's corruption and `rng` is not drawn
    from; when it is None, each sequence in stack order is corrupted with
    draws from `rng`, as a loop over its sequences would draw them. Each
    corrupted sequence is then revealed `unroll`
    times (ground-truth tokens per block). A sequence with nothing masked
    after the first reveal has no loss at any step and takes no part in
    what follows; a stack where no sequence has a loss returns before any
    forward. Over the others the frozen backbone runs once, without
    gradients, at each of those states: x_t gives the hidden states and
    base logits, each revealed state the teacher logits of one step; the
    first of those forwards fills a prefix cache of the prompt's rows,
    which the later ones reuse. For each step the head runs on the same
    stack with the revealed sequences and accumulated hiddens; its logit
    residuals accumulate on the base logits, and the loss is the KL from
    the teacher to that corrected student distribution over each
    sequence's still-masked positions, a mean per sequence.

    Returns the total over the stack's sequences and one per-step list per
    sequence, None for a sequence with no loss. The total weighs each
    step's KL by 1 / `unroll`; the per-step losses are the unweighted KLs.
    The total is None when no sequence has a loss. An `xt` of another
    shape than `x0` raises InvalidShapeError, one that is not a corruption
    of `x0` ContractViolationError.

    `cfg` is not read. It stays because the benchmark harness
    (perfbench/workloads.py) passes a TrainConfig positionally.
    """
    g_cfg = g_params.config
    k_steps = g_cfg.unroll
    L = x0.ids.shape[-1]
    clean = _rows(x0)
    if xt is None:
        corrupted = [corrupt(x, rng) for x in clean]
    else:
        _check_corruption(x0, xt)
        corrupted = _rows(xt)

    # paths[b][j]: sequence b corrupted (j = 0) and after j reveals
    paths = []
    for x, x_t in zip(clean, corrupted):
        path = [x_t]
        for _ in range(k_steps):
            path.append(reveal_ground_truth(path[-1], x, g_cfg.reveal_k))
        paths.append(path)
    # the teacher's and the head's stack: the sequences that have a loss
    active = [b for b, path in enumerate(paths) if path[1].masked.any()]
    per_seq = [None] * len(paths)
    if not active:
        return None, per_seq
    for b in active:
        per_seq[b] = []
    # the states differ only in the response, so the first forward caches
    # the prompt's rows and the later ones compute only the response's
    prefix = bb.PrefixKV(x0.prompt_len)
    with no_grad():
        outs = [bb.forward(_stack([paths[b][j] for b in active]), bb_params, prefix=prefix)
                for j in range(k_steps + 1)]

    h_acc, corrected = outs[0]
    vocab = corrected.shape[-1]
    total = None
    for j in range(k_steps):
        x_cur = _stack([paths[b][j + 1] for b in active])
        delta_h, delta_l = mrp_mod.mrp_forward(x_cur, h_acc, g_params, bb_params)
        h_acc = T.add(h_acc, delta_h)
        corrected = T.add(corrected, delta_l)
        # one KL over the still-masked rows of every sequence; a row weighs
        # 1 / unroll over its sequence's masked count
        rows = np.flatnonzero(x_cur.masked)
        counts = x_cur.masked.sum(axis=1)
        seq = rows // L
        kl_seq = np.zeros(len(active))
        if len(rows):
            teacher_logits = outs[j + 1][1].data.reshape(-1, vocab)[rows]
            teacher = T.softmax_rows(T.tensor(teacher_logits))
            flat = T.reshape(corrected, (-1, vocab))
            student = T.softmax_rows(T.select_rows(flat, rows))
            kl = T.kl_per_row(teacher, student)
            step_loss = T.sum_all(T.mul(kl, (1.0 / k_steps) / counts[seq]))
            total = step_loss if total is None else T.add(total, step_loss)
            kl_sum = np.bincount(seq, weights=kl.data, minlength=len(active))
            kl_seq = kl_sum / np.maximum(counts, 1)
        for b, value in zip(active, kl_seq.tolist()):
            per_seq[b].append(value)
    return total, per_seq


def mrp_train_step(
    batch: list[SequenceState],
    bb_params: bb.BackboneParams,
    g_params: mrp_mod.MrpParams,
    opt: OptimizerState,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """One optimizer step of distillation over a batch; returns (mean
    loss, mean per-unroll-step losses) over the sequences that have a loss.

    The batch is grouped by (length, prompt_len) in first-seen order and
    every sequence is corrupted in that order. The sequences that keep a
    masked position after the first ground-truth reveal, the only ones
    with a loss, then run per group in stacks of at most `_CHUNK`, one
    `kd_sequence_loss` and one backward per stack. Gradients flow only
    into the head: backbone forwards run without the tape, and the hidden
    state enters the head's graph as a constant leaf.
    """
    reveal_k = g_params.config.reveal_k
    pairs = []
    for group in _groups(batch, _shape_key).values():
        for x0 in group:
            xt = corrupt(x0, rng)
            if reveal_ground_truth(xt, x0, reveal_k).masked.any():
                pairs.append((x0, xt))

    def chunk_loss(chunk):
        return kd_sequence_loss(_stack([x0 for x0, _ in chunk]), bb_params, g_params, None, rng,
                                xt=_stack([xt for _, xt in chunk]))

    loss, per_seq = _train_step(g_params.named_tensors(), opt, pairs, chunk_loss, len(batch))
    return loss, sum(per_seq, np.zeros(g_params.config.unroll)) / max(len(per_seq), 1)


def train_mrp(
    examples: list[Example],
    bb_params: bb.BackboneParams,
    cfg: TrainConfig,
    g_cfg: mrp_mod.MrpConfig,
    log_rows: list | None = None,
) -> mrp_mod.MrpParams:
    """Distill a correction head against the frozen backbone. The backbone's
    requires_grad flags are restored on return, also when a step raises."""
    cfg.validate()
    g_cfg.validate()
    if not examples:
        raise InvalidConfigError("empty dataset")
    block_size = bb_params.config.block_size
    rng = np.random.default_rng(cfg.seed)
    g_params = mrp_mod.init_mrp(g_cfg, bb_params.config, rng)

    def step(batch, opt):
        batch = [state_from_example(ex, block_size, all_masked=False) for ex in batch]
        return mrp_train_step(batch, bb_params, g_params, opt, rng)

    flags = [t.requires_grad for _, t in bb_params.named_tensors()]
    bb_params.set_requires_grad(False)
    try:
        _fit(examples, cfg, g_params, rng, step, log_rows)
    finally:
        for (_, t), flag in zip(bb_params.named_tensors(), flags):
            t.requires_grad = flag
    return g_params
