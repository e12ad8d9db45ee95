"""Training loops: backbone pretraining on the toy task, correction-head
distillation with K-step unrolling, and the direct-distillation ablation.

Both trainers share one step and one loop (`_train_step`, `_fit`). A step
runs its batch as a few graphs, not one per sequence: sequences that share
length and prompt_len share one attention mask, so they go through one
(B, L, d) forward together, in chunks of at most `_CHUNK`, each graph freed
after its backward. Pretraining's chunk is a stack of corrupted sequences.
Distillation's is a stack of clean sequences: one no-grad teacher forward
per unroll state over the stack, and one taped head graph over those that
have a loss, with one KL node per unroll step over all their still-masked
rows. The unroll states of a stack differ only in the response, so the
teacher computes the prompt's rows once per stack and reuses their keys
and values (`backbone.PrefixKV`). Gradients and losses match a
per-sequence loop to rounding (~1e-15). A step where no sequence has a
loss logs a loss of 0.0 and makes no update.

The distillation teacher is always the frozen backbone run without
gradients; only the correction head's parameters ever receive updates.
Residual and direct variants consume identical random streams for a given
seed, so their comparison is noise-paired.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import mrp as mrp_mod
from .corpus import Example
from .diffusion import SequenceState, corrupt, state_from_example
from .errors import DivergenceError, InvalidConfigError, InvalidShapeError
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
    t_kd: float = 1.0
    step_weights: list = None   # per-unroll-step loss weights; None = uniform
    max_steps: int | None = None  # cap for quick runs; None = full epoch count
    log_every: int = 50

    def validate(self) -> None:
        # a NaN fails every comparison, so each check is written to pass
        # only finite values in range
        if not (math.isfinite(self.t_kd) and self.t_kd > 0):
            raise InvalidConfigError("t_kd must be finite and > 0")
        for name in ("peak_lr", "min_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidConfigError(f"{name} must be finite and >= 0")
        if self.step_weights is not None:
            if not all(math.isfinite(w) and w >= 0 for w in self.step_weights):
                raise InvalidConfigError("step_weights must be finite and >= 0")
            if abs(sum(self.step_weights) - 1.0) > 1e-9:
                raise InvalidConfigError("step_weights must sum to 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise InvalidConfigError("batch_size and epochs must be >= 1")
        if self.log_every < 1:
            raise InvalidConfigError("log_every must be >= 1")
        if self.max_steps is not None and self.max_steps < 1:
            raise InvalidConfigError("max_steps must be None or >= 1")


def _weights(cfg: TrainConfig, k: int) -> list[float]:
    if cfg.step_weights is None:
        return [1.0 / k] * k
    if len(cfg.step_weights) != k:
        raise InvalidConfigError("step_weights length must equal unroll steps")
    return list(cfg.step_weights)


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
    """One state whose ids and mask flags are (B, L): sequences of one
    length and prompt_len, which share one attention mask."""
    first = states[0]
    return SequenceState(ids=np.stack([x.ids for x in states]),
                         masked=np.stack([x.masked for x in states]),
                         prompt_len=first.prompt_len, block_size=first.block_size)


# Sequences per taped graph, in both trainers. Every intermediate of a graph
# is live until its backward. Pretraining: a graph of 4 takes ~0.7x the time
# of 4 single-sequence graphs and raises peak memory by ~7%; 8 or 16 are a
# little faster but raise it by ~20%. Distillation: the head's graph over a
# stack sets the train benchmark's peak RSS; with a layer tape of 11 arrays
# (see `backbone.transformer_layer`) stacks of 4 peak at ~55.9 MB, and stacks
# of 6 and 8 peak at 59.2 and 61.3 MB and were no faster.
_CHUNK = 4


def _train_step(named: list, opt: OptimizerState, items: list, key, chunk_loss,
                batch_size: int) -> tuple[float, list]:
    """One optimizer step over a batch, shared by both trainers.

    Groups `items` by `key(item)` in first-seen order and calls
    `chunk_loss` on runs of at most `_CHUNK` items of a group. It returns
    (total, per_seq): the chunk's loss Tensor, or None when nothing in it
    has a loss, and one entry per item, None for an item with no loss.
    Each total's gradient is added over `batch_size`, and its graph is
    freed before the next chunk builds its own. Returns the mean loss over
    the items with a loss and their entries. A non-finite mean raises
    DivergenceError; a step where no item has a loss makes no update and
    only advances the step count.
    """
    zero_grads([t for _, t in named])
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    loss_sum, used = 0.0, []
    for group in groups.values():
        for lo in range(0, len(group), _CHUNK):
            total, per_seq = chunk_loss(group[lo:lo + _CHUNK])
            used += [entry for entry in per_seq if entry is not None]
            if total is not None:
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
    batch of one. A target array of another shape than the state's, or a
    target id outside [0, V), raises InvalidShapeError.
    """
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
        loss, _ = _train_step(named, opt, pairs, lambda pair: (pair[1].length, pair[1].prompt_len),
                              chunk_loss, len(batch))
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
        if len(positions):
            out.ids[positions] = x0.ids[positions]
            out.masked[positions] = False
    return out


# ---------------------------------------------------------------------------
# distillation loss (residual and direct objectives)
# ---------------------------------------------------------------------------


def kd_sequence_loss(
    x0: SequenceState,
    bb_params: bb.BackboneParams,
    g_params: mrp_mod.MrpParams,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[Tensor | None, list]:
    """Unrolled distillation loss for a (B, L) stack of clean sequences
    that share length and prompt_len; a single sequence is a stack of one.

    Each sequence in stack order is corrupted to x_t and then revealed
    `unroll` times (ground-truth tokens per block), so a stack draws from
    `rng` what a loop over its sequences would. The frozen backbone then
    runs once, without gradients, over the stack at each of those states:
    x_t gives the hidden states and base logits, each revealed state the
    teacher logits of one step; the first of those forwards fills a
    prefix cache of the prompt's rows, which the later ones reuse. For each
    step the head runs on the revealed sequences and accumulated hiddens,
    and the loss is the KL from the teacher to the corrected (residual) or
    standalone (direct) student distribution over each sequence's
    still-masked positions, a mean per sequence. A sequence with nothing
    masked after the first reveal has no loss at any step and takes no part
    in the head's graph.

    Returns the total over the stack's sequences and one per-step list per
    sequence, None for a sequence with no loss. The total weighs
    each step's KL by its step weight; the per-step losses are the
    unweighted KLs, also for a step of weight 0. The total is None when no
    sequence has a loss.
    """
    g_cfg = g_params.config
    k_steps = g_cfg.unroll
    weights = _weights(cfg, k_steps)
    L = x0.ids.shape[-1]

    # paths[b][j]: sequence b corrupted (j = 0) and after j reveals
    paths = []
    for ids, masked in zip(x0.ids.reshape(-1, L), x0.masked.reshape(-1, L)):
        x = SequenceState(ids=ids, masked=masked, prompt_len=x0.prompt_len,
                          block_size=x0.block_size)
        path = [corrupt(x, rng)]
        for _ in range(k_steps):
            path.append(reveal_ground_truth(path[-1], x, g_cfg.reveal_k))
        paths.append(path)
    # the states differ only in the response, so the first forward caches
    # the prompt's rows and the later ones compute only the response's
    prefix = bb.PrefixKV(x0.prompt_len)
    with no_grad():
        outs = [bb.forward(_stack([path[j] for path in paths]), bb_params, prefix=prefix)
                for j in range(k_steps + 1)]
    active = [b for b, path in enumerate(paths) if path[1].masked.any()]
    per_seq = [None] * len(paths)
    if not active:
        return None, per_seq

    # the head's stack: the sequences that have a loss
    h_t, l_t = outs[0]
    h_acc = T.tensor(h_t.data[active])
    corrected = T.tensor(l_t.data[active])
    vocab = l_t.shape[-1]
    # row r of the head's flattened stack is row r + shift[r // L] of the
    # teacher's
    shift = (np.asarray(active) - np.arange(len(active))) * L
    total = None
    for b in active:
        per_seq[b] = []
    for j in range(k_steps):
        x_cur = _stack([paths[b][j + 1] for b in active])
        delta_h, delta_l = mrp_mod.mrp_forward(x_cur, h_acc, g_params, bb_params)
        h_acc = T.add(h_acc, delta_h)
        if g_cfg.objective == "residual":
            corrected = T.add(corrected, delta_l)
            student_logits = corrected
        else:
            student_logits = delta_l
        # one KL over the still-masked rows of every sequence; a row weighs
        # the step weight over its sequence's masked count
        rows = np.flatnonzero(x_cur.masked)
        counts = x_cur.masked.sum(axis=1)
        seq = rows // L
        kl_seq = np.zeros(len(active))
        if len(rows):
            teacher_logits = outs[j + 1][1].data.reshape(-1, vocab)[rows + shift[seq]]
            teacher = T.softmax_rows(T.tensor(teacher_logits / cfg.t_kd))
            flat = T.reshape(student_logits, (-1, vocab))
            student = T.softmax_rows(T.scale(T.select_rows(flat, rows), 1.0 / cfg.t_kd))
            kl = T.kl_per_row(teacher, student)
            step_loss = T.sum_all(T.mul(kl, weights[j] / counts[seq]))
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
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """One optimizer step of residual (or direct) distillation over a batch;
    returns (mean loss, mean per-unroll-step losses) over the sequences
    that have a loss.

    The batch is grouped by (length, prompt_len), and each group runs in
    stacks of at most `_CHUNK` sequences, one `kd_sequence_loss` and one
    backward per stack; the corruption draws follow that order. Gradients
    flow only into the head: backbone forwards run without the tape, and
    the hidden state enters the head's graph as a constant leaf.
    """
    def chunk_loss(chunk):
        return kd_sequence_loss(_stack(chunk), bb_params, g_params, cfg, rng)

    loss, per_seq = _train_step(g_params.named_tensors(), opt, batch,
                                lambda x0: (x0.length, x0.prompt_len), chunk_loss, len(batch))
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
    _weights(cfg, g_cfg.unroll)  # a step_weights length mismatch fails before any step
    if not examples:
        raise InvalidConfigError("empty dataset")
    block_size = bb_params.config.block_size
    rng = np.random.default_rng(cfg.seed)
    g_params = mrp_mod.init_mrp(g_cfg, bb_params.config, rng)

    def step(batch, opt):
        batch = [state_from_example(ex, block_size, all_masked=False) for ex in batch]
        return mrp_train_step(batch, bb_params, g_params, opt, cfg, rng)

    flags = [t.requires_grad for _, t in bb_params.named_tensors()]
    bb_params.set_requires_grad(False)
    try:
        _fit(examples, cfg, g_params, rng, step, log_rows)
    finally:
        for (_, t), flag in zip(bb_params.named_tensors(), flags):
            t.requires_grad = flag
    return g_params
