"""Training loops: backbone pretraining on the toy task, and correction-head
distillation with K-step unrolling.

Both trainers share one step and one loop (`_train_step`, `_fit`). A step
corrupts its batch first and runs only the sequences with a loss, grouped by
(length, prompt_len) so that a group shares one attention mask, as (B, L, d)
stacks of at most `_CHUNK`, each graph freed after its backward.
Pretraining's stack is one of corrupted sequences. The loss reads only the
logits of its masked rows, so the forward takes them as `rows`: after the
last layer's attention, the rest of the backbone runs on those rows alone
(`backbone.forward`). Losses and gradients match a forward over every row
to rounding (~1e-15): a product over a few rows can round otherwise.
Distillation unrolls a
stack: `reveal_ground_truth` takes each (B, L) state to the next, the frozen
backbone runs once per state without gradients (computing the prompt's rows
once, `backbone.PrefixKV`), and one taped head graph runs over the same
stack, with one KL node per unroll step. Gradients and losses match a
per-sequence loop to rounding (~1e-15). A step where no sequence has a loss
logs a loss of 0.0 and makes no update. Only the correction head's
parameters ever receive updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import backbone as bb
from . import mrp as mrp_mod
from .corpus import MASK_ID, Example
from .diffusion import SequenceState, corrupt, maskable, state_from_example
from .errors import (ContractViolationError, DivergenceError, InvalidConfigError,
                     InvalidShapeError, as_int64, check_int, is_finite_real)
from .numerics import tensor as T
from .numerics.optim import OptimizerState, adamw_step, cosine_lr
from .numerics.tensor import Tensor, backward, no_grad, zero_grads


@dataclass(frozen=True)
class TrainConfig:
    """A training run's schedule; checked when built, InvalidConfigError if invalid."""

    epochs: int = 1
    batch_size: int = 16
    peak_lr: float = 1e-3
    min_lr: float = 1e-5
    weight_decay: float = 0.01
    seed: int = 0
    max_steps: int | None = None  # cap for quick runs; None = full epoch count
    log_every: int = 50

    def __post_init__(self):
        for name in ("peak_lr", "min_lr", "weight_decay"):
            value = getattr(self, name)
            if not (is_finite_real(value) and value >= 0):
                raise InvalidConfigError(f"{name} must be finite and >= 0, got {value!r}")
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
    return replace(states[0], ids=np.stack([x.ids for x in states]))


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
# little faster but raise it by ~20%. With the default one-layer head,
# distillation's graph over a stack of 4 peaks just above pretraining's
# (~51.2 against ~50.7 MB, read after each phase of a run), and the train
# benchmark reports ~52.5 MB. At 6 and 8, pretraining's graph peaks higher:
# the benchmark reports ~54.2 and ~56.4 MB, with op_cost_p50 ~7% and ~11%
# lower (2-vCPU x86 host).
_CHUNK = 4


def _train_step(named: list, opt: OptimizerState, stacks: list, chunk_loss,
                batch_size: int) -> tuple[float, list]:
    """One optimizer step over a batch, shared by both trainers.

    `stacks` holds one (clean, corrupted) pair of (B, L) stacks per shape
    group of the batch: the group's sequences that have a loss, each group
    stacked once. `chunk_loss(x0, xt)` runs on row slices of at most
    `_CHUNK` rows of a pair, in order, and returns (total, per_seq): the
    chunk's loss Tensor and one entry per row. Each total's gradient is
    added over `batch_size`, and its graph is freed before the next chunk
    builds its own. Returns the mean loss over the rows and their entries.
    A non-finite mean raises DivergenceError; a step with no rows makes no
    update and only advances the step count.
    """
    zero_grads([t for _, t in named])
    loss_sum, used = 0.0, []
    for clean, corrupted in stacks:
        for lo in range(0, len(clean.ids), _CHUNK):
            x0, xt = (replace(x, ids=x.ids[lo:lo + _CHUNK]) for x in (clean, corrupted))
            total, per_seq = chunk_loss(x0, xt)
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
    batch of one, and a sequence with nothing masked adds nothing. The
    logits hold one row per position of the state, or one row per masked
    position in row-major order (`backbone.forward` on
    `rows=np.flatnonzero(x.masked)`); other logits, targets that are not
    integers, a target array of another shape than the state's, or a
    target id outside [0, V), raise InvalidShapeError.
    """
    rows = np.flatnonzero(x.masked)
    per_position = logits.shape[:-1] == x.ids.shape
    if not per_position and logits.shape[:-1] != rows.shape:
        raise InvalidShapeError(
            f"logits of shape {logits.shape} for a state of shape {x.ids.shape} "
            f"with {len(rows)} masked positions"
        )
    if len(rows) == 0:
        return None
    vocab = logits.shape[-1]
    targets = as_int64("targets", targets, InvalidShapeError)
    if targets.shape != x.masked.shape:
        raise InvalidShapeError(
            f"targets of shape {targets.shape} for a state of shape {x.masked.shape}"
        )
    picked_ids = targets.ravel()[rows]
    if picked_ids.min() < 0 or picked_ids.max() >= vocab:
        raise InvalidShapeError(f"target ids must lie in [0, {vocab})")
    if per_position:
        flat = logits if logits.ndim == 2 else T.reshape(logits, (-1, vocab))
        logits = T.select_rows(flat, rows)
    picked = T.take_per_row(T.log_softmax_rows(logits), picked_ids)
    masked = x.masked.reshape(-1, x.masked.shape[-1])
    # a row's sequence has at least this row masked: no count is zero
    weights = -1.0 / masked.sum(axis=1)[rows // masked.shape[1]]
    return T.sum_all(T.mul(picked, weights))


def train_backbone(
    examples: list[Example],
    cfg: TrainConfig,
    bb_cfg: bb.BackboneConfig,
    log_rows: list | None = None,
) -> bb.BackboneParams:
    """Pretrain the denoiser with masked cross-entropy on corrupted inputs.

    A step corrupts its batch in order, stacks its sequences with a masked
    position once per (length, prompt_len) group, and runs chunks of at
    most `_CHUNK` rows, one taped graph each, whose forward computes the
    logits of the masked positions only. The gradient and the logged loss
    are the mean over those sequences of each one's mean CE, as a loop over
    single sequences would give them.
    """
    if not examples:
        raise InvalidConfigError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    params = bb.init_backbone(bb_cfg, rng)
    named = params.named_tensors()

    def chunk_loss(x0, xt):
        # only the masked rows' logits enter the loss
        _, logits = bb.forward(xt, params, rows=np.flatnonzero(xt.masked))
        # every row has a loss, and pretraining logs no per-step losses
        return masked_cross_entropy(logits, xt, x0.ids), [()] * len(xt.ids)

    def step(batch, opt):
        pairs = []
        for ex in batch:
            x0 = state_from_example(ex, bb_cfg.block_size, all_masked=False)
            xt = corrupt(x0, rng)
            if xt.masked.any():
                pairs.append((x0, xt))
        # grouped after the filter, which sets the order gradients are summed in
        groups = _groups(pairs, lambda pair: _shape_key(pair[1])).values()
        stacks = [(_stack([x0 for x0, _ in g]), _stack([xt for _, xt in g])) for g in groups]
        loss, _ = _train_step(named, opt, stacks, chunk_loss, len(batch))
        return loss, ()

    _fit(examples, cfg, params, rng, step, log_rows)
    return params


# ---------------------------------------------------------------------------
# ground-truth reveal for distillation
# ---------------------------------------------------------------------------


def _check_aligned(x: SequenceState, x0: SequenceState) -> None:
    """Raise unless x0 holds a clean sequence for each of x's: InvalidShapeError
    for ids of another shape, ContractViolationError for another grid."""
    if x.ids.shape != x0.ids.shape:
        raise InvalidShapeError(
            f"state of shape {x.ids.shape} for clean sequences of shape {x0.ids.shape}"
        )
    if (x.prompt_len, x.block_size) != (x0.prompt_len, x0.block_size):
        raise ContractViolationError("state has another prompt_len or block_size than x0")


def reveal_ground_truth(x: SequenceState, x0: SequenceState, k: int) -> SequenceState:
    """Reveal the k lowest-index masked positions of every block (restoring
    tokens from x0), of one sequence or a (B, L) stack. Blocks with fewer
    than k masks reveal what remains. k must be an integer >= 1
    (InvalidConfigError), and x0 must fit x (`_check_aligned`)."""
    check_int("reveal k", k, 1)
    _check_aligned(x, x0)
    resp = x.ids[..., x.prompt_len:]
    # (..., n_blocks, block_size): a mask is revealed while at most k of its
    # block's masks lie at or before it
    masked = (resp == MASK_ID).reshape(*resp.shape[:-1], -1, x.block_size)
    revealed = (masked & (np.cumsum(masked, axis=-1) <= k)).reshape(resp.shape)
    out = x.clone()
    out.ids[..., x.prompt_len:][revealed] = x0.ids[..., x.prompt_len:][revealed]
    return out


def _keeps_a_mask(x: SequenceState, k: int) -> np.ndarray:
    """Which rows of a (B, L) stack keep a masked position after
    `reveal_ground_truth(x, x0, k)`: those with a response block of more
    than k masks, counted without revealing."""
    resp = x.masked[:, x.prompt_len:]
    counts = resp.reshape(len(resp), -1, x.block_size).sum(axis=-1)
    return (counts > k).any(axis=1)


# ---------------------------------------------------------------------------
# distillation loss (the KL to the teacher of the residual-corrected logits)
# ---------------------------------------------------------------------------


def _check_corruption(x0: SequenceState, xt: SequenceState) -> None:
    """Raise unless xt could come from `corrupt(x0)`: InvalidShapeError for
    another shape, ContractViolationError when xt has another prompt_len or
    block_size, when x0 is not clean, or unless xt holds MASK_ID at some of
    x0's `maskable` positions and x0's ids everywhere else."""
    _check_aligned(xt, x0)
    if x0.masked.any():
        raise ContractViolationError("kd_sequence_loss expects clean sequences")
    if not np.array_equal(xt.ids, np.where(xt.masked & maskable(x0), MASK_ID, x0.ids)):
        raise ContractViolationError("corrupted state changes a token or masks a non-maskable one")


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
    from; when it is None, the stack is corrupted with `corrupt(x0, rng)`,
    row by row. The unroll keeps `unroll + 1` stacked states:
    states[0] = x_t and states[j + 1] = reveal_ground_truth(states[j]).
    Only the sequences still masked in states[1] have a loss; the others
    take no part, and a stack with none returns before any forward. The
    frozen backbone runs once per state without gradients: states[0] gives
    the hidden states and base logits, states[j + 1] the teacher of step
    j + 1. The head runs on states[j + 1] with the accumulated hiddens, its
    logit residuals accumulate on the base logits, and the step's loss is
    the KL from the teacher to that corrected student over each sequence's
    still-masked positions, a mean per sequence.

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
    if xt is None:
        xt = corrupt(x0, rng)
    else:
        _check_corruption(x0, xt)
    L = x0.ids.shape[-1]
    x0, xt = (SequenceState(x.ids.reshape(-1, L), x.prompt_len, x.block_size) for x in (x0, xt))
    states = [xt]
    for _ in range(k_steps):
        states.append(reveal_ground_truth(states[-1], x0, g_cfg.reveal_k))
    # the teacher's and the head's stack: the sequences that have a loss
    has_loss = states[1].masked.any(axis=1)
    per_seq = [[] if b else None for b in has_loss.tolist()]
    if not has_loss.any():
        return None, per_seq
    states = [SequenceState(x.ids[has_loss], x.prompt_len, x.block_size) for x in states]
    # the states differ only in the response, so the first forward caches
    # the prompt's rows and the later ones compute only the response's
    prefix = bb.PrefixKV(x0.prompt_len)
    with no_grad():
        outs = [bb.forward(x, bb_params, prefix=prefix) for x in states]

    active = np.flatnonzero(has_loss).tolist()
    h_acc, corrected = outs[0]
    vocab = corrected.shape[-1]
    total = None
    for j in range(k_steps):
        x_cur = states[j + 1]
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

    The batch is grouped by (length, prompt_len) in first-seen order; each
    group is stacked once and corrupted. Only the rows that keep a masked
    position after the first ground-truth reveal have a loss
    (`_keeps_a_mask`); they run in chunks of at most `_CHUNK`, one
    `kd_sequence_loss` and one backward per chunk. Gradients flow only into
    the head: backbone forwards run without the tape, and the hidden state
    enters the head's graph as a constant leaf.
    """
    stacks = []
    for group in _groups(batch, _shape_key).values():
        x0 = _stack(group)
        xt = corrupt(x0, rng)
        keep = _keeps_a_mask(xt, g_params.config.reveal_k)
        stacks.append((replace(x0, ids=x0.ids[keep]), replace(xt, ids=xt.ids[keep])))

    def chunk_loss(x0, xt):
        return kd_sequence_loss(x0, bb_params, g_params, None, rng, xt=xt)

    loss, per_seq = _train_step(g_params.named_tensors(), opt, stacks, chunk_loss, len(batch))
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
