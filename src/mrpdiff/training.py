"""Training loops: backbone pretraining on the toy task, correction-head
distillation with K-step unrolling, and the direct-distillation ablation.

The distillation teacher is always the frozen backbone run without
gradients; only the correction head's parameters ever receive updates.
Residual and direct variants consume identical random streams for a given
seed, so their comparison is noise-paired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import mrp as mrp_mod
from .corpus import Example
from .diffusion import SequenceState, corrupt, state_from_example
from .errors import DivergenceError, InvalidConfigError
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
        if self.t_kd <= 0:
            raise InvalidConfigError("t_kd must be > 0")
        if self.step_weights is not None:
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


# ---------------------------------------------------------------------------
# backbone pretraining
# ---------------------------------------------------------------------------


def masked_cross_entropy(logits: Tensor, x: SequenceState, targets: np.ndarray) -> Tensor | None:
    """Mean CE over masked response positions (None when nothing is masked)."""
    rows = np.flatnonzero(x.masked)
    if len(rows) == 0:
        return None
    logp = T.log_softmax_rows(T.select_rows(logits, rows))
    picked = T.take_per_row(logp, targets[rows])
    return T.scale(T.sum_all(picked), -1.0 / len(rows))


def train_backbone(
    examples: list[Example],
    cfg: TrainConfig,
    bb_cfg: bb.BackboneConfig,
    log_rows: list | None = None,
) -> bb.BackboneParams:
    """Pretrain the denoiser with masked cross-entropy on corrupted inputs."""
    cfg.validate()
    bb_cfg.validate()
    if not examples:
        raise InvalidConfigError("empty dataset")
    rng = np.random.default_rng(cfg.seed)
    params = bb.init_backbone(bb_cfg, rng)
    named = params.named_tensors()
    tensors = [t for _, t in named]
    steps = _plan_steps(len(examples), cfg)
    opt = OptimizerState(peak_lr=cfg.peak_lr, min_lr=cfg.min_lr, total_steps=steps,
                         weight_decay=cfg.weight_decay)
    t0 = time.perf_counter()
    for step, batch in enumerate(_batches(len(examples), cfg, rng, steps)):
        zero_grads(tensors)
        loss_sum = 0.0
        used = 0
        for idx in batch:
            x0 = state_from_example(examples[idx], bb_cfg.block_size, all_masked=False)
            xt = corrupt(x0, rng)
            if not xt.masked.any():
                continue
            _, logits = bb.forward(xt, params)
            loss = masked_cross_entropy(logits, xt, x0.ids)
            backward(T.scale(loss, 1.0 / len(batch)))
            loss_sum += loss.item()
            used += 1
        if used == 0:
            opt.step_count += 1
            continue
        mean_loss = loss_sum / used
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"backbone loss became {mean_loss} at step {step}")
        lr = adamw_step(named, opt)
        if log_rows is not None and (step % cfg.log_every == 0 or step == steps - 1):
            log_rows.append({"step": step, "lr": lr, "loss": mean_loss,
                             "wall_seconds": time.perf_counter() - t0})
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
    head_override=None,
) -> tuple[Tensor | None, list[float]]:
    """Unrolled distillation loss for one sequence.

    Corrupt x0 to x_t, run the frozen backbone once for hidden states and
    base logits, then for each of `unroll` steps: reveal ground-truth
    tokens per block, fetch the gradient-free teacher logits, run the head
    on the revealed sequence and accumulated hiddens, and take the KL from
    the teacher to the corrected (residual) or standalone (direct) student
    distribution over still-masked positions. Returns (total, per-step).
    """
    g_cfg = g_params.config
    k_steps = g_cfg.unroll
    weights = _weights(cfg, k_steps)
    head = head_override or (lambda x, h: mrp_mod.mrp_forward(x, h, g_params, bb_params))

    xt = corrupt(x0, rng)
    with no_grad():
        h_t, l_t = bb.forward(xt, bb_params)
    h_acc = T.tensor(h_t.data)
    corrected = T.tensor(l_t.data)
    x_cur = xt
    total = None
    per_step = []
    for j in range(k_steps):
        x_cur = reveal_ground_truth(x_cur, x0, g_cfg.reveal_k)
        with no_grad():
            _, l_teacher = bb.forward(x_cur, bb_params)
        delta_h, delta_l = head(x_cur, h_acc)
        h_acc = T.add(h_acc, delta_h)
        if g_cfg.objective == "residual":
            corrected = T.add(corrected, delta_l)
            student_logits = corrected
        else:
            student_logits = delta_l
        rows = np.flatnonzero(x_cur.masked)
        if len(rows) == 0:
            per_step.append(0.0)
            continue
        teacher = T.softmax_rows(T.tensor(l_teacher.data[rows] / cfg.t_kd))
        student = T.softmax_rows(T.scale(T.select_rows(student_logits, rows), 1.0 / cfg.t_kd))
        step_loss = T.scale(T.kl_rows(teacher, student), weights[j])
        per_step.append(step_loss.item() / weights[j])
        total = step_loss if total is None else T.add(total, step_loss)
    return total, per_step


def mrp_train_step(
    batch: list[SequenceState],
    bb_params: bb.BackboneParams,
    g_params: mrp_mod.MrpParams,
    opt: OptimizerState,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """One optimizer step of residual (or direct) distillation over a batch;
    returns (mean loss, mean per-unroll-step losses).

    Gradients flow only into the head: backbone forwards run without the
    tape, and the hidden state enters the head's graph as a constant leaf.
    """
    named = g_params.named_tensors()
    zero_grads([t for _, t in named])
    loss_sum, used = 0.0, 0
    step_sums = np.zeros(g_params.config.unroll)
    for x0 in batch:
        loss, per_step = kd_sequence_loss(x0, bb_params, g_params, cfg, rng)
        if loss is None:
            continue
        backward(T.scale(loss, 1.0 / len(batch)))
        loss_sum += loss.item()
        step_sums += np.asarray(per_step)
        used += 1
    if used == 0:
        opt.step_count += 1
        return 0.0, step_sums
    mean_loss = loss_sum / used
    if not np.isfinite(mean_loss):
        raise DivergenceError(f"distillation loss became {mean_loss}")
    adamw_step(named, opt)
    return mean_loss, step_sums / used


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
    steps = _plan_steps(len(examples), cfg)
    opt = OptimizerState(peak_lr=cfg.peak_lr, min_lr=cfg.min_lr, total_steps=steps,
                         weight_decay=cfg.weight_decay)
    flags = [t.requires_grad for _, t in bb_params.named_tensors()]
    bb_params.set_requires_grad(False)
    t0 = time.perf_counter()
    try:
        for step, batch_idx in enumerate(_batches(len(examples), cfg, rng, steps)):
            batch = [state_from_example(examples[i], block_size, all_masked=False)
                     for i in batch_idx]
            lr = cosine_lr(opt.step_count, opt)
            loss, per_step = mrp_train_step(batch, bb_params, g_params, opt, cfg, rng)
            if log_rows is not None and (step % cfg.log_every == 0 or step == steps - 1):
                row = {"step": step, "lr": lr, "loss": loss,
                       "wall_seconds": time.perf_counter() - t0}
                for j, v in enumerate(per_step):
                    row[f"loss_step_{j + 1}"] = float(v)
                log_rows.append(row)
    finally:
        for (_, t), flag in zip(bb_params.named_tensors(), flags):
            t.requires_grad = flag
    return g_params
