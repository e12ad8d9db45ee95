"""Correction-head distillation leaves the backbone's grad flags as it found
them; finite-difference gradients of the training losses."""

from __future__ import annotations

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import mrp as mrp_mod
from mrpdiff import diffusion, training
from mrpdiff.corpus import EOS_ID, MASK_ID, PAD_ID, gen_arithmetic, make_example
from mrpdiff.diffusion import corrupt, state_from_example
from mrpdiff.errors import (ContractViolationError, DivergenceError, InvalidConfigError,
                            InvalidShapeError)
from mrpdiff.mrp import MrpConfig, init_mrp
from mrpdiff.numerics import tensor as T

from util import check_grads

BB_CFG = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=1, block_size=4, max_len=16)
TRAIN = training.TrainConfig(batch_size=2, max_steps=2)


def _flags(params):
    return [t.requires_grad for _, t in params.named_tensors()]


def test_train_mrp_keeps_a_frozen_backbone_frozen():
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    params.set_requires_grad(False)
    training.train_mrp(gen_arithmetic(0, 4, block_size=4), params, TRAIN, MrpConfig(depth=1))
    assert not any(_flags(params))


def test_trained_parameters_hold_no_gradients():
    examples = gen_arithmetic(0, 4, block_size=4)
    backbone = training.train_backbone(examples, TRAIN, BB_CFG)
    head = training.train_mrp(examples, backbone, TRAIN, MrpConfig(depth=1))
    for params in (backbone, head):
        assert all(t.grad is None for _, t in params.named_tensors())


def test_train_mrp_restores_flags_when_a_step_raises():
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    params.layers[0].w_up.requires_grad = False
    before = _flags(params)
    # 999+999 needs 17 positions, one more than max_len: the first step raises
    too_long = [make_example(999, 999, "+", 4)] * 2
    with pytest.raises(InvalidShapeError):
        training.train_mrp(too_long, params, TRAIN, MrpConfig(depth=1))
    assert _flags(params) == before


def test_train_mrp_checks_the_head_config_before_training():
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    with pytest.raises(InvalidConfigError, match="unroll"):
        training.train_mrp(gen_arithmetic(0, 4, block_size=4), params, TRAIN, MrpConfig(unroll=0))
    assert all(_flags(params))


@pytest.mark.parametrize("field, value", [("log_every", 0), ("max_steps", 0),
                                          ("max_steps", -1)])
def test_train_config_rejects_steps_below_one(field, value):
    cfg = training.TrainConfig(batch_size=2, **{field: value})
    with pytest.raises(InvalidConfigError, match=field):
        cfg.validate()
    # both training loops check before any step (log_every=0 used to divide by
    # zero at step 0, max_steps=0 to return an untrained model)
    with pytest.raises(InvalidConfigError, match=field):
        training.train_backbone(gen_arithmetic(0, 4, block_size=4), cfg, BB_CFG, log_rows=[])
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    with pytest.raises(InvalidConfigError, match=field):
        training.train_mrp(gen_arithmetic(0, 4, block_size=4), params, cfg, MrpConfig(depth=1),
                           log_rows=[])


def test_distillation_corrupts_and_reveals_in_a_fixed_order(monkeypatch):
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0), std=0.3)
    examples = gen_arithmetic(1, 12, block_size=4)
    cfg = training.TrainConfig(batch_size=3, max_steps=3, seed=7)
    states = []

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            states.append((fn.__name__, out.ids.copy(), out.masked.copy()))
            return out
        return call

    monkeypatch.setattr(training, "corrupt", recorded(training.corrupt))
    monkeypatch.setattr(training, "reveal_ground_truth", recorded(training.reveal_ground_truth))
    training.train_mrp(examples, params, cfg, MrpConfig(depth=1))
    # per step of 3 sequences: each is corrupted and revealed once, which
    # tells whether it has a loss; then each one with a loss is revealed at
    # the 2 unroll steps
    want = []
    for _ in range(3):
        checks = states[len(want) + 1:len(want) + 6:2]
        with_loss = sum(bool(masked.any()) for _, _, masked in checks)
        want += ["corrupt", "reveal_ground_truth"] * 3 + ["reveal_ground_truth"] * 2 * with_loss
    assert [name for name, _, _ in states] == want and len(want) > 3 * 6
    assert len({ids.tobytes() for name, ids, _ in states if name == "corrupt"}) > 1


# ---------------------------------------------------------------------------
# finite-difference gradients through the model forwards
# ---------------------------------------------------------------------------


def test_fd_masked_cross_entropy_through_backbone_forward():
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    x0 = state_from_example(make_example(99, 7, "+", 4), 4, all_masked=False)
    xt = corrupt(x0, np.random.default_rng(2), rate=0.6)
    assert xt.masked.any()
    tensors = [t for _, t in params.named_tensors()]
    check_grads(lambda: training.masked_cross_entropy(bb.forward(xt, params)[1], xt, x0.ids),
                tensors, max_coords=8)


def test_fd_kd_sequence_loss_wrt_head_parameters():
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    params.set_requires_grad(False)
    head = init_mrp(MrpConfig(depth=1), cfg, np.random.default_rng(3))
    # a zero output projection would zero every other head gradient
    head.w_out.data[:] = np.random.default_rng(4).normal(0.0, 0.3, head.w_out.shape)
    x0 = state_from_example(make_example(999, 99, "+", 4), 4, all_masked=False)
    train_cfg = training.TrainConfig()

    def loss():
        total, _ = training.kd_sequence_loss(x0, params, head, train_cfg,
                                             np.random.default_rng(5))
        return total

    assert loss() is not None
    check_grads(loss, [t for _, t in head.named_tensors()], max_coords=8)


# ---------------------------------------------------------------------------
# bucketed pretraining step
# ---------------------------------------------------------------------------

STEP_CFG = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=2, max_len=32)


def _step_examples():
    # 2- and 3-digit prompts: several (length, prompt_len) buckets, one of
    # more than four sequences, and two of length 13 with prompts of 7 and 9
    return (gen_arithmetic(1, 8, 99, block_size=2) + gen_arithmetic(2, 8, 999, block_size=2)
            + [make_example(999, 9, "+", 2), make_example(123, 456, "+", 2)])


def _record(monkeypatch, module, name, seen):
    fn = getattr(module, name)

    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append((args, out))
        return out

    monkeypatch.setattr(module, name, call)


def test_bucketed_step_matches_a_per_sequence_loop(monkeypatch):
    examples = _step_examples()
    cfg = training.TrainConfig(batch_size=len(examples), max_steps=1, seed=6)
    corrupted, grads = [], {}

    def capture(named, opt):
        grads.update({name: t.grad.copy() for name, t in named})
        return 0.0

    _record(monkeypatch, training, "corrupt", corrupted)
    monkeypatch.setattr(training, "adamw_step", capture)
    log = []
    training.train_backbone(examples, cfg, STEP_CFG, log_rows=log)

    # the reference: one graph per sequence, in batch order, at the initial weights
    params = bb.init_backbone(STEP_CFG, np.random.default_rng(cfg.seed))
    losses = []
    shapes = [(xt.length, xt.prompt_len) for _, xt in corrupted if xt.masked.any()]
    assert shapes.count((13, 9)) > 4 and (13, 7) in shapes and len(shapes) < len(corrupted)
    for (x0, _), xt in corrupted:
        if xt.masked.any():
            loss = training.masked_cross_entropy(bb.forward(xt, params)[1], xt, x0.ids)
            training.backward(T.scale(loss, 1.0 / len(corrupted)))
            losses.append(loss.item())
    assert abs(log[0]["loss"] - np.mean(losses)) <= 1e-12
    for name, t in params.named_tensors():
        assert np.abs(grads[name] - t.grad).max() <= 1e-12, name


def test_bucketed_step_keeps_the_corruption_draw_order(monkeypatch):
    examples = _step_examples()
    cfg = training.TrainConfig(batch_size=8, max_steps=2, seed=5)
    corrupted = []
    _record(monkeypatch, training, "corrupt", corrupted)
    training.train_backbone(examples, cfg, STEP_CFG)
    # the draws a loop over single sequences makes: init, then per batch a
    # permutation slice and one corruption per sequence in batch order
    rng = np.random.default_rng(cfg.seed)
    bb.init_backbone(STEP_CFG, rng)
    want = [corrupt(state_from_example(examples[i], 2, all_masked=False), rng)
            for batch in training._batches(len(examples), cfg, rng, 2) for i in batch]
    assert len(corrupted) == len(want) == 16
    for (_, got), ref in zip(corrupted, want):
        assert np.array_equal(got.ids, ref.ids) and np.array_equal(got.masked, ref.masked)


def test_no_graph_holds_more_than_four_sequences(monkeypatch):
    sizes = []
    forward = bb.forward

    def counted(x, params, *args, **kwargs):
        sizes.append(x.ids.shape[0] if x.ids.ndim == 2 else 1)
        return forward(x, params, *args, **kwargs)

    corrupted = []
    _record(monkeypatch, training, "corrupt", corrupted)
    monkeypatch.setattr(bb, "forward", counted)
    cfg = training.TrainConfig(batch_size=18, max_steps=2, seed=6)
    training.train_backbone(_step_examples(), cfg, STEP_CFG)
    assert max(sizes) == 4
    assert sum(sizes) == sum(bool(xt.masked.any()) for _, xt in corrupted)


def _train(trainer, examples, cfg, log_rows=None):
    """Run one of the two trainers; distillation runs against a fixed
    backbone of the pretraining test's size."""
    if trainer == "backbone":
        return training.train_backbone(examples, cfg, STEP_CFG, log_rows=log_rows)
    params = bb.init_backbone(STEP_CFG, np.random.default_rng(0), std=0.3)
    return training.train_mrp(examples, params, cfg, MrpConfig(depth=1), log_rows=log_rows)


def _first_batch_clean(monkeypatch, trainer):
    """A run of three steps whose first batch is left clean: it has
    nothing to learn. Returns the log rows and the updates made."""
    cfg = training.TrainConfig(batch_size=4, max_steps=3, seed=1, log_every=1)
    drawn, updates = [], []

    def first_batch_clean(x0, rng):
        drawn.append(corrupt(x0, rng))  # the usual draws, so later batches are unchanged
        return x0.clone() if len(drawn) <= cfg.batch_size else drawn[-1]

    monkeypatch.setattr(training, "corrupt", first_batch_clean)
    _record(monkeypatch, training, "adamw_step", updates)
    log = []
    _train(trainer, _step_examples(), cfg, log)
    # step 0 made no update and logged a loss of 0.0; step 1 ran at the
    # schedule's step 1
    opt = training.OptimizerState(peak_lr=cfg.peak_lr, min_lr=cfg.min_lr, total_steps=3)
    assert len(updates) == 2 and [row["step"] for row in log] == [0, 1, 2]
    assert log[0]["loss"] == 0.0 and log[1]["loss"] > 0.0
    assert [row["lr"] for row in log] == [training.cosine_lr(k, opt) for k in range(3)]
    return log


def test_step_with_nothing_masked_only_advances_the_step_count(monkeypatch):
    _first_batch_clean(monkeypatch, "backbone")


def test_distillation_step_with_nothing_masked_only_advances_the_step_count(monkeypatch):
    log = _first_batch_clean(monkeypatch, "mrp")
    assert log[0]["loss_step_1"] == log[0]["loss_step_2"] == 0.0


@pytest.mark.parametrize("trainer", ["backbone", "mrp"])
def test_a_non_finite_loss_raises_divergence_error(monkeypatch, trainer):
    nan, updates = float("nan"), []
    if trainer == "backbone":
        ce = training.masked_cross_entropy
        monkeypatch.setattr(training, "masked_cross_entropy", lambda *a: T.scale(ce(*a), nan))
    else:
        kd = training.kd_sequence_loss

        def poisoned(*args, **kwargs):
            total, per_seq = kd(*args, **kwargs)
            return None if total is None else T.scale(total, nan), per_seq

        monkeypatch.setattr(training, "kd_sequence_loss", poisoned)
    _record(monkeypatch, training, "adamw_step", updates)
    with pytest.raises(DivergenceError, match="nan"):
        _train(trainer, _step_examples(), training.TrainConfig(batch_size=4, max_steps=2))
    assert updates == []


def test_both_trainers_log_the_same_rows():
    cfg = training.TrainConfig(epochs=2, batch_size=4, max_steps=6, seed=2, log_every=4)
    logs = {}
    for trainer in ("backbone", "mrp"):
        logs[trainer] = []
        _train(trainer, _step_examples(), cfg, logs[trainer])
    pre, dist = logs["backbone"], logs["mrp"]
    # every log_every steps and at the last one
    assert [row["step"] for row in pre] == [row["step"] for row in dist] == [0, 4, 5]
    assert [row["lr"] for row in pre] == [row["lr"] for row in dist]
    base = {"step", "lr", "loss", "wall_seconds"}
    assert all(set(row) == base for row in pre)
    assert all(set(row) == base | {"loss_step_1", "loss_step_2"} for row in dist)
    assert all(np.isfinite(row["loss"]) and row["loss"] > 0 for row in pre + dist)


def test_fd_batched_masked_cross_entropy_through_backbone_forward():
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    rng = np.random.default_rng(2)
    x0s = [state_from_example(make_example(a, b, "+", 4), 4, all_masked=False)
           for a, b in [(12, 34), (21, 30), (40, 15)]]
    assert len({(x.length, x.prompt_len) for x in x0s}) == 1
    xts = [corrupt(x0, rng, rate=0.6) for x0 in x0s]
    # unequal masked counts, so the per-sequence weights differ
    assert len({x.mask_count() for x in xts}) > 1
    xt = training._stack(xts)
    targets = np.stack([x0.ids for x0 in x0s])
    tensors = [t for _, t in params.named_tensors()]
    check_grads(lambda: training.masked_cross_entropy(bb.forward(xt, params)[1], xt, targets),
                tensors, max_coords=8)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("bad", ["short", "negative", "vocab_size"])
def test_masked_cross_entropy_rejects_bad_targets(batched, bad):
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1))
    x0 = state_from_example(make_example(99, 7, "+", 4), 4, all_masked=False)
    xt = corrupt(x0, np.random.default_rng(2), rate=1.0)
    targets = x0.ids.copy()
    if batched:
        xt, targets = training._stack([xt, xt]), np.stack([targets, targets])
    if bad == "short":
        targets = targets[..., :-1]
    else:
        targets[..., -1] = -1 if bad == "negative" else cfg.vocab_size
    _, logits = bb.forward(xt, params)
    with pytest.raises(InvalidShapeError, match="target"):
        training.masked_cross_entropy(logits, xt, targets)


def test_masked_cross_entropy_rejects_logits_of_another_shape():
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=2, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1))
    x0 = state_from_example(make_example(123, 456, "+", 2), 2, all_masked=False)
    xt = corrupt(x0, np.random.default_rng(2), rate=1.0)
    # the logits of a window, with the whole state (was a bare IndexError)
    _, logits = bb.forward(xt.window(0), params)
    with pytest.raises(InvalidShapeError, match="logits"):
        training.masked_cross_entropy(logits, xt, x0.ids)
    # a stack's logits with one sequence's state (was the first one's loss)
    _, logits = bb.forward(training._stack([xt, xt]), params)
    with pytest.raises(InvalidShapeError, match="logits"):
        training.masked_cross_entropy(logits, xt, x0.ids)


def test_fd_stacked_kd_sequence_loss_wrt_head_parameters():
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    params.set_requires_grad(False)
    head = init_mrp(MrpConfig(depth=1), cfg, np.random.default_rng(3))
    head.w_out.data[:] = np.random.default_rng(4).normal(0.0, 0.3, head.w_out.shape)
    x0 = training._stack([state_from_example(make_example(a, b, "+", 4), 4, all_masked=False)
                          for a, b in [(999, 99), (987, 65)]])
    train_cfg = training.TrainConfig()

    def loss():
        total, per_seq = training.kd_sequence_loss(x0, params, head, train_cfg,
                                                   np.random.default_rng(6))
        assert None not in per_seq  # both sequences have a loss
        return total

    check_grads(loss, [t for _, t in head.named_tensors()], max_coords=8)


# ---------------------------------------------------------------------------
# bucketed distillation step
# ---------------------------------------------------------------------------


DISTILL_CFG = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=4, max_len=32)


def _distill_setup(monkeypatch):
    """A frozen backbone, a head with a non-zero output projection, 18
    clean states in five (length, prompt_len) buckets, and
    `training.corrupt` replaced by a table of fixed corrupted states. In
    the (13, 9) bucket of seven the first sequence keeps one masked
    position and the third none, so neither has a loss after the first
    reveal; some others have a loss at the first unroll step only.
    Returns the states and the number of sequences with a loss as well."""
    params = bb.init_backbone(DISTILL_CFG, np.random.default_rng(0), std=0.3)
    params.set_requires_grad(False)
    head = init_mrp(MrpConfig(depth=1), DISTILL_CFG, np.random.default_rng(1))
    head.w_out.data[:] = np.random.default_rng(2).normal(0.0, 0.3, head.w_out.shape)
    examples = (gen_arithmetic(1, 8, 99, block_size=4) + gen_arithmetic(2, 8, 999, block_size=4)
                + [make_example(999, 9, "+", 4), make_example(123, 456, "+", 4)])
    batch = [state_from_example(ex, 4, all_masked=False) for ex in examples]
    rng = np.random.default_rng(3)
    table = {x0.ids.tobytes(): corrupt(x0, rng, rate=0.8) for x0 in batch}
    bucket = [x0 for x0 in batch if (x0.length, x0.prompt_len) == (13, 9)]
    single = bucket[0].clone()
    single.ids[single.prompt_len] = MASK_ID
    table[bucket[0].ids.tobytes()] = single
    table[bucket[2].ids.tobytes()] = bucket[2].clone()
    monkeypatch.setattr(training, "corrupt", lambda x0, rng: table[x0.ids.tobytes()].clone())
    with_loss = len(_with_loss(batch))
    assert len({(x0.length, x0.prompt_len) for x0 in batch}) >= 2
    assert with_loss <= len(batch) - 2
    return params, head, batch, with_loss


def _with_loss(batch):
    """The clean states of `batch` whose fixed corruption keeps a masked
    position after the first reveal: the ones with a loss."""
    return [x0 for x0 in batch
            if training.reveal_ground_truth(training.corrupt(x0, None), x0, 1).masked.any()]


def _group_order(batch):
    """`batch` grouped by (length, prompt_len), groups in first-seen order."""
    keys = list(dict.fromkeys((x0.length, x0.prompt_len) for x0 in batch))
    return [[x0 for x0 in batch if (x0.length, x0.prompt_len) == key] for key in keys]


def _distill_step(params, head, batch):
    cfg = training.TrainConfig(batch_size=len(batch))
    opt = training.OptimizerState(peak_lr=cfg.peak_lr, min_lr=cfg.min_lr, total_steps=1)
    return training.mrp_train_step(batch, params, head, opt, np.random.default_rng(0))


def test_bucketed_distillation_step_matches_a_per_sequence_loop(monkeypatch):
    params, head, batch, with_loss = _distill_setup(monkeypatch)
    grads = {}

    def capture(named, opt):
        grads.update({name: t.grad.copy() for name, t in named})
        return 0.0

    monkeypatch.setattr(training, "adamw_step", capture)
    loss, per_step = _distill_step(params, head, batch)

    # the reference: one kd_sequence_loss and one backward per sequence
    named = head.named_tensors()
    T.zero_grads([t for _, t in named])
    losses, steps = [], []
    for x0 in batch:
        total, (seq_steps,) = training.kd_sequence_loss(x0, params, head, training.TrainConfig(),
                                                        np.random.default_rng(0))
        if total is not None:
            training.backward(T.scale(total, 1.0 / len(batch)))
            losses.append(total.item())
            steps.append(seq_steps)
    assert len(losses) == with_loss
    assert abs(loss - np.mean(losses)) <= 1e-12
    assert np.abs(per_step - np.mean(steps, axis=0)).max() <= 1e-12
    for name, t in named:
        assert np.abs(grads[name] - t.grad).max() <= 1e-12, name


def _record_head_stacks(monkeypatch):
    sizes = []
    forward = mrp_mod.mrp_forward

    def counted(x, h, *args):
        sizes.append(x.ids.shape[0] if x.ids.ndim == 2 else 1)
        return forward(x, h, *args)

    monkeypatch.setattr(mrp_mod, "mrp_forward", counted)
    return sizes


def test_no_head_graph_holds_more_than_four_sequences(monkeypatch):
    params, head, batch, _ = _distill_setup(monkeypatch)
    sizes = _record_head_stacks(monkeypatch)
    _distill_step(params, head, batch)
    assert max(sizes) == 4


def test_every_stack_runs_unroll_plus_one_teacher_forwards(monkeypatch):
    params, head, batch, _ = _distill_setup(monkeypatch)
    calls = []
    kd_loss, forward = training.kd_sequence_loss, bb.forward

    def kd_counted(*args, **kwargs):
        calls.append(0)
        return kd_loss(*args, **kwargs)

    def forward_counted(*args, **kwargs):
        calls[-1] += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "kd_sequence_loss", kd_counted)
    monkeypatch.setattr(bb, "forward", forward_counted)
    _distill_step(params, head, batch)
    # each bucket's sequences with a loss, in stacks of at most four
    stacks = [-(-len(group) // 4) for group in _group_order(_with_loss(batch))]
    assert len(calls) == sum(stacks) == 7
    assert calls == [head.config.unroll + 1] * len(calls)


def test_distillation_step_corrupts_the_batch_in_group_order(monkeypatch):
    params, head, batch, _ = _distill_setup(monkeypatch)
    seen = []
    _record(monkeypatch, training, "corrupt", seen)
    _distill_step(params, head, batch)
    # every sequence once, grouped by (length, prompt_len) in first-seen
    # order: the order in which stacks of all sequences drew them
    want = [x0.ids.tobytes() for group in _group_order(batch) for x0 in group]
    assert [x0.ids.tobytes() for (x0, _), _ in seen] == want
    assert want != [x0.ids.tobytes() for x0 in batch]


def test_no_distillation_stack_holds_a_sequence_without_a_loss(monkeypatch):
    params, head, batch, with_loss = _distill_setup(monkeypatch)
    seen = []
    _record(monkeypatch, training, "kd_sequence_loss", seen)
    _distill_step(params, head, batch)
    per_seq = [entry for _, (_, entries) in seen for entry in entries]
    assert len(per_seq) == with_loss and None not in per_seq


def test_the_teacher_runs_once_per_state_of_a_sequence_with_a_loss(monkeypatch):
    params, head, batch, with_loss = _distill_setup(monkeypatch)
    rows = []
    forward = bb.forward

    def counted(x, *args, **kwargs):
        rows.append(x.ids.shape[0])
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(bb, "forward", counted)
    _distill_step(params, head, batch)
    states = head.config.unroll + 1
    assert sum(rows) == states * with_loss < states * len(batch)


def test_a_lone_sequence_without_a_loss_runs_no_teacher_forward(monkeypatch):
    params, head, batch, _ = _distill_setup(monkeypatch)
    calls = []
    monkeypatch.setattr(bb, "forward", lambda *args, **kwargs: calls.append(args))
    clean = [x for x in batch if (x.length, x.prompt_len) == (13, 9)][2]
    total, per_seq = training.kd_sequence_loss(clean, params, head, training.TrainConfig(),
                                               np.random.default_rng(0))
    assert total is None and per_seq == [None] and calls == []


def test_stack_and_rows_round_trip_the_ids_alone():
    rng = np.random.default_rng(0)
    states = [corrupt(state_from_example(make_example(a, b, "+", 4), 4, all_masked=False), rng,
                      rate=0.5) for a, b in [(999, 99), (987, 65)]]
    stack = training._stack(states)
    assert vars(stack).keys() == {"ids", "prompt_len", "block_size"}
    assert stack.ids.shape == (2, states[0].length)
    assert np.array_equal(stack.masked, stack.ids == MASK_ID)
    with pytest.raises(ValueError):
        stack.masked[0, 0] = True
    rows = training._rows(stack)
    for row, x in zip(rows, states, strict=True):
        assert np.array_equal(row.ids, x.ids) and np.array_equal(row.masked, x.masked)
        assert (row.prompt_len, row.block_size) == (x.prompt_len, x.block_size)
    # the rows are views: revealing through one changes the stack
    pos = int(np.flatnonzero(rows[1].masked)[0])
    rows[1].ids[pos] = 5
    assert stack.ids[1, pos] == 5


def _corruption_case(case):
    """A stack of two clean sequences whose responses end in PAD, and its
    corruption with one defect."""
    x0 = training._stack([state_from_example(make_example(a, b, "+", 4), 4, all_masked=False)
                          for a, b in [(999, 99), (987, 65)]])
    rng = np.random.default_rng(0)
    xt = training._stack([corrupt(x, rng, rate=0.5) for x in training._rows(x0)])
    if case == "shape":
        xt = training._rows(xt)[0]
    elif case == "changed token":
        pos = np.flatnonzero(~xt.masked[0])[-1]
        xt.ids[0, pos] = PAD_ID if xt.ids[0, pos] != PAD_ID else EOS_ID
    elif case == "other prompt_len":
        xt.prompt_len -= 1
    elif case == "x0 not clean":
        for x in (x0, xt):
            x.ids[0, x.prompt_len] = MASK_ID
    elif case == "masked prompt":
        xt.ids[0, xt.prompt_len - 1] = MASK_ID
    elif case == "masked pad":
        pos = np.flatnonzero(x0.ids[0] == PAD_ID)[0]
        xt.ids[0, pos] = MASK_ID
    return x0, xt


@pytest.mark.parametrize("case, error", [
    ("shape", InvalidShapeError), ("changed token", ContractViolationError),
    ("other prompt_len", ContractViolationError),
    ("x0 not clean", ContractViolationError), ("masked prompt", ContractViolationError),
    ("masked pad", ContractViolationError),
])
def test_kd_sequence_loss_rejects_a_state_that_is_not_a_corruption(monkeypatch, case, error):
    params, head, _, _ = _distill_setup(monkeypatch)
    x0, xt = _corruption_case(case)
    with pytest.raises(error):
        training.kd_sequence_loss(x0, params, head, training.TrainConfig(),
                                  np.random.default_rng(0), xt=xt)
    # the same stack without its defect is accepted
    x0, xt = _corruption_case(None)
    training.kd_sequence_loss(x0, params, head, training.TrainConfig(), np.random.default_rng(0),
                              xt=xt)


def test_a_sequence_with_no_loss_runs_no_head_forward(monkeypatch):
    params, head, batch, with_loss = _distill_setup(monkeypatch)
    sizes = _record_head_stacks(monkeypatch)
    _distill_step(params, head, batch)
    assert sum(sizes) == head.config.unroll * with_loss
    # alone, a sequence without a loss is a stack of one that runs no head
    sizes.clear()
    clean = [x for x in batch if (x.length, x.prompt_len) == (13, 9)][2]
    total, per_seq = training.kd_sequence_loss(clean, params, head, training.TrainConfig(),
                                               np.random.default_rng(0))
    assert total is None and per_seq == [None] and sizes == []


def test_kd_teacher_prefix_matches_full_teacher_forwards(monkeypatch):
    params, head, batch, _ = _distill_setup(monkeypatch)
    stack = training._stack([x for x in batch if (x.length, x.prompt_len) == (13, 9)][3:5])
    named = head.named_tensors()

    def run():
        T.zero_grads([t for _, t in named])
        total, per_seq = training.kd_sequence_loss(stack, params, head, training.TrainConfig(),
                                                   np.random.default_rng(0))
        training.backward(total)
        return total.item(), per_seq, [t.grad.copy() for _, t in named]

    rows = []
    forward = bb.forward

    def counted(x, p, prefix=None):
        h, logits = forward(x, p, prefix)
        rows.append(x.ids.shape[-1] - (prefix.rows if prefix.h is not None and rows else 0))
        return h, logits

    monkeypatch.setattr(bb, "forward", counted)
    total, per_seq, grads = run()
    # the first teacher forward fills the prompt's rows, the later ones
    # compute the response's only
    L, prompt_len = stack.ids.shape[1], stack.prompt_len
    assert rows == [L] + [L - prompt_len] * head.config.unroll
    monkeypatch.setattr(bb, "forward", lambda x, p, prefix=None: forward(x, p))
    ref_total, ref_per_seq, ref_grads = run()
    assert abs(total - ref_total) <= 1e-12
    assert np.abs(np.subtract(per_seq, ref_per_seq)).max() <= 1e-12
    for g, ref in zip(grads, ref_grads):
        assert np.abs(g - ref).max() <= 1e-12


def test_the_total_weighs_each_step_kl_by_one_over_unroll(monkeypatch):
    params, head, batch, _ = _distill_setup(monkeypatch)
    stack = training._stack([x for x in batch if (x.length, x.prompt_len) == (13, 9)][3:5])
    total, per_seq = training.kd_sequence_loss(stack, params, head, training.TrainConfig(),
                                               np.random.default_rng(0))
    # both sequences log a KL at every step, some of them positive at each
    # step, and the total is their sum over the stack weighed 1 / unroll
    assert np.asarray(per_seq).shape == (2, head.config.unroll)
    assert np.asarray(per_seq).max(axis=0).min() > 0
    assert abs(total.item() - np.sum(per_seq) / head.config.unroll) <= 1e-12


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("peak_lr", -1.0), ("peak_lr", float("nan")),
    ("min_lr", -1e-5), ("min_lr", float("nan")),
    ("weight_decay", -0.01), ("weight_decay", float("nan")),
    ("seed", -1), ("seed", 1.5),
])
def test_train_config_rejects_non_finite_and_negative_values(field, value):
    cfg = training.TrainConfig(batch_size=2, max_steps=1, **{field: value})
    with pytest.raises(InvalidConfigError, match=field):
        cfg.validate()
    with pytest.raises(InvalidConfigError, match=field):
        training.train_backbone(gen_arithmetic(0, 4, block_size=4), cfg, BB_CFG)


def _select_static(r):
    conf = diffusion.Confidence(np.array([4, 5]), np.array([0.6, 0.9]), np.array([7, 8]))
    return diffusion.select_static(conf, r)


@pytest.mark.parametrize("value", [1.5, "2"])
@pytest.mark.parametrize("owner, field", [
    *[(bb.BackboneConfig, name) for name in ("d_model", "n_heads", "n_layers", "vocab_size",
                                             "block_size", "max_len", "mlp_mult")],
    *[(MrpConfig, name) for name in ("depth", "unroll", "reveal_k")],
    *[(training.TrainConfig, name) for name in ("epochs", "batch_size", "log_every",
                                                "max_steps", "seed")],
    (_select_static, "r"),
], ids=lambda v: getattr(v, "__name__", None))
def test_integer_fields_refuse_non_integers(owner, field, value):
    def check(v):
        if owner is _select_static:
            return _select_static(v)
        owner(**{field: v}).validate()

    with pytest.raises(InvalidConfigError, match=field):
        check(value)
    # a numpy integer is an integer
    default = 2 if owner is _select_static else getattr(owner(), field)
    check(np.int64(default or 2))
