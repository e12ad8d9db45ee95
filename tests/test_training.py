"""Correction-head distillation leaves the backbone's grad flags as it found
them; finite-difference gradients of the training losses."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import mrp as mrp_mod
from mrpdiff import diffusion, training
from mrpdiff.corpus import EOS_ID, MASK_ID, PAD_ID, VOCAB_SIZE, gen_arithmetic, make_example
from mrpdiff.diffusion import SequenceState, corrupt, state_from_example
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
    # refused when built, so no training loop can run on it (log_every=0
    # used to divide by zero at step 0, max_steps=0 to return an untrained
    # model)
    with pytest.raises(InvalidConfigError, match=field):
        training.TrainConfig(batch_size=2, **{field: value})


def test_distillation_corrupts_and_reveals_in_a_fixed_order(monkeypatch):
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0), std=0.3)
    examples = gen_arithmetic(1, 12, block_size=4)
    cfg = training.TrainConfig(batch_size=3, max_steps=3, seed=7)
    g_cfg = MrpConfig(depth=1)
    reveal = training.reveal_ground_truth
    states = []

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            states.append((fn.__name__, out.ids.copy()))
            return out
        return call

    monkeypatch.setattr(training, "corrupt", recorded(training.corrupt))
    monkeypatch.setattr(training, "reveal_ground_truth", recorded(reveal))
    training.train_mrp(examples, params, cfg, g_cfg)
    # the same draws replayed: the head's init and one shuffle, then per
    # step each (length, prompt_len) group of the batch is stacked and
    # corrupted once, in first-seen order, with the ids one call per
    # sequence draws; the stack of its sequences that keep a mask after one
    # reveal (found from mask counts, with no reveal call) is revealed at
    # each of the 2 unroll steps, group by group, after every group is
    # corrupted
    rng = np.random.default_rng(cfg.seed)
    init_mrp(g_cfg, BB_CFG, rng)
    order = rng.permutation(len(examples))
    want = []
    for step in range(cfg.max_steps):
        batch = [state_from_example(examples[i], 4, all_masked=False)
                 for i in order[3 * step:3 * step + 3]]
        unrolls = []
        for group in _group_order(batch):
            x0 = training._stack(group)
            xt = training._stack([corrupt(x, rng) for x in group])
            has_loss = reveal(xt, x0, 1).masked.any(axis=1)
            want.append(("corrupt", xt.ids))
            if has_loss.any():
                x0, xt = (SequenceState(x.ids[has_loss], x.prompt_len, x.block_size)
                          for x in (x0, xt))
                x1 = reveal(xt, x0, 1)
                unrolls += [("reveal_ground_truth", x1.ids),
                            ("reveal_ground_truth", reveal(x1, x0, 1).ids)]
        want += unrolls
    assert [name for name, _ in states] == [name for name, _ in want]
    for (_, got), (_, ids) in zip(states, want):
        assert np.array_equal(got, ids)
    # fewer corrupt calls than sequences: some group stacked two or three
    names = [name for name, _ in states]
    assert cfg.max_steps <= names.count("corrupt") < cfg.max_steps * cfg.batch_size
    assert len(names) > names.count("corrupt")  # and some unroll reveals ran
    assert len({ids.tobytes() for name, ids in want if name == "corrupt"}) > 1


def _reveal_per_block(x, x0, k):
    """The former ground-truth reveal: a loop over one sequence's blocks."""
    out = x.clone()
    for block in range(out.n_blocks):
        lo, hi = out.block_bounds(block)
        positions = (lo + np.flatnonzero(out.masked[lo:hi]))[:k]
        out.ids[positions] = x0.ids[positions]
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_stacked_reveal_matches_the_per_block_loop(k):
    rng = np.random.default_rng(k)
    short = 0  # blocks holding fewer than k masks, but some
    kept = set()  # whether a row keeps a mask after the reveal
    for prompt_len, block_size, n_blocks, rows in [(3, 4, 3, 6), (1, 1, 5, 3), (5, 8, 2, 4),
                                                   (2, 3, 1, 1), (4, 2, 6, 5)]:
        L = prompt_len + n_blocks * block_size
        x0 = SequenceState(rng.integers(1, 44, (rows, L)), prompt_len, block_size)
        # each sequence its own masking rate, so some blocks are clean or full
        masked = rng.random((rows, L)) < rng.random((rows, 1))
        masked[:, :prompt_len] = False
        xt = SequenceState(np.where(masked, MASK_ID, x0.ids), prompt_len, block_size)
        counts = masked[:, prompt_len:].reshape(rows, n_blocks, block_size).sum(axis=-1)
        short += int(((counts > 0) & (counts < k)).sum())
        got = training.reveal_ground_truth(xt, x0, k)
        assert np.array_equal(xt.ids, np.where(masked, MASK_ID, x0.ids))  # a new state
        # the rows that keep a mask, as distillation finds them without a reveal
        assert np.array_equal(training._keeps_a_mask(xt, k), got.masked.any(axis=1))
        kept.update(got.masked.any(axis=1).tolist())
        for b in range(rows):
            row, row0 = (SequenceState(x.ids[b], prompt_len, block_size) for x in (xt, x0))
            want = _reveal_per_block(row, row0, k).ids
            assert np.array_equal(got.ids[b], want)
            assert np.array_equal(training.reveal_ground_truth(row, row0, k).ids, want)
    assert short > 0 or k == 1
    assert kept == {False, True}


@pytest.mark.parametrize("k, clean, error, match", [
    (1.5, None, InvalidConfigError, "k"), (0, None, InvalidConfigError, "k"),
    (-1, None, InvalidConfigError, "k"), ("a", None, InvalidConfigError, "k"),
    (True, None, InvalidConfigError, "k"),
    (1, "one row", InvalidShapeError, "shape"),
    (1, "prompt_len", ContractViolationError, "prompt_len"),
    (1, "block_size", ContractViolationError, "block_size"),
])
def test_reveal_ground_truth_refuses_bad_input(k, clean, error, match):
    # each used to run: 1.5 as 1, -1 revealing nothing, "a" a bare numpy
    # UFuncTypeError, and an x0 of another shape a bare IndexError
    x0 = training._stack([state_from_example(make_example(a, b, "+", 4), 4, all_masked=False)
                          for a, b in [(999, 99), (987, 65)]])
    xt = corrupt(x0, np.random.default_rng(0), rate=1.0)
    other = {"one row": SequenceState(x0.ids[0], x0.prompt_len, 4),
             "prompt_len": SequenceState(x0.ids, x0.prompt_len - 4, 4),
             "block_size": SequenceState(x0.ids, x0.prompt_len, 2), None: x0}[clean]
    with pytest.raises(error, match=match):
        training.reveal_ground_truth(xt, other, k)
    # the same stack and k = 1 reveal one position per block
    revealed = training.reveal_ground_truth(xt, x0, 1)
    assert xt.mask_count() - revealed.mask_count() == 2 * xt.n_blocks


@pytest.mark.parametrize("stacked", [False, True])
def test_reveal_off_the_block_grid_raises(stacked):
    # a prompt of 2 and a response of 5 rows, one block of 4 and one row:
    # no such state can be built, so none reaches the reveal
    ids = np.full((2, 7) if stacked else (7,), 5)
    for state_ids in (ids, np.where(np.arange(7) >= 2, MASK_ID, ids)):
        with pytest.raises(InvalidConfigError, match="whole number of blocks"):
            SequenceState(state_ids, 2, 4)


def _log_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _plain_unroll(x0, xt, params, head):
    """The unrolled KL of one sequence from its definition, with no-grad
    forwards on plain arrays: None when the first reveal leaves nothing
    masked, else the KL at each step."""
    states = [xt]
    for _ in range(head.config.unroll):
        states.append(_reveal_per_block(states[-1], x0, head.config.reveal_k))
    if not states[1].masked.any():
        return None
    with T.no_grad():
        h, corrected = (out.data for out in bb.forward(states[0], params))
        kls = []
        for x in states[1:]:
            teacher = bb.forward(x, params)[1].data
            delta_h, delta_l = mrp_mod.mrp_forward(x, h, head, params)
            h, corrected = h + delta_h.data, corrected + delta_l.data
            rows = np.flatnonzero(x.masked)
            log_p, log_q = _log_softmax(teacher[rows]), _log_softmax(corrected[rows])
            kls.append(float(np.sum(np.exp(log_p) * (log_p - log_q))) / max(len(rows), 1))
    return kls


def test_kd_sequence_loss_matches_a_plain_unroll():
    params = bb.init_backbone(BB_CFG, np.random.default_rng(1), std=0.3)
    head = init_mrp(MrpConfig(depth=1, unroll=3), BB_CFG, np.random.default_rng(2))
    # a zero output projection would make every residual zero
    head.w_out.data[:] = np.random.default_rng(3).normal(0.0, 0.3, head.w_out.shape)
    clean = [state_from_example(make_example(a, b, "+", 4), 4, all_masked=False)
             for a, b in [(999, 99), (987, 65), (912, 99), (955, 61)]]
    rng = np.random.default_rng(5)
    corrupted = [corrupt(x, rng, rate=rate) for x, rate in zip(clean, (0.9, 0.8, 0.0, 1.0))]
    # one mask, which the first reveal takes away: masked, yet no loss
    corrupted[2].ids[corrupted[2].prompt_len] = MASK_ID
    want = [_plain_unroll(x0, xt, params, head) for x0, xt in zip(clean, corrupted)]
    assert want[2] is None and None not in want[:2] + want[3:]
    total, per_seq = training.kd_sequence_loss(training._stack(clean), params, head, None, None,
                                               xt=training._stack(corrupted))
    assert [v is None for v in per_seq] == [v is None for v in want]
    for got, ref in zip(per_seq, want):
        if ref is not None:
            assert np.abs(np.subtract(got, ref)).max() <= 1e-12
    kept = [v for v in want if v is not None]
    assert abs(total.item() - np.sum(kept) / head.config.unroll) <= 1e-12
    # some sequence still has a masked position, and a positive KL, at steps 1 and 2
    assert (np.max(kept, axis=0)[:2] > 0).all()


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

    monkeypatch.setattr(training, "corrupt", _row_by_row(first_batch_clean))
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
@pytest.mark.parametrize("bad", ["short", "negative", "vocab_size", "float", "str"])
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
    elif bad == "float":  # was truncated: exactly the loss of the integer targets
        targets = targets + 0.7
    elif bad == "str":  # was a bare numpy UFuncTypeError
        targets = targets.astype(str)
    else:
        targets[..., -1] = -1 if bad == "negative" else VOCAB_SIZE
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


def test_masked_cross_entropy_takes_one_logit_row_per_masked_position():
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    rng = np.random.default_rng(2)
    x0s = [state_from_example(make_example(a, b, "+", 4), 4, all_masked=False)
           for a, b in [(12, 34), (21, 30)]]
    xt = training._stack([corrupt(x0, rng, rate=0.6) for x0 in x0s])
    targets = np.stack([x0.ids for x0 in x0s])
    rows = np.flatnonzero(xt.masked)
    _, logits = bb.forward(xt, params)
    want = training.masked_cross_entropy(logits, xt, targets)
    picked = T.tensor(logits.data.reshape(-1, VOCAB_SIZE)[rows])
    assert training.masked_cross_entropy(picked, xt, targets).item() == want.item()
    # one row short of the masked positions, and the full stack's rows flattened
    for bad in (picked.data[1:], logits.data.reshape(-1, VOCAB_SIZE)):
        with pytest.raises(InvalidShapeError, match="logits"):
            training.masked_cross_entropy(T.tensor(bad), xt, targets)


def test_masked_cross_entropy_skips_a_sequence_with_nothing_masked():
    # a stack's unmasked sequence used to divide by its zero masked count
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    x0 = state_from_example(make_example(12, 34, "+", 4), 4, all_masked=False)
    xt = corrupt(x0, np.random.default_rng(2), rate=0.6)
    assert xt.masked.any()
    stack = training._stack([x0, xt])
    targets = np.stack([x0.ids, x0.ids])
    loss = training.masked_cross_entropy(bb.forward(stack, params)[1], stack, targets)
    alone = training.masked_cross_entropy(bb.forward(xt, params)[1], xt, x0.ids)
    assert abs(loss.item() - alone.item()) <= 1e-15 * abs(alone.item())


def test_pretraining_gradients_on_loss_rows_match_the_full_forward():
    # a stack of four at the default widths, as a pretraining step's chunk
    params = bb.init_backbone(bb.BackboneConfig(), np.random.default_rng(0))
    rng = np.random.default_rng(3)
    x0s = [state_from_example(make_example(a, b, "+", 8), 8, all_masked=False)
           for a, b in [(12, 34), (21, 30), (40, 15), (33, 44)]]
    xt = training._stack([corrupt(x0, rng) for x0 in x0s])
    targets = np.stack([x0.ids for x0 in x0s])
    named = params.named_tensors()
    grads = []
    for rows in (None, np.flatnonzero(xt.masked)):
        T.zero_grads([t for _, t in named])
        _, logits = bb.forward(xt, params, rows=rows)
        loss = training.masked_cross_entropy(logits, xt, targets)
        training.backward(loss)
        grads.append((loss.item(), [t.grad for _, t in named]))
    (full_loss, full), (rows_loss, pruned) = grads
    assert abs(rows_loss - full_loss) <= 1e-12 * abs(full_loss)
    for (name, _), g, ref in zip(named, pruned, full):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max(), name


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


def _row_by_row(fake):
    """`fake`, a stand-in for `training.corrupt` on one sequence, applied to
    each row of a stack in order, as `corrupt` draws a stack."""
    def corrupt_rows(x0, rng):
        rows = [fake(dataclasses.replace(x0, ids=ids), rng).ids for ids in np.atleast_2d(x0.ids)]
        return dataclasses.replace(x0, ids=np.stack(rows).reshape(x0.ids.shape))
    return corrupt_rows


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
    monkeypatch.setattr(training, "corrupt",
                        _row_by_row(lambda x0, rng: table[x0.ids.tobytes()].clone()))
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
    # one call per (length, prompt_len) group on its stack, in first-seen
    # order, so every sequence is drawn once, in group order
    groups = _group_order(batch)
    assert [x0.ids.shape[0] for (x0, _), _ in seen] == [len(group) for group in groups]
    want = [x0.ids.tobytes() for group in groups for x0 in group]
    assert [row.tobytes() for (x0, _), _ in seen for row in x0.ids] == want
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
    rows = [SequenceState(ids, stack.prompt_len, stack.block_size) for ids in stack.ids]
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
    xt = corrupt(x0, rng, rate=0.5)
    if case == "shape":
        xt = SequenceState(xt.ids[0], xt.prompt_len, xt.block_size)
    elif case == "changed token":
        pos = np.flatnonzero(~xt.masked[0])[-1]
        xt.ids[0, pos] = PAD_ID if xt.ids[0, pos] != PAD_ID else EOS_ID
    elif case == "other prompt_len":
        # on the block grid, as every state is
        xt = SequenceState(xt.ids, xt.prompt_len - xt.block_size, xt.block_size)
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
    ("peak_lr", "1e-3"), ("peak_lr", True), ("peak_lr", None), ("min_lr", float("inf")),
    ("weight_decay", "0.01"),
])
def test_train_config_rejects_non_finite_and_negative_values(field, value):
    with pytest.raises(InvalidConfigError, match=field):
        training.TrainConfig(batch_size=2, max_steps=1, **{field: value})


@pytest.mark.parametrize("cfg, field, value", [
    (BB_CFG, "n_heads", 3), (MrpConfig(), "depth", 2), (TRAIN, "batch_size", 0),
], ids=["BackboneConfig", "MrpConfig", "TrainConfig"])
def test_a_built_config_is_frozen(cfg, field, value):
    # a model's config is the caller's own object: setting n_heads = 3 on it
    # after init_backbone used to fail the next forward with a bare reshape
    # ValueError, and a batch size of 0 was never checked again
    before = getattr(cfg, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, value)
    assert getattr(cfg, field) == before
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    assert params.config is BB_CFG
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.config.n_heads = 3


def _select_static(r):
    conf = diffusion.Confidence(4, np.array([True, True]), np.array([0.6, 0.9]), np.array([7, 8]))
    return diffusion.Policy("static", r=r).select(conf)


@pytest.mark.parametrize("value", [1.5, "2"])
@pytest.mark.parametrize("owner, field", [
    *[(bb.BackboneConfig, name) for name in ("d_model", "n_heads", "n_layers", "block_size",
                                             "max_len")],
    *[(MrpConfig, name) for name in ("depth", "unroll", "reveal_k")],
    *[(training.TrainConfig, name) for name in ("epochs", "batch_size", "log_every",
                                                "max_steps", "seed")],
    (_select_static, "r"),
], ids=lambda v: getattr(v, "__name__", None))
def test_integer_fields_refuse_non_integers(owner, field, value):
    def check(v):
        if owner is _select_static:
            return _select_static(v)
        owner(**{field: v})

    with pytest.raises(InvalidConfigError, match=field):
        check(value)
    # a numpy integer is an integer
    default = 2 if owner is _select_static else getattr(owner(), field)
    check(np.int64(default or 2))
