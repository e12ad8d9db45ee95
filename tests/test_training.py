"""Correction-head distillation leaves the backbone's grad flags as it found
them; finite-difference gradients of the training losses."""

from __future__ import annotations

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import training
from mrpdiff.corpus import gen_arithmetic, make_example
from mrpdiff.diffusion import corrupt, state_from_example
from mrpdiff.errors import InvalidConfigError, InvalidShapeError
from mrpdiff.mrp import MrpConfig, init_mrp

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


def test_train_mrp_restores_flags_when_a_step_raises():
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    params.layers[0].w_up.requires_grad = False
    before = _flags(params)
    # 999+999 needs 17 positions, one more than max_len: the first step raises
    too_long = [make_example(999, 999, "+", 4)] * 2
    with pytest.raises(InvalidShapeError):
        training.train_mrp(too_long, params, TRAIN, MrpConfig(depth=1))
    assert _flags(params) == before


def test_train_mrp_checks_step_weights_before_training():
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0))
    cfg = training.TrainConfig(batch_size=2, max_steps=2, step_weights=[1.0])
    with pytest.raises(InvalidConfigError, match="step_weights"):
        training.train_mrp(gen_arithmetic(0, 4, block_size=4), params, cfg, MrpConfig(unroll=2))
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


def test_residual_and_direct_objectives_consume_the_same_random_stream(monkeypatch):
    params = bb.init_backbone(BB_CFG, np.random.default_rng(0), std=0.3)
    examples = gen_arithmetic(1, 12, block_size=4)
    cfg = training.TrainConfig(batch_size=3, max_steps=3, seed=7)
    corrupt, reveal = training.corrupt, training.reveal_ground_truth
    seen = {}
    for objective in ("residual", "direct"):
        states = []

        def recorded(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                states.append((fn.__name__, out.ids.copy(), out.masked.copy()))
                return out
            return call

        monkeypatch.setattr(training, "corrupt", recorded(corrupt))
        monkeypatch.setattr(training, "reveal_ground_truth", recorded(reveal))
        training.train_mrp(examples, params, cfg, MrpConfig(depth=1, objective=objective))
        seen[objective] = states
    residual, direct = seen["residual"], seen["direct"]
    # 3 steps x 3 sequences: one corruption and 2 unroll reveals each
    assert [name for name, _, _ in residual] == ["corrupt", *["reveal_ground_truth"] * 2] * 9
    assert len(residual) == len(direct)
    for (name, ids, masked), (name2, ids2, masked2) in zip(residual, direct):
        assert name == name2 and np.array_equal(ids, ids2) and np.array_equal(masked, masked2)
    assert len({ids.tobytes() for name, ids, _ in residual if name == "corrupt"}) > 1


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


@pytest.mark.parametrize("objective", ["residual", "direct"])
def test_fd_kd_sequence_loss_wrt_head_parameters(objective):
    cfg = bb.BackboneConfig(d_model=8, n_heads=2, n_layers=1, block_size=4, max_len=16)
    params = bb.init_backbone(cfg, np.random.default_rng(1), std=0.3)
    params.set_requires_grad(False)
    head = init_mrp(MrpConfig(depth=1, objective=objective), cfg, np.random.default_rng(3))
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
