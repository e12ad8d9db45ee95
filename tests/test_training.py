"""Correction-head distillation leaves the backbone's grad flags as it found them."""

from __future__ import annotations

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import training
from mrpdiff.corpus import gen_arithmetic, make_example
from mrpdiff.errors import InvalidConfigError, InvalidShapeError
from mrpdiff.mrp import MrpConfig

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
