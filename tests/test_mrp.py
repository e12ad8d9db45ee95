"""Correction head: zero-init identity, logit/hidden tie, tape-free
inference, input checks, checkpoint round trip."""

from __future__ import annotations

import contextlib
from pathlib import Path

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import checkpoint, corpus, mrp, training
from mrpdiff.corpus import MASK_ID, VOCAB_SIZE
from mrpdiff.diffusion import SequenceState, corrupt, state_from_example
from mrpdiff.errors import InvalidConfigError, InvalidShapeError
from mrpdiff.numerics import tensor as T
from mrpdiff.numerics.tensor import Tensor, no_grad

BB_CFG = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=4, max_len=32)


def _setup(seed=0, **mrp_kw):
    rng = np.random.default_rng(seed)
    bb_params = bb.init_backbone(BB_CFG, rng)
    head = mrp.init_mrp(mrp.MrpConfig(**mrp_kw), BB_CFG, rng)
    ids = rng.integers(4, VOCAB_SIZE, size=3 + 2 * BB_CFG.block_size)
    ids[[4, 6, 9]] = MASK_ID
    x = SequenceState(ids=ids, prompt_len=3, block_size=BB_CFG.block_size)
    with no_grad():
        h, _ = bb.forward(x, bb_params)
    return bb_params, head, x, h


def test_zero_init_head_gives_zero_correction():
    bb_params, head, x, h = _setup()
    delta_h, delta_logits = mrp.mrp_forward(x, h, head, bb_params)
    assert not delta_h.data.any() and not delta_logits.data.any()


def test_delta_logits_is_delta_h_times_lm_head():
    bb_params, head, x, h = _setup(seed=1)
    head.w_out.data = np.random.default_rng(2).normal(0.0, 0.1, head.w_out.shape)
    delta_h, delta_logits = mrp.mrp_forward(x, h, head, bb_params)
    assert delta_h.data.any()
    assert np.array_equal(delta_logits.data, delta_h.data @ bb_params.w_lm.data)


@pytest.mark.parametrize("block_size", [4, 8])
def test_no_grad_mrp_forward_bit_identical_to_taped(block_size):
    cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=block_size,
                            max_len=64)
    bb_params = bb.init_backbone(cfg, np.random.default_rng(block_size), std=0.3)
    examples = corpus.gen_arithmetic(1, 4, 999, block_size)
    head = training.train_mrp(examples, bb_params,
                              training.TrainConfig(batch_size=2, max_steps=2),
                              mrp.MrpConfig(depth=2))
    rng = np.random.default_rng(0)
    for ex in examples:
        x = corrupt(state_from_example(ex, block_size, all_masked=False), rng, rate=0.5)
        for xw in (x, x.window(0)):
            with no_grad():
                h, _ = bb.forward(xw, bb_params)
            taped = mrp.mrp_forward(xw, h, head, bb_params)
            assert taped[1]._parents and taped[1].data.any()
            with no_grad():
                plain = mrp.mrp_forward(xw, h, head, bb_params)
            for a, b in zip(taped, plain, strict=True):
                assert np.array_equal(a.data, b.data)


def test_no_grad_forwards_build_no_tensor_nodes(monkeypatch):
    bb_params, head, x, _ = _setup(seed=4)
    calls = []
    make = T._make
    monkeypatch.setattr(T, "_make", lambda *args: calls.append(1) or make(*args))
    with no_grad():
        h, logits = bb.forward(x, bb_params)
        out = mrp.mrp_forward(x, h, head, bb_params)
    assert calls == []
    for t in (h, logits, *out):
        assert isinstance(t, Tensor) and type(t.data) is np.ndarray
    mrp.mrp_forward(x, h, head, bb_params)  # with the tape on, nodes are made
    assert calls


@pytest.mark.parametrize("bad_id", [-1, VOCAB_SIZE])
@pytest.mark.parametrize("taped", [True, False])
def test_mrp_forward_rejects_out_of_range_ids(bad_id, taped):
    bb_params, head, x, h = _setup()
    x.ids[1] = bad_id
    with contextlib.nullcontext() if taped else no_grad():
        with pytest.raises(InvalidShapeError, match="vocabulary"):
            mrp.mrp_forward(x, h, head, bb_params)


@pytest.mark.parametrize("taped", [True, False])
def test_mrp_forward_rejects_a_state_longer_than_max_len(taped):
    # was a bare numpy ValueError from adding max_len position rows to
    # L token rows
    bb_params, head, _, _ = _setup()
    L = BB_CFG.max_len + BB_CFG.block_size
    x = SequenceState(np.full(L, 5), 4, BB_CFG.block_size)
    masks = set(bb._MASK_CACHE)
    with contextlib.nullcontext() if taped else no_grad():
        with pytest.raises(InvalidShapeError, match="max_len"):
            mrp.mrp_forward(x, np.zeros((L, BB_CFG.d_model)), head, bb_params)
    assert set(bb._MASK_CACHE) == masks  # refused before a mask was built


@pytest.mark.parametrize("taped", [True, False])
def test_mrp_forward_rejects_head_of_another_width(taped):
    wide = bb.BackboneConfig(d_model=32, n_heads=2, n_layers=1, block_size=4, max_len=32)
    bb_params = bb.init_backbone(wide, np.random.default_rng(0))
    _, head, x, _ = _setup()  # a head for a d=16 backbone
    with no_grad():
        h, _ = bb.forward(x, bb_params)
    with contextlib.nullcontext() if taped else no_grad():
        with pytest.raises(InvalidConfigError, match="width"):
            mrp.mrp_forward(x, h, head, bb_params)


def test_save_load_roundtrip_bytes_identical(tmp_path):
    _, head, _, _ = _setup(depth=2)
    head.w_out.data = np.random.default_rng(3).normal(0.0, 0.1, head.w_out.shape)
    p1, p2 = str(tmp_path / "a.mrpc"), str(tmp_path / "b.mrpc")
    mrp.save_mrp(p1, head)
    loaded = mrp.load_mrp(p1)
    assert loaded.config == head.config
    for (n1, t1), (n2, t2) in zip(head.named_tensors(), loaded.named_tensors(), strict=True):
        assert n1 == n2 and t2.requires_grad
        np.testing.assert_array_equal(t1.data.astype(np.float32), t2.data)
    mrp.save_mrp(p2, loaded)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_a_head_whose_width_the_default_head_count_does_not_divide_round_trips(tmp_path):
    # a backbone of width 6 with 3 heads: the loader reads the head's widths
    # from its records, and 6 is not a multiple of the default 4 heads
    cfg = bb.BackboneConfig(d_model=6, n_heads=3, n_layers=1, block_size=4, max_len=16)
    head = mrp.init_mrp(mrp.MrpConfig(depth=2), cfg, np.random.default_rng(0))
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    loaded = mrp.load_mrp(path)
    assert loaded.config == head.config
    for (n1, t1), (n2, t2) in zip(head.named_tensors(), loaded.named_tensors(), strict=True):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data.astype(np.float32), t2.data)


@pytest.mark.parametrize("name", ["mrp.layers.0.w_up", "mrp.w_fuse"])
def test_load_rejects_missing_or_misshapen_record(tmp_path, name):
    _, head, _, _ = _setup(depth=2)
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    blob = checkpoint.load_tensors(path)
    if name == "mrp.w_fuse":
        blob[name] = blob[name].T
    else:
        del blob[name]
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match=name):
        mrp.load_mrp(path)


@pytest.mark.parametrize("shape", [(16, 48), (16,), (2 ** 20, 1)],
                         ids=["ratio-3", "vector", "narrow"])
def test_load_rejects_a_first_mlp_matrix_of_another_shape(tmp_path, shape):
    # its first axis is the head's width, and the MLP is MLP_RATIO times as
    # wide: a ratio-3 head, a vector, or a narrow record that would ask for
    # a skeleton of width 2**20 are refused before a skeleton is built
    _, head, _, _ = _setup(depth=2)
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    blob = checkpoint.load_tensors(path)
    blob["mrp.layers.0.w_up"] = np.zeros(shape)
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match="'mrp.layers.0.w_up' has shape"):
        mrp.load_mrp(path)


@pytest.mark.parametrize("depth", [1, 3, 2 ** 30])
def test_load_rejects_a_depth_other_than_its_layer_records(tmp_path, depth):
    _, head, _, _ = _setup(depth=2)
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    blob = checkpoint.load_tensors(path)
    blob["mrp.config.depth"] = np.array([float(depth)])
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match="mrp.layers"):
        mrp.load_mrp(path)


def test_load_ignores_the_records_of_removed_config_fields(tmp_path):
    # head files saved with the former `objective` (index 0: residual) and
    # `sigma_init` fields still load, with every tensor as saved
    _, head, _, _ = _setup(depth=2)
    head.w_out.data = np.random.default_rng(3).normal(0.0, 0.1, head.w_out.shape)
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    # the former layout: the five config fields in field order, then the tensors
    config = [("depth", 2), ("sigma_init", 0.2), ("unroll", 2), ("reveal_k", 1), ("objective", 0)]
    tensors = [(name, arr) for name, arr in checkpoint.load_tensors(path).items()
               if not name.startswith("mrp.config.")]
    checkpoint.save_tensors(path, [(f"mrp.config.{name}", np.array([value]))
                                   for name, value in config] + tensors)
    loaded = mrp.load_mrp(path)
    assert loaded.config == head.config
    for (n1, t1), (n2, t2) in zip(head.named_tensors(), loaded.named_tensors(), strict=True):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data.astype(np.float32), t2.data)


@pytest.mark.parametrize("field, value", [("depth", 2.5), ("unroll", 2.9)])
def test_load_rejects_a_non_integral_int_record(tmp_path, field, value):
    _, head, _, _ = _setup(depth=2)
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    blob = checkpoint.load_tensors(path)
    # a float record for an int field used to load truncated (2.5 as 2)
    blob[f"mrp.config.{field}"] = np.array([value])
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match=field):
        mrp.load_mrp(path)


@pytest.mark.parametrize("taped", [True, False])
def test_batched_mrp_forward_matches_per_sequence_calls(taped):
    bb_params, head, _, _ = _setup(depth=2)
    head.w_out.data = np.random.default_rng(3).normal(0.0, 0.3, head.w_out.shape)
    rng = np.random.default_rng(4)
    states = []
    for _ in range(3):
        ids = rng.integers(4, VOCAB_SIZE, size=3 + 2 * BB_CFG.block_size)
        ids[3 + rng.choice(2 * BB_CFG.block_size, 3, replace=False)] = MASK_ID
        states.append(SequenceState(ids=ids, prompt_len=3, block_size=BB_CFG.block_size))
    stack = training._stack(states)
    h = rng.normal(0.0, 1.0, (3, stack.ids.shape[1], BB_CFG.d_model))
    with contextlib.nullcontext() if taped else no_grad():
        delta_h, delta_l = mrp.mrp_forward(stack, T.tensor(h), head, bb_params)
        assert bool(delta_l._parents) == taped and delta_l.shape == (3, 11, VOCAB_SIZE)
        for b, x in enumerate(states):
            dh, dl = mrp.mrp_forward(x, T.tensor(h[b]), head, bb_params)
            assert np.abs(delta_h.data[b] - dh.data).max() <= 1e-12
            assert np.abs(delta_l.data[b] - dl.data).max() <= 1e-12
        with pytest.raises(InvalidShapeError, match="align"):
            mrp.mrp_forward(states[0], T.tensor(h), head, bb_params)
        with pytest.raises(InvalidShapeError, match="align"):
            mrp.mrp_forward(stack, T.tensor(h[:2]), head, bb_params)
        # an h of the first block's window only: x is not cut to fit it
        for x, short in ((stack, h[:, :7]), (states[0], h[0, :7])):
            with pytest.raises(InvalidShapeError, match="align"):
                mrp.mrp_forward(x, T.tensor(short), head, bb_params)


@pytest.mark.parametrize("h", [[[0.0] * 16] * 11, 0.0, None], ids=["list", "float", "None"])
@pytest.mark.parametrize("taped", [True, False])
def test_mrp_forward_refuses_a_hidden_state_that_is_not_an_array(h, taped):
    # a list used to raise a bare AttributeError on `h.shape`
    bb_params, head, x, _ = _setup()
    with contextlib.nullcontext() if taped else no_grad():
        with pytest.raises(InvalidShapeError, match="hidden state"):
            mrp.mrp_forward(x, h, head, bb_params)


def test_a_default_head_round_computes_fewer_layer_rows_than_a_cached_backbone_forward(
        monkeypatch):
    # a decode-static-b8 window: a 7-row prompt and one block of 8
    cfg = bb.BackboneConfig()
    rng = np.random.default_rng(0)
    bb_params = bb.init_backbone(cfg, rng, std=0.3)
    head = mrp.init_mrp(mrp.MrpConfig(), cfg, rng)
    ids = np.concatenate([rng.integers(4, VOCAB_SIZE, 7), np.full(cfg.block_size, MASK_ID)])
    x = SequenceState(ids=ids, prompt_len=7, block_size=cfg.block_size)
    rows = []

    def counted(layer):
        def call(stream, *args, **kwargs):
            rows.append(int(np.prod(stream.shape[:-1])))
            return layer(stream, *args, **kwargs)
        return call

    monkeypatch.setattr(bb, "transformer_layer", counted(bb.transformer_layer))
    monkeypatch.setattr(mrp, "transformer_layer", counted(mrp.transformer_layer))
    prefix = bb.PrefixKV(x.prompt_len)
    with no_grad():
        h, _ = bb.forward(x, bb_params, prefix=prefix)  # fills the prefix
        rows.clear()
        bb.forward(x, bb_params, prefix=prefix)
        backbone_rows = sum(rows)
        rows.clear()
        mrp.mrp_forward(x, h, head, bb_params)
        head_rows = sum(rows)
    # every backbone layer on the block's 8 rows, against one head layer on
    # the window's 15 rows; a depth-3 head would compute 45
    assert (head_rows, backbone_rows) == (15, 32)


def test_a_depth_3_head_file_still_loads_as_depth_3(tmp_path):
    bb_params, head, x, h = _setup(depth=3)
    rng = np.random.default_rng(5)
    head.w_out.data = rng.normal(0.0, 0.1, head.w_out.shape)
    # float32 values, which the file holds exactly
    for _, t in head.named_tensors():
        t.data = t.data.astype(np.float32).astype(np.float64)
    path = str(tmp_path / "head.mrpc")
    mrp.save_mrp(path, head)
    loaded = mrp.load_mrp(path)
    assert mrp.MrpConfig().depth != 3
    assert loaded.config == head.config and len(loaded.layers) == 3
    with no_grad():
        saved, restored = (mrp.mrp_forward(x, h, g, bb_params) for g in (head, loaded))
    assert saved[1].data.any()
    for a, b in zip(saved, restored, strict=True):
        assert np.array_equal(a.data, b.data)
