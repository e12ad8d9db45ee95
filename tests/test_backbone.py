"""Attention-mask rule, block locality, head identity, checkpoint format."""

from __future__ import annotations

import contextlib
import math
from pathlib import Path

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import checkpoint
from mrpdiff.corpus import MASK_ID
from mrpdiff.diffusion import SequenceState
from mrpdiff.errors import ContractViolationError, InvalidConfigError, InvalidShapeError
from mrpdiff.numerics import tensor as T
from mrpdiff.numerics.tensor import no_grad

from util import check_grads


def tiny_config(**kw):
    defaults = dict(d_model=16, n_heads=2, n_layers=2, vocab_size=44,
                    block_size=4, max_len=32)
    defaults.update(kw)
    return bb.BackboneConfig(**defaults)


def make_state(ids, prompt_len, block_size):
    ids = np.asarray(ids, dtype=np.int64)
    return SequenceState(ids=ids, prompt_len=prompt_len, block_size=block_size)


def rand_state(rng, prompt_len, n_blocks, block_size, vocab=44, mask_frac=0.0):
    ids = rng.integers(4, vocab, size=prompt_len + n_blocks * block_size)
    if mask_frac:
        resp = np.arange(prompt_len, len(ids))
        hit = resp[rng.random(len(resp)) < mask_frac]
        ids[hit] = MASK_ID
    return make_state(ids, prompt_len, block_size)


# ---------------------------------------------------------------------------
# attention mask
# ---------------------------------------------------------------------------


def test_mask_hand_example():
    m = bb.attention_mask(4, 2, prompt_len=0)
    expected = np.array([
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    ], dtype=bool)
    assert np.array_equal(m, expected)


def test_mask_single_block_all_ones():
    assert bb.attention_mask(6, 6, prompt_len=0).all()


def test_mask_first_block_sees_only_itself():
    m = bb.attention_mask(8, 4, prompt_len=0)
    assert np.array_equal(np.flatnonzero(m[0]), np.arange(4))


def test_mask_prompt_forms_leading_block():
    m = bb.attention_mask(7, 2, prompt_len=3)
    # prompt rows see only the prompt
    assert np.array_equal(m[0], np.array([1, 1, 1, 0, 0, 0, 0], dtype=bool))
    # first response block sees prompt + itself
    assert np.array_equal(m[3], np.array([1, 1, 1, 1, 1, 0, 0], dtype=bool))
    # second response block sees everything
    assert m[5].all()


def test_mask_misaligned_grid_raises():
    with pytest.raises(InvalidConfigError):
        bb.attention_mask(7, 2, prompt_len=0)


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------


def test_forward_shapes():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(1), 3, 2, cfg.block_size)
    with no_grad():
        h, logits = bb.forward(x, params)
    assert h.shape == (x.length, cfg.d_model)
    assert logits.shape == (x.length, cfg.vocab_size)
    assert np.isfinite(h.data).all() and np.isfinite(logits.data).all()


def test_forward_deterministic():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(1), 3, 2, cfg.block_size, mask_frac=0.5)
    with no_grad():
        _, l1 = bb.forward(x, params)
        _, l2 = bb.forward(x, params)
    assert np.array_equal(l1.data, l2.data)


def test_block_locality_bit_exact():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(2)
    x = rand_state(rng, 3, 3, cfg.block_size)
    y = x.clone()
    lo, hi = y.block_bounds(2)      # change content of the last block
    y.ids[lo:hi] = rng.integers(4, cfg.vocab_size, size=hi - lo)
    with no_grad():
        _, lx = bb.forward(x, params)
        _, ly = bb.forward(y, params)
    assert np.array_equal(lx.data[:lo], ly.data[:lo])
    assert not np.array_equal(lx.data[lo:hi], ly.data[lo:hi])


def test_window_truncation_matches_full_forward():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(3), 3, 3, cfg.block_size)
    cut = x.prompt_len + 2 * cfg.block_size
    with no_grad():
        _, full = bb.forward(x, params)
        _, part = bb.forward(x.window(1), params)
    # bit-equal for this state; in general a window's rows differ from the
    # full forward's by rounding (see the default-widths test below)
    assert np.array_equal(full.data[:cut], part.data)


def test_head_identity_no_bias():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(4), 3, 2, cfg.block_size, mask_frac=0.3)
    with no_grad():
        h, logits = bb.forward(x, params)
    np.testing.assert_allclose(logits.data, h.data @ params.w_lm.data, atol=1e-12)
    # difference of two states maps linearly through the head
    y = x.clone()
    y.ids[y.prompt_len] = 5
    with no_grad():
        h2, l2 = bb.forward(y, params)
    np.testing.assert_allclose(
        l2.data - logits.data, (h2.data - h.data) @ params.w_lm.data, atol=1e-10
    )


def test_forward_rejects_overlong_input():
    cfg = tiny_config(max_len=8)
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(5), 4, 2, 4)
    with pytest.raises(InvalidShapeError):
        with no_grad():
            bb.forward(x, params)


@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("bad", ["negative", "vocab_size", "empty"])
def test_forward_rejects_out_of_range_and_empty_ids(bad, taped):
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(5), 3, 2, cfg.block_size)
    if bad == "empty":
        x = make_state([], 0, cfg.block_size)
    else:
        x.ids[4] = -1 if bad == "negative" else cfg.vocab_size
    with pytest.raises(InvalidShapeError, match="vocabulary"):
        if taped:
            bb.forward(x, params)
        else:
            with no_grad():
                bb.forward(x, params)


def test_masked_block_order_invariance():
    # all MASK ids are identical by construction, so a fully masked block's
    # logits depend only on the preceding clean blocks
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(6), 3, 2, cfg.block_size)
    lo, hi = x.block_bounds(1)
    x.ids[lo:hi] = MASK_ID
    y = x.clone()
    with no_grad():
        _, lx = bb.forward(x, params)
        _, ly = bb.forward(y, params)
    assert np.array_equal(lx.data[lo:hi], ly.data[lo:hi])


@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
def test_no_grad_forward_bit_identical_to_taped(block_size, prompt_len):
    cfg = tiny_config(block_size=block_size, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(prompt_len)
    for mask_frac in (0.5, 1.0):
        x = rand_state(rng, prompt_len, 3, block_size, mask_frac=mask_frac)
        for xw in (x, x.window(0), x.window(1)):
            h, logits = bb.forward(xw, params)
            assert logits._parents  # the tape was recorded
            with no_grad():
                h0, l0 = bb.forward(xw, params)
            assert np.array_equal(h.data, h0.data)
            assert np.array_equal(logits.data, l0.data)


def test_no_grad_forward_bit_identical_to_taped_at_default_widths():
    # at the default widths (4 heads of 16) and 17 to 20 rows, a strided view
    # of the keys gives the scores' matmul other bits than the tape's
    # contiguous keys; the tiny widths above do not show that
    cfg = bb.BackboneConfig(n_layers=2)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(11)
    for prompt_len in (1, 3, 4):
        x = rand_state(rng, prompt_len, 2, cfg.block_size, mask_frac=0.5)
        h, logits = bb.forward(x, params)
        with no_grad():
            h0, l0 = bb.forward(x, params)
        assert np.array_equal(h.data, h0.data)
        assert np.array_equal(logits.data, l0.data)


# ---------------------------------------------------------------------------
# a batch of sequences
# ---------------------------------------------------------------------------


def stack_states(states):
    return SequenceState(ids=np.stack([x.ids for x in states]),
                         prompt_len=states[0].prompt_len, block_size=states[0].block_size)


def check_batched_forward(widths, block_size, prompt_len, taped):
    """Batches of 1-4 sequences against per-sequence forwards on the same
    path: ≤1e-12, and bit-equal for a batch of one."""
    cfg = bb.BackboneConfig(n_layers=2, block_size=block_size, **widths)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(prompt_len)
    with contextlib.nullcontext() if taped else no_grad():
        for batch in (1, 2, 3, 4):
            states = [rand_state(rng, prompt_len, 2, block_size, mask_frac=0.5)
                      for _ in range(batch)]
            h, logits = bb.forward(stack_states(states), params)
            assert bool(logits._parents) == taped
            assert logits.shape == (batch, prompt_len + 2 * block_size, 44)
            for b, x in enumerate(states):
                h1, l1 = bb.forward(x, params)
                if batch == 1:
                    assert np.array_equal(h.data[0], h1.data)
                    assert np.array_equal(logits.data[0], l1.data)
                assert np.abs(h.data[b] - h1.data).max() <= 1e-12
                assert np.abs(logits.data[b] - l1.data).max() <= 1e-12


@pytest.mark.parametrize("widths", [dict(d_model=16, n_heads=2, max_len=64), {}],
                         ids=["tiny", "default-widths"])
@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
def test_batched_forward_matches_per_sequence_forwards(widths, block_size, prompt_len):
    check_batched_forward(widths, block_size, prompt_len, taped=True)


@pytest.mark.parametrize("widths", [dict(d_model=16, n_heads=2, max_len=64), {}],
                         ids=["tiny", "default-widths"])
@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
def test_batched_no_grad_forward_matches_per_sequence_forwards(widths, block_size, prompt_len):
    check_batched_forward(widths, block_size, prompt_len, taped=False)


def test_batched_forward_matches_taped_and_prefixed_runs_and_checks_ids():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(3)
    x = stack_states([rand_state(rng, 3, 2, cfg.block_size, mask_frac=1.0) for _ in range(2)])
    with no_grad():
        h, logits = bb.forward(x, params)
    taped_h, taped_logits = bb.forward(x, params)
    assert np.array_equal(h.data, taped_h.data) and np.array_equal(logits.data, taped_logits.data)
    with no_grad():
        prefix_h, prefix_logits = bb.forward(x, params, prefix=bb.PrefixKV(3))
    assert np.array_equal(prefix_h.data, h.data)
    assert np.array_equal(prefix_logits.data, logits.data)
    x.ids[1, -1] = cfg.vocab_size
    with pytest.raises(InvalidShapeError, match="token ids"):
        bb.forward(x, params)
    x.ids = x.ids[None]
    with pytest.raises(InvalidShapeError, match="shape"):
        bb.forward(x, params)


# ---------------------------------------------------------------------------
# one tape node per transformer layer
# ---------------------------------------------------------------------------


def reference_layer(stream, layer, addmask, n_heads, eps):
    """The layer composed from `numerics.tensor` ops, one tape node per op."""
    *lead, L, d = stream.shape
    dh = d // n_heads
    n = len(lead)
    merge = (*range(n), n + 1, n, n + 2)  # (..., L, heads, dh) <-> (..., heads, L, dh)
    keys = (*range(n + 1), n + 2, n + 1)

    def heads(t):
        return T.transpose(T.reshape(t, (*lead, L, n_heads, dh)), merge)

    a = T.rmsnorm(stream, layer.attn_norm, eps)
    qkv = T.matmul(a, layer.w_qkv)
    q, k, v = (heads(T.slice_last(qkv, i * d, (i + 1) * d)) for i in range(3))
    scores = T.scale(T.matmul(q, T.transpose(k, keys)), 1.0 / math.sqrt(dh))
    if addmask is not None:
        scores = T.add(scores, addmask)
    ctx = T.reshape(T.transpose(T.matmul(T.softmax_rows(scores), v), merge), (*lead, L, d))
    stream = T.add(stream, T.matmul(ctx, layer.w_attn_out))
    m = T.rmsnorm(stream, layer.mlp_norm, eps)
    return T.add(stream, T.matmul(T.silu(T.matmul(m, layer.w_up)), layer.w_down))


def _layer_case(lead, block_size, prompt_len, d=16, n_heads=2, seed=0):
    rng = np.random.default_rng(seed)
    L = prompt_len + 2 * block_size
    layer = bb.LayerParams.init(d, 4 * d, rng, 0.3)
    for gain in (layer.attn_norm, layer.mlp_norm):
        gain.data += rng.normal(0.0, 0.3, d)
    stream = T.param(rng.normal(size=(*lead, L, d)))
    weights = rng.normal(size=(*lead, L, d))
    return layer, stream, weights, bb.additive_mask(L, block_size, prompt_len)


def _layer_grads(layer_fn, layer, stream, weights, addmask):
    params = [stream] + [t for _, t in layer.named("layer")]
    T.zero_grads(params)
    out = layer_fn(stream, layer, addmask, 2, 1e-6)
    T.backward(T.sum_all(T.mul(out, weights)))
    return out.data, [t.grad for t in params]


@pytest.mark.parametrize("lead", [(), (3,)], ids=["L-d", "B-L-d"])
@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
@pytest.mark.parametrize("masked", [True, False], ids=["addmask", "no-mask"])
def test_fused_layer_matches_the_composed_tensor_ops_bit_for_bit(lead, block_size, prompt_len,
                                                                   masked):
    layer, stream, weights, addmask = _layer_case(lead, block_size, prompt_len)
    addmask = addmask if masked else None
    out, grads = _layer_grads(bb.transformer_layer, layer, stream, weights, addmask)
    ref_out, ref_grads = _layer_grads(reference_layer, layer, stream, weights, addmask)
    assert np.array_equal(out, ref_out)
    assert len(grads) == 7
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape and np.array_equal(g, ref)


@pytest.mark.parametrize("lead", [(), (2,)], ids=["L-d", "B-L-d"])
def test_fd_through_the_fused_layer(lead):
    layer, stream, weights, addmask = _layer_case(lead, 4, 3, d=8, seed=1)
    params = [stream] + [t for _, t in layer.named("layer")]
    check_grads(lambda: T.sum_all(T.mul(
        bb.transformer_layer(stream, layer, addmask, 2, 1e-6), weights)), params, max_coords=8)


def test_taped_forward_records_one_node_per_layer(monkeypatch):
    cfg = tiny_config(n_layers=3)
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(1), 3, 2, cfg.block_size, mask_frac=0.5)
    nodes = []
    make = T._make

    def record(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        nodes.append(out)
        return out

    monkeypatch.setattr(T, "_make", record)
    bb.forward(x, params)
    for layer in params.layers:
        owned = [t for _, t in layer.named("layer")]
        users = [n for n in nodes if any(p is t for p in n._parents for t in owned)]
        assert len(users) == 1 and users[0]._parents[1:] == tuple(owned)
    # embedding (lookup, positions, sum), the layers, final norm and LM head
    assert len(nodes) == 3 + cfg.n_layers + 2


def test_taped_layer_refuses_a_cache():
    layer, stream, _, addmask = _layer_case((), 4, 3)
    cache = bb.LayerKV.empty(2, stream.shape[0], 8)
    with pytest.raises(ContractViolationError, match="taped"):
        bb.transformer_layer(stream, layer, addmask, 2, 1e-6, cache)


def test_window_forward_is_close_to_the_full_forward_at_default_widths():
    cfg = bb.BackboneConfig(n_layers=2)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(12)
    for prompt_len in (1, 5, 9):
        x = rand_state(rng, prompt_len, 3, cfg.block_size, mask_frac=0.5)
        with no_grad():
            h, logits = bb.forward(x, params)
            for block in range(3):
                xw = x.window(block)
                hw, lw = bb.forward(xw, params)
                assert hw.shape == (xw.length, cfg.d_model)
                np.testing.assert_allclose(hw.data, h.data[:xw.length], rtol=0, atol=1e-12)
                np.testing.assert_allclose(lw.data, logits.data[:xw.length], rtol=0, atol=1e-12)


@pytest.mark.parametrize("with_prefix", [False, True])
def test_stacked_window_forward_matches_single_window_forwards_bit_for_bit(with_prefix):
    cfg = bb.BackboneConfig(n_layers=2)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(13)
    for prompt_len in (1, 5, 9):
        states = [rand_state(rng, prompt_len, 3, cfg.block_size, mask_frac=1.0)
                  for _ in range(3)]
        stack = stack_states(states)
        for block in range(3):
            lo, hi = stack.block_bounds(block)
            prefixes = [bb.PrefixKV(lo) if with_prefix else None for _ in range(4)]
            # the first forward fills a prefix, the second reuses it
            for step in range(2):
                if step:
                    hit = rng.choice(np.arange(lo, hi), size=3, replace=False)
                    stack.ids[:, hit] = rng.integers(4, cfg.vocab_size, size=(3, 3))
                    for b, x in enumerate(states):
                        x.ids[hit] = stack.ids[b, hit]
                with no_grad():
                    h, logits = bb.forward(stack.window(block), params, prefix=prefixes[0])
                    for b, x in enumerate(states):
                        h1, l1 = bb.forward(x.window(block), params, prefix=prefixes[b + 1])
                        assert np.array_equal(h.data[b], h1.data)
                        assert np.array_equal(logits.data[b], l1.data)


# ---------------------------------------------------------------------------
# prefix K/V reuse
# ---------------------------------------------------------------------------


def _mask_block(x, block, share):
    """Mask the first `share` of the block's positions (the rest keep their ids)."""
    lo, hi = x.block_bounds(block)
    cut = lo + int(round(share * (hi - lo)))
    x.ids[lo:cut] = MASK_ID


@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
def test_prefix_forward_matches_full_forward(block_size, prompt_len):
    cfg = tiny_config(block_size=block_size, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(prompt_len)
    for block in range(3):
        x = rand_state(rng, prompt_len, 3, block_size)
        for b in range(block, 3):
            _mask_block(x, b, 1.0)
        xw = x.window(block)
        lo, hi = x.block_bounds(block)
        prefix = bb.PrefixKV(lo)
        # the first forward fills the prefix, the later ones reuse it after
        # tokens of the block are revealed (written into x, seen by xw)
        for share in (1.0, 0.5, 0.0):
            x.ids[lo:hi] = rng.integers(4, cfg.vocab_size, size=hi - lo)
            _mask_block(x, block, share)
            with no_grad():
                h, logits = bb.forward(xw, params, prefix=prefix)
                h0, l0 = bb.forward(xw, params)
            assert h.shape == h0.shape and logits.shape == l0.shape
            np.testing.assert_allclose(h.data, h0.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits.data, l0.data, rtol=0, atol=1e-12)
            assert prefix.h is not None


@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
@pytest.mark.parametrize("batch", [1, 3])
def test_batched_prefix_forward_matches_full_forward(monkeypatch, block_size, prompt_len, batch):
    cfg = tiny_config(block_size=block_size, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(prompt_len)
    embedded = []
    embedding = bb.input_embedding
    monkeypatch.setattr(bb, "input_embedding",
                        lambda p, ids, start=0: embedded.append(ids.shape) or embedding(p, ids, start))
    n_blocks = 3
    L = prompt_len + n_blocks * block_size
    # a prefix at the prompt's end (a tail of three blocks, which adds its
    # mask rows), at the first block's end, and at the last block's start
    for rows in (prompt_len, prompt_len + block_size, L - block_size):
        x = stack_states([rand_state(rng, prompt_len, n_blocks, block_size, mask_frac=1.0)
                          for _ in range(batch)])
        prefix = bb.PrefixKV(rows)
        for step in range(3):
            if step:  # reveal some tail rows; the prefix rows stay
                hit = rows + rng.choice(L - rows, size=2, replace=False)
                x.ids[:, hit] = rng.integers(4, cfg.vocab_size, size=(batch, 2))
            embedded.clear()
            with no_grad():
                h, logits = bb.forward(x, params, prefix=prefix)
                h0, l0 = bb.forward(x, params)
            assert embedded[0] == (batch, L - rows if step else L)
            assert h.shape == h0.shape == (batch, L, cfg.d_model)
            np.testing.assert_allclose(h.data, h0.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logits.data, l0.data, rtol=0, atol=1e-12)
    # the same prefix ids in a longer window
    longer = stack_states([make_state(np.concatenate([ids, ids[-block_size:]]), prompt_len,
                                      block_size) for ids in x.ids])
    with no_grad(), pytest.raises(ContractViolationError, match="changed"):
        bb.forward(longer, params, prefix=prefix)


@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("prompt_len", [1, 5, 8])
def test_array_layer_on_a_filled_cache_needs_no_mask(block_size, prompt_len):
    cfg = tiny_config(block_size=block_size, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(0), std=0.3)
    rng = np.random.default_rng(prompt_len)
    L = prompt_len + 3 * block_size
    rows = L - block_size
    stream = rng.normal(size=(L, cfg.d_model))
    mask = bb.additive_mask(L, block_size, prompt_len)
    # the last block sees every key: its mask rows are all zero
    assert not mask[rows:].any()
    for layer in params.layers:
        cache = bb.LayerKV.empty(cfg.n_heads, L, cfg.d_model // cfg.n_heads)
        full = bb.transformer_layer(stream, layer, mask, cfg.n_heads, cfg.norm_eps, cache)
        masked = bb.transformer_layer(stream[rows:], layer, mask[rows:], cfg.n_heads,
                                      cfg.norm_eps, cache)
        unmasked = bb.transformer_layer(stream[rows:], layer, None, cfg.n_heads,
                                        cfg.norm_eps, cache)
        assert np.array_equal(masked, unmasked)
        np.testing.assert_allclose(unmasked, full[rows:], rtol=0, atol=1e-12)
        stream = full


def test_prefix_forward_returns_new_arrays():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    xw = rand_state(np.random.default_rng(9), 3, 2, cfg.block_size, mask_frac=1.0).window(1)
    prefix = bb.PrefixKV(3 + cfg.block_size)
    with no_grad():
        outs = [bb.forward(xw, params, prefix=prefix) for _ in range(3)]
    kept = [a.data.copy() for pair in outs for a in pair]
    cached = [prefix.h, prefix.logits] + [b for kv in prefix.layers for b in (kv.k_t, kv.v)]
    arrays = [a.data for pair in outs for a in pair]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in cached)
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))


def test_prefix_forward_rejects_tape_and_misplaced_or_stale_prefix():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(9), 3, 3, cfg.block_size, mask_frac=1.0)
    xw = x.window(1)
    with pytest.raises(ContractViolationError, match="no_grad"):
        bb.forward(xw, params, prefix=bb.PrefixKV(3 + cfg.block_size))
    # inside the prompt, off the block grid, and at the window's end
    for rows in (2, 4, xw.length):
        with pytest.raises(ContractViolationError, match="block grid"):
            with no_grad():
                bb.forward(xw, params, prefix=bb.PrefixKV(rows))
    prefix = bb.PrefixKV(3 + cfg.block_size)
    with no_grad():
        bb.forward(xw, params, prefix=prefix)
        x.ids[3] = 7 if x.ids[3] != 7 else 8  # a write into x shows in its window
        with pytest.raises(ContractViolationError, match="changed"):
            bb.forward(xw, params, prefix=prefix)


# ---------------------------------------------------------------------------
# perturbation norm
# ---------------------------------------------------------------------------


def test_perturbation_norm_zero_and_single():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(7), 3, 2, cfg.block_size, mask_frac=0.7)
    assert bb.perturbation_norm(x, x, params) == 0.0
    y = x.clone()
    pos = int(np.flatnonzero(y.masked)[0])
    y.ids[pos] = 9
    e = params.embed.data
    expect = np.linalg.norm(e[9] - e[MASK_ID])
    assert abs(bb.perturbation_norm(x, y, params) - expect) < 1e-12


def test_perturbation_norm_two_rows_frobenius():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = rand_state(np.random.default_rng(8), 3, 2, cfg.block_size, mask_frac=1.0)
    y = x.clone()
    p1, p2 = np.flatnonzero(y.masked)[:2]
    y.ids[p1], y.ids[p2] = 9, 12
    e = params.embed.data
    d1 = np.linalg.norm(e[9] - e[MASK_ID])
    d2 = np.linalg.norm(e[12] - e[MASK_ID])
    expect = np.sqrt(d1 ** 2 + d2 ** 2)
    assert abs(bb.perturbation_norm(x, y, params) - expect) < 1e-12
    with pytest.raises(InvalidShapeError):
        z = SequenceState(ids=y.ids[:-1], prompt_len=3, block_size=4)
        bb.perturbation_norm(x, z, params)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("n_heads", 0), ("block_size", 0), ("d_model", 0), ("mlp_mult", 0), ("max_len", 0),
    ("norm_eps", 0.0), ("norm_eps", -1e-6),
])
def test_backbone_config_rejects_sizes_below_one_and_nonpositive_eps(field, value):
    with pytest.raises(InvalidConfigError, match=field):
        tiny_config(**{field: value}).validate()


@pytest.mark.parametrize("field", ["n_heads", "block_size"])
def test_checkpoint_config_record_of_zero_raises_typed_error(tmp_path, field):
    path = str(tmp_path / "model.mrpc")
    bb.save_backbone(path, bb.init_backbone(tiny_config(), np.random.default_rng(0)))
    blob = checkpoint.load_tensors(path)
    blob[f"backbone.config.{field}"] = np.zeros(1)
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match=field):
        bb.load_backbone(path)


@pytest.mark.parametrize("field", ["max_len", "n_layers", "d_model", "vocab_size", "mlp_mult"])
def test_checkpoint_config_larger_than_its_records_raises_typed_error(tmp_path, field):
    # 2**30 rows of positions would be a 128 GiB skeleton, and 2**30
    # layers a loop of 2**30 inits: the sizes are checked before either
    path = str(tmp_path / "model.mrpc")
    bb.save_backbone(path, bb.init_backbone(tiny_config(), np.random.default_rng(0)))
    blob = checkpoint.load_tensors(path)
    blob[f"backbone.config.{field}"] = np.array([2.0 ** 30])
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match="backbone"):
        bb.load_backbone(path)


def test_checkpoint_layout_and_roundtrip(tmp_path):
    path = str(tmp_path / "model.mrpc")
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    bb.save_backbone(path, params)

    raw = Path(path).read_bytes()
    assert raw[:4] == b"MRPC"
    assert int.from_bytes(raw[4:8], "little") == 1
    hlen = int.from_bytes(raw[8:16], "little")
    import json
    header = json.loads(raw[16:16 + hlen])
    assert isinstance(header, list)
    assert {"name", "shape", "dtype", "offset"} <= set(header[0])
    assert all(rec["dtype"] == "f32" for rec in header)

    loaded = bb.load_backbone(path)
    assert loaded.config == cfg
    for (n1, t1), (n2, t2) in zip(params.named_tensors(), loaded.named_tensors()):
        assert n1 == n2
        # restored values are the f32-rounded originals, held in float64
        assert t2.data.dtype == np.float64
        np.testing.assert_array_equal(t1.data.astype(np.float32), t2.data.astype(np.float32))


def test_checkpoint_deterministic_bytes(tmp_path):
    p1, p2 = str(tmp_path / "a.mrpc"), str(tmp_path / "b.mrpc")
    params1 = bb.init_backbone(tiny_config(), np.random.default_rng(3))
    params2 = bb.init_backbone(tiny_config(), np.random.default_rng(3))
    bb.save_backbone(p1, params1)
    bb.save_backbone(p2, params2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert checkpoint.file_sha256(p1) == checkpoint.file_sha256(p2)


def test_checkpoint_write_that_fails_midway_keeps_the_old_file(tmp_path, monkeypatch):
    path = str(tmp_path / "model.mrpc")
    bb.save_backbone(path, bb.init_backbone(tiny_config(), np.random.default_rng(0)))
    before = Path(path).read_bytes()
    real_open = open

    class FailingFile:
        """A file whose second write raises, as a full disk would."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("no space left on device")
            return self.f.write(data)

    monkeypatch.setattr(checkpoint, "open", lambda *a: FailingFile(real_open(*a)), raising=False)
    with pytest.raises(OSError, match="no space"):
        bb.save_backbone(path, bb.init_backbone(tiny_config(), np.random.default_rng(1)))
    monkeypatch.undo()
    assert Path(path).read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.mrpc"]


def test_checkpoint_missing_file_raises():
    from mrpdiff.errors import MissingArtifactError
    with pytest.raises(MissingArtifactError):
        checkpoint.load_tensors("/nonexistent/x.mrpc")


@pytest.mark.parametrize("keep", [10, 200, -100])
def test_checkpoint_truncated_raises_typed_error(tmp_path, keep):
    # 10 B cuts the header length, 200 B the JSON header, -100 B the payload
    path = str(tmp_path / "model.mrpc")
    bb.save_backbone(path, bb.init_backbone(tiny_config(), np.random.default_rng(0)))
    raw = Path(path).read_bytes()
    with open(path, "wb") as f:
        f.write(raw[:keep])
    with pytest.raises(InvalidConfigError):
        bb.load_backbone(path)


@pytest.mark.parametrize("damage", ["wrong_shape", "missing"])
def test_checkpoint_bad_record_raises_typed_error(tmp_path, damage):
    path = str(tmp_path / "model.mrpc")
    bb.save_backbone(path, bb.init_backbone(tiny_config(), np.random.default_rng(0)))
    blob = checkpoint.load_tensors(path)
    if damage == "wrong_shape":
        blob["backbone.layers.1.w_up"] = blob["backbone.layers.1.w_up"].T
    else:
        del blob["backbone.final_norm"]
    checkpoint.save_tensors(path, list(blob.items()))
    with pytest.raises(InvalidConfigError, match="backbone"):
        bb.load_backbone(path)
