"""Confidence computation over the current block; the baseline decode loop."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import corpus, diffusion
from mrpdiff.corpus import MASK_ID
from mrpdiff.diffusion import Policy, SequenceState, confidence_of
from mrpdiff.numerics import tensor as T


def test_confidence_matches_softmax_rows_bit_for_bit():
    rng = np.random.default_rng(5)
    ids = np.array([2, 7, 9, MASK_ID, 5, MASK_ID, MASK_ID, MASK_ID, MASK_ID])
    x = SequenceState(ids=ids, masked=ids == MASK_ID, prompt_len=3, block_size=2)
    logits = rng.normal(scale=20.0, size=(len(ids), 11))
    conf = confidence_of(T.tensor(logits), x)
    assert conf.positions.tolist() == [3]  # current block is [3, 5)
    p = T.softmax_rows(T.tensor(logits[conf.positions])).data
    assert np.array_equal(conf.probs, p.max(axis=-1))
    assert np.array_equal(conf.tokens, p.argmax(axis=-1))


@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("policy", [Policy("static", r=1), Policy("static", r=3),
                                    Policy("dynamic", tau=0.1)])
def test_baseline_decode_keeps_state_valid_and_traces_round_trip(
        tmp_path, monkeypatch, block_size, policy):
    cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=block_size,
                            max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(block_size), std=0.3)
    reveal = diffusion.reveal

    def checked_reveal(x, positions, tokens):
        out = reveal(x, positions, tokens)
        out.validate()
        return out

    monkeypatch.setattr(diffusion, "reveal", checked_reveal)
    # 1998 and 1001 (plus EOS) span two blocks of 4
    for a, b, op in [(999, 999, "+"), (500, 501, "+"), (45, 12, "-"), (87, 9, "+")]:
        ex = corpus.make_example(a, b, op, block_size)
        x = diffusion.state_from_example(ex, block_size)
        trace = diffusion.DecodeTrace(block_size=block_size, prompt_len=x.prompt_len)
        stats = SimpleNamespace(backbone_forwards=0, tokens_generated=0, block_steps={})
        while x.current_block < x.n_blocks:
            diffusion.denoise_block_baseline(params, x, policy, trace=trace, stats=stats)
            diffusion.finalize_block(x)
            x.validate()
        assert x.mask_count() == 0
        assert all(1 <= n <= block_size for n in stats.block_steps.values())
        assert len(trace.records) == stats.backbone_forwards

        path = str(tmp_path / "trace.mrpc")
        diffusion.save_trace(path, trace)
        loaded = diffusion.load_trace(path)
        assert (loaded.block_size, loaded.prompt_len) == (block_size, x.prompt_len)
        for a, b in zip(trace.records, loaded.records, strict=True):
            assert (a.kind, a.block, a.window, a.verify) == (b.kind, b.block, b.window, b.verify)
            for name in ("ids", "masked", "revealed_positions", "revealed_tokens"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            # h and logits are stored as float32
            assert np.array_equal(a.h.astype(np.float32), b.h)
            assert np.array_equal(a.logits.astype(np.float32), b.logits)
            assert (b.drafts, b.accepted, b.rejected) == ([], [], [])
