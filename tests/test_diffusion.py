"""Confidence computation over the current block, selection tie-breaks,
reveal contracts, corruption, block backfill, the baseline decode loop
(also against the benchmark's recorded answers) and the decode trace."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import checkpoint, corpus, diffusion
from mrpdiff.corpus import EOS_ID, MASK_ID, PAD_ID
from mrpdiff.diffusion import Policy, SequenceState, confidence_of
from mrpdiff.errors import ContractViolationError, InvalidConfigError, InvalidShapeError
from mrpdiff.numerics import tensor as T


def test_confidence_matches_softmax_rows_bit_for_bit():
    rng = np.random.default_rng(5)
    ids = np.array([2, 7, 9, MASK_ID, 5, MASK_ID, MASK_ID, MASK_ID, MASK_ID])
    x = SequenceState(ids=ids, prompt_len=3, block_size=2)
    logits = rng.normal(scale=20.0, size=(len(ids), 11))
    conf = confidence_of(T.tensor(logits), x)
    # current block is [3, 5), its offset 0 masked
    assert conf.lo == 3 and conf.masked.tolist() == [True, False]
    p = T.softmax_rows(T.tensor(logits[[3]])).data
    assert np.array_equal(conf.probs[conf.masked], p.max(axis=-1))
    assert np.array_equal(conf.tokens[conf.masked], p.argmax(axis=-1))
    assert conf.probs[1] == -1.0  # below every probability


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
        stats = diffusion.DecodeStats()
        while x.current_block < x.n_blocks:
            diffusion.denoise_block_baseline(params, x, policy, trace=trace, stats=stats)
            diffusion.finalize_block(x)
            x.validate()
        assert x.mask_count() == 0
        assert all(1 <= n <= block_size for n in stats.block_steps.values())
        # one record per step; a stacked forward covers several steps
        steps = sum(stats.block_steps.values())
        assert len(trace.records) == steps and 1 <= stats.backbone_forwards <= steps

        path = str(tmp_path / "trace.mrpc")
        diffusion.save_trace(path, trace)
        loaded = diffusion.load_trace(path)
        assert (loaded.block_size, loaded.prompt_len) == (block_size, x.prompt_len)
        for a, b in zip(trace.records, loaded.records, strict=True):
            assert (a.kind, a.block) == (b.kind, b.block)
            # the ids of the window the forward ran on: the rows up to its block's end
            assert len(a.ids) == x.prompt_len + (a.block + 1) * block_size
            for name in ("ids", "revealed_positions", "revealed_tokens"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            # h and logits are stored as float32
            assert np.array_equal(a.h.astype(np.float32), b.h)
            assert np.array_equal(a.logits.astype(np.float32), b.logits)


def _one_step_trace(path, **records):
    """A trace of one backbone step, with `records` replacing its own."""
    step = {"meta": [0.0, 0.0], "ids": [5.0, 0.0], "h": np.zeros((2, 3)),
            "logits": np.zeros((2, 5)), "revealed_positions": [1.0], "revealed_tokens": [6.0]}
    named = {"trace.meta": [1.0, 1.0, 1.0],
             **{f"step.00000.{name}": value for name, value in step.items()}, **records}
    checkpoint.save_tensors(path, [(name, np.asarray(v)) for name, v in named.items()])


def test_load_trace_rejects_a_file_that_is_not_a_trace(tmp_path):
    cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=1, block_size=4, max_len=32)
    path = str(tmp_path / "backbone.mrpc")
    bb.save_backbone(path, bb.init_backbone(cfg, np.random.default_rng(0)))
    with pytest.raises(InvalidConfigError, match="not a decode trace"):
        diffusion.load_trace(path)
    # a trace whose meta promises a step record that the file lacks
    path = str(tmp_path / "trace.mrpc")
    checkpoint.save_tensors(path, [("trace.meta", np.asarray([1.0, 4.0, 9.0]))])
    with pytest.raises(InvalidConfigError, match="step.00000"):
        diffusion.load_trace(path)
    # malformed records, each once a bare ValueError, a wrong kind or an
    # empty trace, beside the well-formed trace they change
    _one_step_trace(path)
    (record,) = diffusion.load_trace(path).records
    assert (record.kind, record.ids.tolist()) == ("backbone", [5, 0])
    for records, match in [
        ({"trace.meta": [1.0, 1.0]}, "trace.meta"),
        ({"trace.meta": [1.0, 1.0, 1.0, 1.0]}, "trace.meta"),
        ({"trace.meta": [-1.0, 1.0, 1.0]}, "trace.meta"),
        ({"trace.meta": [float("nan"), 1.0, 1.0]}, "trace.meta"),
        ({"trace.meta": [1.5, 1.0, 1.0]}, "trace.meta"),
        ({"step.00000.meta": [0.0]}, "step.00000.meta"),
        ({"step.00000.meta": [0.0, 0.0, 0.0]}, "step.00000.meta"),
        ({"step.00000.meta": [7.0, 0.0]}, "kind 7"),
        ({"step.00000.meta": [0.0, -1.0]}, "step.00000.meta"),
        # integer records that are not integers >= 0: once a garbage id
        # with a RuntimeWarning, 2 read from 2.5, or a negative id kept
        ({"step.00000.revealed_tokens": [float("nan")]}, "step.00000.revealed_tokens"),
        ({"step.00000.ids": [2.5, 0.0]}, "step.00000.ids"),
        ({"step.00000.ids": [5.0, -1.0]}, "step.00000.ids"),
        ({"step.00000.revealed_positions": [float("inf")]}, "step.00000.revealed_positions"),
        ({"step.00000.revealed_positions": [-1.0]}, "step.00000.revealed_positions"),
    ]:
        if not np.isfinite(np.concatenate([np.ravel(v) for v in records.values()])).all():
            # saving refuses NaN and inf, naming the record, as loading would
            with pytest.raises(InvalidConfigError, match=match):
                _one_step_trace(path, **records)
            continue
        _one_step_trace(path, **records)
        with pytest.raises(InvalidConfigError, match=match):
            diffusion.load_trace(path)


@pytest.mark.parametrize("records, match", [
    # 3 revealed positions with 1 token, a MASK
    ({"step.00000.revealed_positions": [1.0, 1.0, 1.0], "step.00000.revealed_tokens": [0.0]},
     "3 positions with 1 tokens"),
    ({"step.00000.h": np.zeros((7, 3))}, "one row per id"),
    ({"step.00000.logits": np.zeros((1, 5))}, "one row per id"),
    ({"step.00000.h": np.zeros(6)}, "one row per id"),
    # block 5 of a trace with a 1-row prompt and blocks of 1 ends at row 7
    ({"step.00000.meta": [0.0, 5.0]}, "not the 7 rows up to the end of block 5"),
    ({"step.00000.ids": [5.0, 0.0, 0.0]}, "not the 2 rows"),
    ({"step.00000.ids": [[5.0, 0.0]]}, "not the 2 rows"),
    ({"step.00000.revealed_positions": [0.0]}, r"outside its block \[1, 2\)"),
    ({"step.00000.revealed_positions": [2.0]}, r"outside its block \[1, 2\)"),
], ids=["counts", "h-rows", "logits-rows", "h-1d", "block-past-ids", "ids-long", "ids-2d",
        "position-in-prompt", "position-past-block"])
def test_load_trace_checks_each_record_against_its_trace(tmp_path, records, match):
    # each of these used to load without error
    path = str(tmp_path / "trace.mrpc")
    _one_step_trace(path, **records)
    with pytest.raises(InvalidConfigError, match=f"step.00000.*{match}"):
        diffusion.load_trace(path)


def test_a_trace_round_trips_an_mrp_record(tmp_path):
    rng = np.random.default_rng(3)
    record = diffusion.StepRecord(
        kind="mrp", block=1, ids=np.array([5, 7, 9, 4, 6, MASK_ID]),
        h=rng.normal(size=(6, 4)), logits=rng.normal(size=(6, 11)),
        revealed_positions=np.array([5]), revealed_tokens=np.array([8]),
    )
    path = str(tmp_path / "trace.mrpc")
    diffusion.save_trace(path, diffusion.DecodeTrace(block_size=2, prompt_len=2,
                                                     records=[record]))
    assert checkpoint.load_tensors(path)["step.00000.meta"].tolist() == [1.0, 1.0]
    (loaded,) = diffusion.load_trace(path).records
    assert (loaded.kind, loaded.block) == ("mrp", 1)
    for name in ("ids", "revealed_positions", "revealed_tokens"):
        assert np.array_equal(getattr(loaded, name), getattr(record, name))
    assert np.array_equal(loaded.h, record.h.astype(np.float32))
    assert np.array_equal(loaded.logits, record.logits.astype(np.float32))


@pytest.mark.parametrize("kind", ["verify", "Backbone", ""])
def test_a_step_record_of_an_unknown_kind_is_refused(kind):
    # "verify" used to save as an "mrp" record and load back as one
    with pytest.raises(InvalidConfigError, match="kind"):
        diffusion.StepRecord(kind=kind, block=0, ids=np.array([5, MASK_ID]),
                             h=np.zeros((2, 3)), logits=np.zeros((2, 5)),
                             revealed_positions=np.array([1]), revealed_tokens=np.array([6]))


def test_decoding_never_commits_the_mask_token():
    cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=4, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    # a large constant feature that survives the final norm, read only by
    # the MASK column: MASK is the argmax of every row by a wide margin
    params.embed.data[:, 0] += 100.0
    params.w_lm.data[0, MASK_ID] = 50.0
    x = diffusion.state_from_example(corpus.make_example(12, 34, "+", 4), 4)
    with T.no_grad():
        _, logits = bb.forward(x, params)
    assert (logits.data[x.prompt_len:].argmax(axis=-1) == MASK_ID).all()
    while x.current_block < x.n_blocks:
        diffusion.denoise_block_baseline(params, x, Policy("static", r=1))
        diffusion.finalize_block(x)
    x.validate()
    assert x.mask_count() == 0 and MASK_ID not in x.ids


@pytest.mark.parametrize("state", ["partly masked", "clean"])
def test_baseline_denoise_refuses_a_block_that_is_not_fully_masked(state):
    cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=8, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    ex = corpus.make_example(12, 3, "+", 8)
    x = diffusion.state_from_example(ex, 8, all_masked=state != "clean")
    if state != "clean":
        x.ids[x.prompt_len] = ex.response_ids[0]
    before = x.ids.copy()
    with pytest.raises(ContractViolationError, match="expects a fully masked block"):
        diffusion.denoise_block_baseline(params, x, Policy("static", r=1))
    assert np.array_equal(x.ids, before)


def test_step_records_keep_their_outputs_after_later_steps(monkeypatch):
    cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=8, max_len=64)
    params = bb.init_backbone(cfg, np.random.default_rng(8), std=0.3)
    x = diffusion.state_from_example(corpus.make_example(45, 12, "+", 8), 8)
    trace = diffusion.DecodeTrace(block_size=8, prompt_len=x.prompt_len)
    seen = []
    reveal = diffusion.reveal

    def snapshot_reveal(x, positions, tokens):
        record = trace.records[-1]
        seen.append((record.h.copy(), record.logits.copy()))
        return reveal(x, positions, tokens)

    monkeypatch.setattr(diffusion, "reveal", snapshot_reveal)
    stats = diffusion.DecodeStats()
    diffusion.denoise_block_baseline(params, x, Policy("static", r=1), trace=trace, stats=stats)
    # one record per step, recorded before its reveal; its rows come from
    # the forward that filled the prefix, or a later one over the step's
    # state alone or stacked with drafted states
    assert len(trace.records) == stats.block_steps[0] == 8
    assert stats.backbone_forwards < 8
    for record, (h, logits) in zip(trace.records, seen, strict=True):
        assert np.array_equal(record.h, h) and np.array_equal(record.logits, logits)


def _decode_all(params, prompts, block_size, policy):
    """Each prompt decoded to completion: its final ids, trace and stats."""
    out = []
    for a, b, op in prompts:
        x = diffusion.state_from_example(corpus.make_example(a, b, op, block_size), block_size)
        trace = diffusion.DecodeTrace(block_size=block_size, prompt_len=x.prompt_len)
        stats = diffusion.DecodeStats()
        while x.current_block < x.n_blocks:
            diffusion.denoise_block_baseline(params, x, policy, trace=trace, stats=stats)
            diffusion.finalize_block(x)
        out.append((x.ids, trace, stats))
    return out


@pytest.mark.parametrize("block_size", [4, 8])
@pytest.mark.parametrize("policy", [Policy("static", r=1), Policy("static", r=3),
                                    Policy("dynamic", tau=0.1), Policy("dynamic", tau=0.9)])
def test_drafted_decoding_is_one_forward_per_step_bit_for_bit(monkeypatch, block_size, policy):
    # 999+999 spans two blocks of 4, 9999999+1 two blocks of 8
    prompts = [(999, 999, "+"), (9999999, 1, "+"), (500, 501, "+"), (45, 12, "-"), (87, 9, "+"),
               (7, 7, "-")]
    drafts = diffusion._DRAFTS
    assert drafts > 0
    for seed in range(3):
        cfg = bb.BackboneConfig(d_model=16, n_heads=2, n_layers=2, block_size=block_size,
                                max_len=64)
        params = bb.init_backbone(cfg, np.random.default_rng(seed), std=0.3)
        monkeypatch.setattr(diffusion, "_DRAFTS", 0)
        plain = _decode_all(params, prompts, block_size, policy)
        monkeypatch.setattr(diffusion, "_DRAFTS", drafts)
        drafted = _decode_all(params, prompts, block_size, policy)
        for (ids0, trace0, stats0), (ids, trace, stats) in zip(plain, drafted, strict=True):
            assert np.array_equal(ids, ids0)
            assert stats.block_steps == stats0.block_steps
            assert stats.tokens_generated == stats0.tokens_generated
            assert stats0.backbone_forwards == sum(stats0.block_steps.values())
            assert stats.backbone_forwards <= stats0.backbone_forwards
            for r0, r in zip(trace0.records, trace.records, strict=True):
                assert (r.kind, r.block) == (r0.kind, r0.block)
                for name in ("ids", "h", "logits", "revealed_positions", "revealed_tokens"):
                    a, b = getattr(r, name), getattr(r0, name)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        forwards = sum(stats.backbone_forwards for _, _, stats in drafted)
        plain_forwards = sum(stats.backbone_forwards for _, _, stats in plain)
        if policy == Policy("static", r=1):
            assert forwards < plain_forwards
        if policy.kind == "dynamic":
            # a dynamic step takes every position above tau: none is left to draft
            assert forwards == plain_forwards


def test_decode_stats_hold_only_what_the_loop_writes():
    stats = diffusion.DecodeStats()
    with pytest.raises(AttributeError):
        stats.backfilled = 1
    stats.backbone_forwards, stats.block_steps = 3, {0: 4, 1: 2}
    assert stats.drafts_accepted == 3


# ---------------------------------------------------------------------------
# reveal contracts, block grid, backfill, corruption
# ---------------------------------------------------------------------------


def _two_block_state():
    # 999+999=1998: "1998" + EOS spans two blocks of 4, all masked
    return diffusion.state_from_example(corpus.make_example(999, 999, "+", 4), 4)


@pytest.mark.parametrize("positions, tokens", [
    ([-1], [5]),            # would wrap to the last position
    ([17], [5]),            # one past the end
    ([8], [5]),             # inside the prompt
    ([9, 9], [5, 6]),       # repeated
    ([9, 10], [5]),         # one token for two positions
    ([9], [5, 6]),          # more tokens than positions
    ([9, 10], [5, MASK_ID]),  # the MASK token
    ([9.7], [5]),           # a float position, once truncated to 9
    ([True], [5]),          # a bool position
    ([9], [5.9]),           # a float token, once truncated to 5
    ([9], [-3]),            # a negative token
    ([[]], [[]]),           # an empty 2-D list, once accepted
])
def test_reveal_rejects_bad_positions_and_tokens(positions, tokens):
    x = _two_block_state()
    assert (x.prompt_len, x.length) == (9, 17)
    before = x.clone()
    with pytest.raises(ContractViolationError):
        diffusion.reveal(x, positions, tokens)
    assert np.array_equal(x.ids, before.ids)


def test_mask_flags_are_the_mask_ids_and_read_only():
    x = _two_block_state()
    diffusion.reveal(x, [9], [5])
    assert np.array_equal(x.masked, x.ids == MASK_ID) and x.mask_count() == 7
    with pytest.raises(ValueError):
        x.masked[10] = False
    assert x.mask_count() == 7


def test_clone_copies_the_ids_alone():
    x = _two_block_state()
    diffusion.reveal(x, [9], [5])
    y = x.clone()
    assert vars(y).keys() == {"ids", "prompt_len", "block_size"}
    assert np.array_equal(y.ids, x.ids) and not np.shares_memory(y.ids, x.ids)
    assert (y.prompt_len, y.block_size) == (x.prompt_len, x.block_size)
    diffusion.reveal(y, [10], [6])
    assert (x.mask_count(), y.mask_count()) == (7, 6)


@pytest.mark.parametrize("stacked", [False, True])
def test_window_shares_its_ids_with_the_state(stacked):
    x = _two_block_state()
    if stacked:
        x = SequenceState(ids=np.stack([x.ids, x.ids]), prompt_len=9, block_size=4)
    xw = x.window(0)
    assert xw.ids.shape == (*x.ids.shape[:-1], 13) and xw.length == 13
    assert (xw.prompt_len, xw.block_size, xw.n_blocks) == (9, 4, 1)
    assert np.shares_memory(xw.ids, x.ids)
    xw.ids[..., 9] = 5  # a write into the window lands in the state
    assert (x.ids[..., 9] == 5).all()
    x.ids[..., 10] = 6  # and a write into the state shows in the window
    assert (xw.ids[..., 10] == 6).all()
    assert x.window(1).length == x.length == 17
    if not stacked:
        diffusion.reveal(xw, [11], [7])
        assert x.ids[11] == 7 and x.mask_count() == 5


def test_a_stacked_state_reads_its_rows_from_the_last_axis():
    x = SequenceState(ids=np.full((2, 9), 5), prompt_len=1, block_size=4)
    assert (x.length, x.n_blocks) == (9, 2)
    x.validate()
    x.ids[1, 3] = MASK_ID  # a masked response position of the second sequence
    x.validate()
    x.ids[1, 0] = MASK_ID  # a masked prompt position of the second sequence
    with pytest.raises(ContractViolationError, match="prompt"):
        x.validate()


@pytest.mark.parametrize("ids, prompt_len, block_size, error, match", [
    (np.full(9, 5), 1, 0, InvalidConfigError, "block_size"),
    (np.full(9, 5), 1, 4.0, InvalidConfigError, "block_size"),
    (np.full(9, 5), 1, True, InvalidConfigError, "block_size"),
    (np.full(9, 5), -1, 4, InvalidConfigError, "prompt_len"),
    (np.full(8, 5), 12, 4, InvalidConfigError, "whole number of blocks"),
    (np.full(9, 5), 2.0, 1, InvalidConfigError, "prompt_len"),
    (np.array([1.5, 2.7]), 0, 1, InvalidShapeError, "integers"),
    (np.array(["5", "6"]), 0, 1, InvalidShapeError, "integers"),
    (np.array([True, False]), 0, 1, InvalidShapeError, "integers"),
    (np.full((2, 2, 9), 5), 1, 4, InvalidShapeError, "shape"),
    (np.int64(5), 0, 1, InvalidShapeError, "shape"),
    (np.full(9, 5), 2, 4, InvalidConfigError, "whole number of blocks"),
    (np.full((2, 9), 5), 1, 3, InvalidConfigError, "whole number of blocks"),
], ids=["block_size-0", "block_size-float", "block_size-bool", "prompt_len-negative",
        "prompt_len-past-the-end", "prompt_len-float", "float-ids", "string-ids", "bool-ids",
        "3d-ids", "0d-ids", "off-grid", "off-grid-stack"])
def test_a_state_is_checked_when_built(ids, prompt_len, block_size, error, match):
    # each of these used to build, then fail later with a bare numpy or
    # Python error, run a forward on it, or truncate its ids
    with pytest.raises(error, match=match):
        SequenceState(ids, prompt_len, block_size)


def test_a_state_keeps_int64_ids_without_a_copy_and_casts_other_integers():
    ids = np.full(9, 5)
    assert SequenceState(ids, 1, 4).ids is ids
    x = SequenceState(np.full((2, 9), 5, dtype=np.int32), 9, 4)  # all prompt, no blocks
    assert x.ids.dtype == np.int64 and x.n_blocks == 0
    assert SequenceState([2, 5, 0, 0], 2, 2).ids.tolist() == [2, 5, 0, 0]


@pytest.mark.parametrize("field", ["ids", "prompt_len", "block_size"])
def test_a_built_state_is_frozen(field):
    x = _two_block_state()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(x, field, getattr(x, field))
    diffusion.reveal(x, [9], [5])  # its ids are written in place
    assert x.ids[9] == 5


def _two_blocks_stack():
    """A stack of a clean sequence with an EOS and one masked from position 5."""
    ids = np.full((2, 9), 5)
    ids[1, 5:] = MASK_ID
    ids[0, 2] = EOS_ID
    return SequenceState(ids=ids, prompt_len=1, block_size=4)


@pytest.mark.parametrize("op", [
    lambda x: x.current_block,
    lambda x: diffusion.reveal(x, [5], [7]),
    lambda x: diffusion.finalize_block(x),
], ids=["current_block", "reveal", "finalize_block"])
def test_per_sequence_operations_refuse_a_stack(op):
    # on this stack they used to read the second sequence's mask as a block
    # past the end, ignore the first sequence's EOS, or fail on a flat index
    # or a broadcast
    x = _two_blocks_stack()
    ids = x.ids.copy()
    with pytest.raises(InvalidShapeError, match=r"one sequence, got ids of shape \(2, 9\)"):
        op(x)
    assert np.array_equal(x.ids, ids)


def test_reveal_writes_each_token_at_its_position():
    x = _two_block_state()
    diffusion.reveal(x, [10, 9], [6, 5])
    assert x.ids[9:11].tolist() == [5, 6] and not x.masked[9:11].any()
    x.ids[9:11] = MASK_ID  # nothing else was written
    assert np.array_equal(x.ids, _two_block_state().ids)
    x.validate()


def test_state_from_example_rejects_a_block_size_that_does_not_divide_the_response():
    ex = corpus.make_example(12, 3, "+", 4)  # "15" + EOS, padded to 4
    assert diffusion.state_from_example(ex, 2).n_blocks == 2
    for block_size in (8, 3, 0):
        with pytest.raises(InvalidConfigError, match="block_size"):
            diffusion.state_from_example(ex, block_size)


def test_finalize_block_backfills_later_blocks_after_an_eos():
    x = _two_block_state()
    lo, hi = x.block_bounds(0)
    diffusion.reveal(x, np.arange(lo, hi), [5, 6, EOS_ID, 7])
    assert diffusion.finalize_block(x) == 4
    assert x.mask_count() == 0
    assert x.ids[lo:].tolist() == [5, 6, EOS_ID, 7] + [PAD_ID] * 4
    x.validate()


def test_finalize_block_without_eos_changes_nothing():
    x = _two_block_state()
    lo, hi = x.block_bounds(0)
    diffusion.reveal(x, np.arange(lo, hi), [5, 6, 7, 8])
    before = x.clone()
    assert diffusion.finalize_block(x) == 0
    assert np.array_equal(x.ids, before.ids) and x.mask_count() == 4


def test_corrupt_at_full_rate_masks_exactly_the_non_pad_response():
    ex = corpus.make_example(12, 3, "+", 8)  # "15" + EOS + 5 PAD
    x0 = diffusion.state_from_example(ex, 8, all_masked=False)
    xt = diffusion.corrupt(x0, np.random.default_rng(0), rate=1.0)
    resp = np.arange(len(x0.ids)) >= x0.prompt_len
    assert np.array_equal(xt.masked, resp & (x0.ids != PAD_ID))
    assert np.array_equal(xt.masked, diffusion.maskable(x0))
    assert np.array_equal(xt.ids[~xt.masked], x0.ids[~xt.masked])
    xt.validate()


@pytest.mark.parametrize("rate", [2.0, 1.0 + 1e-12, -0.5, float("nan"), float("inf"), "0.5",
                                  True])
def test_corrupt_rejects_a_rate_outside_zero_to_one(rate):
    x0 = diffusion.state_from_example(corpus.make_example(12, 3, "+", 8), 8, all_masked=False)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidConfigError, match="rate"):
        diffusion.corrupt(x0, rng, rate=rate)
    # refused before any draw: the stream continues as if never called
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("rate", [None, 0.5])
def test_a_stacked_corrupt_draws_as_one_call_per_row(rate):
    # examples of one length ending in PAD, so some positions are never masked
    exs = [corpus.make_example(a, b, "+", 4) for a, b in [(12, 3), (45, 6), (78, 9), (10, 2)]]
    rows = [diffusion.state_from_example(ex, 4, all_masked=False) for ex in exs]
    stack = SequenceState(np.stack([x.ids for x in rows]), rows[0].prompt_len, 4)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    got = diffusion.corrupt(stack, rng, rate=rate)
    want = [diffusion.corrupt(x, ref, rate=rate).ids for x in rows]
    assert np.array_equal(got.ids, np.stack(want)) and got.masked.any()
    assert not np.shares_memory(got.ids, stack.ids) and not stack.masked.any()
    assert rng.bit_generator.state == ref.bit_generator.state
    # a masked row refuses the whole stack before any draw
    masked = stack.clone()
    masked.ids[2, -1] = MASK_ID
    with pytest.raises(ContractViolationError, match="clean"):
        diffusion.corrupt(masked, rng, rate=rate)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_corrupt_at_the_rate_bounds_keeps_its_draws():
    x0 = diffusion.state_from_example(corpus.make_example(12, 3, "+", 8), 8, all_masked=False)
    for rate in (0.0, 1.0):
        rng = np.random.default_rng(0)
        xt = diffusion.corrupt(x0, rng, rate=rate)
        assert xt.masked.any() == (rate == 1.0)
        ref = np.random.default_rng(0)
        ref.random(x0.length)  # one draw per position, as before the bounds check
        assert rng.random() == ref.random()


# ---------------------------------------------------------------------------
# tie-breaks
# ---------------------------------------------------------------------------


def _conf(positions, probs, lo=4, size=8):
    """The confidence of a block [lo, lo + size) masked at `positions`
    (ascending), whose probabilities are `probs`."""
    masked = np.zeros(size, bool)
    masked[np.asarray(positions, dtype=np.int64) - lo] = True
    full = np.full(size, -1.0)
    full[masked] = probs
    return diffusion.Confidence(lo, masked, full, np.zeros(size, np.int64))


def _selected(policy, conf):
    """The positions `policy` reveals on `conf`, ascending."""
    take = policy.select(conf)
    assert take.dtype == bool and take.shape == conf.masked.shape
    return (conf.lo + np.flatnonzero(take)).tolist()


def test_select_static_breaks_ties_by_lowest_position():
    conf = _conf([4, 5, 6, 7], [0.5, 0.9, 0.5, 0.9])
    assert _selected(Policy("static", r=1), conf) == [5]
    assert _selected(Policy("static", r=3), conf) == [4, 5, 7]
    assert _selected(Policy("static", r=2), _conf([4, 5, 6], [0.3, 0.3, 0.3])) == [4, 5]


def test_select_dynamic_falls_back_to_the_lowest_tied_position():
    conf = _conf([4, 5, 6, 7], [0.2, 0.6, 0.4, 0.6])
    assert _selected(Policy("dynamic", tau=0.9), conf) == [5]
    assert _selected(Policy("dynamic", tau=0.5), conf) == [5, 7]
    # strictly above tau: a probability equal to tau is not selected
    assert _selected(Policy("dynamic", tau=0.6), conf) == [5]


def _former_select(policy, positions, probs):
    """The two selectors `Policy.select` replaced, as they were, on the
    masked positions and their probabilities."""
    if len(positions) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((positions, -probs))
    if policy.kind == "static":
        return np.sort(positions[order[: min(policy.r, len(positions))]])
    above = probs > policy.tau
    if above.any():
        return np.sort(positions[above])
    return positions[order[:1]]


POLICIES = ([Policy("static", r=r) for r in (1, 2, 3, 8)]
            + [Policy("dynamic", tau=tau) for tau in (0.25, 0.5, 0.75, 1.0)])


def test_select_matches_the_former_selectors_on_random_confidences():
    rng = np.random.default_rng(0)
    for n in [0, 1, 2, 3, 5, 8] * 20:
        # a random masked subset of a block; probabilities on a coarse
        # grid, so ties occur
        positions = np.sort(rng.permutation(np.arange(10, 30))[:n])
        probs = rng.integers(0, 5, n) / 4
        conf = _conf(positions, probs, lo=10, size=20)
        for policy in POLICIES:
            want = _former_select(policy, positions, probs)
            assert want.dtype == np.int64
            assert _selected(policy, conf) == want.tolist()


def test_a_stacked_confidence_and_selection_equal_each_rows_own():
    rng = np.random.default_rng(1)
    prompt_len, size, vocab = 3, 8, 12
    for case in range(60):
        B, block = int(rng.integers(2, 5)), int(rng.integers(0, 2))
        ids = rng.integers(1, vocab, size=(B, prompt_len + 2 * size))
        ids[ids == MASK_ID] = 1
        lo = prompt_len + block * size
        ids[:, lo + size:] = MASK_ID
        # a random masked subset of the current block in each row, never empty
        hit = rng.random((B, size)) < rng.random()
        hit[np.arange(B), rng.integers(0, size, B)] = True
        ids[:, lo:lo + size][hit] = MASK_ID
        # logits on a coarse grid, so probabilities and tokens tie
        logits = rng.integers(-2, 3, size=(B, ids.shape[1], vocab)).astype(float)
        if case % 3 == 0:
            # MASK-dominated rows: every other probability underflows to 0
            rows = rng.random((B, ids.shape[1])) < 0.5
            logits[rows] = -1e4
            logits[rows, MASK_ID] = 0.0
        x = SequenceState(ids, prompt_len, size)
        conf = confidence_of(logits, x)
        assert conf.lo == lo and conf.masked.shape == (B, size)
        takes = {policy: policy.select(conf) for policy in POLICIES}
        for b in range(B):
            one = confidence_of(logits[b], SequenceState(ids[b], prompt_len, size))
            assert one.lo == lo
            for name in ("masked", "probs", "tokens", "rank"):
                a, c = getattr(conf, name)[b], getattr(one, name)
                assert (a.dtype, a.shape, a.tobytes()) == (c.dtype, c.shape, c.tobytes())
            for policy, take in takes.items():
                assert np.array_equal(take[b], policy.select(one))
                positions = lo + np.flatnonzero(one.masked)
                assert _selected(policy, one) == _former_select(
                    policy, positions, one.probs[one.masked]).tolist()
    # tau = 1.0 is above every probability: each row takes its fallback
    assert (takes[Policy("dynamic", tau=1.0)].sum(axis=-1) == 1).all()
    # rows whose current blocks differ: a clean row and a masked one, and
    # rows masked from different blocks
    later = x.clone()
    later.ids[0, lo:lo + size] = 5
    for stack in (_two_blocks_stack(), later):
        with pytest.raises(ContractViolationError, match="share their current block"):
            confidence_of(np.zeros((*stack.ids.shape, vocab)), stack)


def test_confidence_of_a_clean_sequence_is_empty():
    x = SequenceState(np.array([2, 7, 5, 6]), 2, 2)
    conf = confidence_of(np.zeros((4, 6)), x)
    assert conf.lo == 4
    for a in (conf.masked, conf.probs, conf.tokens, conf.rank):
        assert a.shape == (0,)
    for policy in POLICIES:
        assert _selected(policy, conf) == []


@pytest.mark.parametrize("logits", [np.zeros(44), np.float64(0.0), [0.0] * 4],
                         ids=["vector", "scalar", "list"])
@pytest.mark.parametrize("clean", [False, True], ids=["masked", "clean"])
def test_confidence_of_logits_without_a_row_axis_raises_typed_error(logits, clean):
    # on a masked state these used to raise a bare IndexError
    ids = np.array([2, 7, 5, 6] if clean else [2, 7, MASK_ID, 6])
    with pytest.raises(InvalidShapeError, match="row axis"):
        confidence_of(logits, SequenceState(ids, 2, 2))


@pytest.mark.parametrize("kwargs, match", [
    ({"kind": "bogus"}, "unknown policy kind 'bogus'"),
    ({"kind": "static", "r": 0}, "r must be an integer >= 1"),
    ({"kind": "static", "r": 1.5}, "r must be an integer >= 1"),
    ({"kind": "static", "r": True}, "r must be an integer >= 1"),
    ({"kind": "dynamic", "tau": 1.5}, r"tau in \(0, 1\]"),
    ({"kind": "dynamic", "tau": 0.0}, r"tau in \(0, 1\]"),
    ({"kind": "dynamic", "tau": float("nan")}, r"tau in \(0, 1\]"),
    ({"kind": "dynamic", "tau": "0.5"}, r"tau in \(0, 1\]"),
], ids=["kind-bogus", "r-zero", "r-float", "r-bool", "tau-above-one", "tau-zero", "tau-nan",
        "tau-str"])
def test_policy_is_checked_when_built(kwargs, match):
    with pytest.raises(InvalidConfigError, match=match):
        Policy(**kwargs)
    assert Policy("dynamic", tau=np.float64(0.9)).tau == 0.9
    assert Policy("static", r=np.int64(2)).r == 2
    # a built policy cannot be changed into one that was never checked
    policy = Policy("static", r=1)
    field, value = list(kwargs.items())[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(policy, field, value)
    assert policy == Policy("static", r=1)


def test_confidence_of_never_picks_the_mask_token():
    ids = np.array([2, 7, MASK_ID, MASK_ID])
    x = SequenceState(ids=ids, prompt_len=2, block_size=2)
    logits = np.zeros((4, 6))
    logits[2, [MASK_ID, 4]] = [5.0, 1.0]
    # every probability but MASK's underflows to exactly 0
    logits[3] = -1e4
    logits[3, MASK_ID] = 0.0
    conf = confidence_of(logits, x)
    assert conf.lo == 2 and conf.masked.all()
    assert conf.tokens.tolist() == [4, 1]
    p = T.softmax_rows(T.tensor(logits[2])).data
    assert conf.probs[0] == p[4] and conf.probs[1] == 0.0


def test_confidence_of_breaks_token_ties_by_lowest_id():
    ids = np.array([2, 7, MASK_ID, MASK_ID])
    x = SequenceState(ids=ids, prompt_len=2, block_size=2)
    logits = np.zeros((4, 6))
    logits[2, [1, 4]] = 3.0
    logits[3, [5, 2]] = 3.0
    conf = confidence_of(logits, x)
    assert conf.lo == 2 and conf.masked.all()
    assert conf.tokens.tolist() == [1, 2]
    np.testing.assert_allclose(conf.probs, np.exp(3.0) / (2 * np.exp(3.0) + 4))


# ---------------------------------------------------------------------------
# regression: the benchmark's decode checkpoint and its recorded answers
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

# (name, pool seed, max operand, block size, policy) of each decode pool, as
# defined in perfbench/workloads.py; the pool is gen_arithmetic over these
POOLS = [
    ("decode-static-b8", 7008, 99, 8, Policy("static", r=1)),
    ("decode-dynamic-b4", 7004, 999, 4, Policy("dynamic", tau=0.9)),
]


@pytest.fixture(scope="module")
def references():
    with open(DATA / "references.json", encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name, seed, max_operand, block_size, policy", POOLS)
def test_decode_checkpoint_reproduces_recorded_answers(references, name, seed, max_operand,
                                                       block_size, policy):
    params = bb.load_backbone(str(DATA / "decode_backbone.mrpc"))
    refs = references[name]
    n = 64
    pool = corpus.gen_arithmetic(seed, n, max_operand, block_size)
    assert [ex.question for ex in pool] == refs["questions"][:n]
    forwards = steps = 0
    for ex, want in zip(pool, refs["response_ids"][:n], strict=True):
        x = diffusion.state_from_example(ex, block_size)
        stats, backfilled = diffusion.DecodeStats(), 0
        while x.current_block < x.n_blocks:
            diffusion.denoise_block_baseline(params, x, policy, stats=stats)
            backfilled += diffusion.finalize_block(x)
        assert x.ids[x.prompt_len:].tolist() == want, ex.question
        # the checks perfbench makes of each answer
        assert stats.tokens_generated + backfilled == len(want)
        if policy.kind == "static":
            assert set(stats.block_steps.values()) == {math.ceil(block_size / policy.r)}
        forwards += stats.backbone_forwards
        steps += sum(stats.block_steps.values())
    if name == "decode-static-b8":
        assert forwards < steps
    else:  # a dynamic policy drafts nothing
        assert forwards == steps


def test_decode_checkpoint_config_records_match_the_constants():
    # the loader ignores these records, so a file built with another
    # vocabulary, norm epsilon or MLP ratio would otherwise go unnoticed
    # until a shape check or a decode went wrong
    blob = checkpoint.load_tensors(str(DATA / "decode_backbone.mrpc"))
    assert blob["backbone.config.vocab_size"].tolist() == [corpus.VOCAB_SIZE]
    assert blob["backbone.config.norm_eps"].tolist() == [float(np.float32(T.RMS_EPS))]
    assert blob["backbone.config.mlp_mult"].tolist() == [bb.MLP_RATIO]
    params = bb.load_backbone(str(DATA / "decode_backbone.mrpc"))
    assert params.embed.shape == (corpus.VOCAB_SIZE, params.config.d_model)
