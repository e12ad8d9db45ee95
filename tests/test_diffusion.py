"""Confidence computation over the current block, selection tie-breaks,
reveal/remask contracts, corruption, block backfill and the baseline
decode loop, also against the benchmark's recorded answers."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mrpdiff import backbone as bb
from mrpdiff import checkpoint, corpus, diffusion
from mrpdiff.corpus import EOS_ID, MASK_ID, PAD_ID
from mrpdiff.diffusion import Policy, SequenceState, confidence_of
from mrpdiff.errors import ContractViolationError, InvalidConfigError
from mrpdiff.numerics import tensor as T


def test_confidence_matches_softmax_rows_bit_for_bit():
    rng = np.random.default_rng(5)
    ids = np.array([2, 7, 9, MASK_ID, 5, MASK_ID, MASK_ID, MASK_ID, MASK_ID])
    x = SequenceState(ids=ids, prompt_len=3, block_size=2)
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
            assert (a.kind, a.block, a.verify) == (b.kind, b.block, b.verify)
            # the ids of the window the forward ran on: the rows up to its block's end
            assert len(a.ids) == x.prompt_len + (a.block + 1) * block_size
            for name in ("ids", "revealed_positions", "revealed_tokens"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
            # h and logits are stored as float32
            assert np.array_equal(a.h.astype(np.float32), b.h)
            assert np.array_equal(a.logits.astype(np.float32), b.logits)
            assert (b.drafts, b.accepted, b.rejected) == ([], [], [])


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
    diffusion.denoise_block_baseline(params, x, Policy("static", r=1), trace=trace)
    # one forward per step: the first fills the prefix, the later ones reuse it
    assert len(trace.records) == 8
    for record, (h, logits) in zip(trace.records, seen, strict=True):
        assert np.array_equal(record.h, h) and np.array_equal(record.logits, logits)


# ---------------------------------------------------------------------------
# reveal / remask contracts, block grid, backfill, corruption
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
])
def test_reveal_rejects_bad_positions_and_tokens(positions, tokens):
    x = _two_block_state()
    assert (x.prompt_len, x.length) == (9, 17)
    before = x.clone()
    with pytest.raises(ContractViolationError):
        diffusion.reveal(x, positions, tokens)
    assert np.array_equal(x.ids, before.ids)


@pytest.mark.parametrize("positions", [[-1], [17], [8], [10, 10]])
def test_remask_rejects_bad_positions(positions):
    x = diffusion.state_from_example(corpus.make_example(999, 999, "+", 4), 4,
                                     all_masked=False)
    before = x.clone()
    with pytest.raises(ContractViolationError):
        diffusion.remask(x, positions)
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


def test_reveal_then_remask_round_trip():
    x = _two_block_state()
    diffusion.reveal(x, [10, 9], [6, 5])
    assert x.ids[9:11].tolist() == [5, 6] and not x.masked[9:11].any()
    diffusion.remask(x, [9, 10])
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
    assert np.array_equal(xt.ids[~xt.masked], x0.ids[~xt.masked])
    xt.validate()


@pytest.mark.parametrize("rate", [2.0, 1.0 + 1e-12, -0.5, float("nan")])
def test_corrupt_rejects_a_rate_outside_zero_to_one(rate):
    x0 = diffusion.state_from_example(corpus.make_example(12, 3, "+", 8), 8, all_masked=False)
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidConfigError, match="rate"):
        diffusion.corrupt(x0, rng, rate=rate)
    # refused before any draw: the stream continues as if never called
    assert rng.random() == np.random.default_rng(0).random()


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


def _conf(positions, probs, tokens=None):
    positions = np.asarray(positions, dtype=np.int64)
    tokens = np.zeros(len(positions), np.int64) if tokens is None else np.asarray(tokens)
    return diffusion.Confidence(positions, np.asarray(probs, dtype=float), tokens)


def test_select_static_breaks_ties_by_lowest_position():
    conf = _conf([4, 5, 6, 7], [0.5, 0.9, 0.5, 0.9])
    assert diffusion.select_static(conf, 1).tolist() == [5]
    assert diffusion.select_static(conf, 3).tolist() == [4, 5, 7]
    assert diffusion.select_static(_conf([4, 5, 6], [0.3, 0.3, 0.3]), 2).tolist() == [4, 5]


def test_select_dynamic_falls_back_to_the_lowest_tied_position():
    conf = _conf([4, 5, 6, 7], [0.2, 0.6, 0.4, 0.6])
    assert diffusion.select_dynamic(conf, 0.9).tolist() == [5]
    assert diffusion.select_dynamic(conf, 0.5).tolist() == [5, 7]
    # strictly above tau: a probability equal to tau is not selected
    assert diffusion.select_dynamic(conf, 0.6).tolist() == [5]


def test_confidence_of_never_picks_the_mask_token():
    ids = np.array([2, 7, MASK_ID, MASK_ID])
    x = SequenceState(ids=ids, prompt_len=2, block_size=2)
    logits = np.zeros((4, 6))
    logits[2, [MASK_ID, 4]] = [5.0, 1.0]
    # every probability but MASK's underflows to exactly 0
    logits[3] = -1e4
    logits[3, MASK_ID] = 0.0
    conf = confidence_of(logits, x)
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
    for ex, want in zip(pool, refs["response_ids"][:n], strict=True):
        x = diffusion.state_from_example(ex, block_size)
        while x.current_block < x.n_blocks:
            diffusion.denoise_block_baseline(params, x, policy)
            diffusion.finalize_block(x)
        assert x.ids[x.prompt_len:].tolist() == want, ex.question
