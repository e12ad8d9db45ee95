"""Tokenizer round-trips, arithmetic ground truth, and sampling statistics."""

from __future__ import annotations

import numpy as np
import pytest

from mrpdiff import corpus
from mrpdiff.backbone import BackboneConfig
from mrpdiff.corpus import (
    BOS_ID,
    EOS_ID,
    MASK_ID,
    PAD_ID,
    Example,
    detokenize,
    exact_match_accuracy,
    gen_arithmetic,
    make_example,
    tokenize,
)
from mrpdiff.diffusion import state_from_example
from mrpdiff.errors import InvalidConfigError, MissingArtifactError


def test_special_ids_fixed():
    assert (MASK_ID, PAD_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)
    assert max(corpus._ID_TO_CHAR) < BackboneConfig().vocab_size


def test_tokenize_roundtrip():
    ids = tokenize("1+1=")
    assert len(ids) == 4
    assert detokenize(ids) == "1+1="


def test_tokenize_empty():
    assert tokenize("") == []
    assert detokenize([]) == ""


def test_specials_render_empty():
    assert detokenize([MASK_ID, PAD_ID, BOS_ID, EOS_ID]) == ""


def test_unknown_character_names_offset():
    with pytest.raises(InvalidConfigError, match=r"'\?' at offset 2"):
        tokenize("12?4")


def test_roundtrip_on_corpus_strings():
    for ex in gen_arithmetic(seed=1, count=200):
        assert detokenize(tokenize(ex.question)) == ex.question
        assert detokenize(tokenize(ex.answer)) == ex.answer


def test_make_example_ground_truth():
    ex = make_example(17, 25, "+", block_size=8)
    assert ex.question == "17+25=" and ex.answer == "42"
    assert ex.response_ids[: 3] == tuple(tokenize("42") + [EOS_ID])
    assert ex.prompt_ids[0] == BOS_ID


def test_example_block_padding_and_single_eos():
    for ex in gen_arithmetic(seed=2, count=300, max_operand=999):
        assert len(ex.response_ids) % 8 == 0
        assert sum(1 for i in ex.response_ids if i == EOS_ID) == 1
        assert all(i < BackboneConfig().vocab_size for i in ex.prompt_ids + ex.response_ids)
        # answer + EOS, then only PAD
        tail = ex.response_ids[len(ex.answer) + 1:]
        assert all(i == PAD_ID for i in tail)


@pytest.mark.parametrize("max_operand", [-1, -50, 1000])
def test_gen_rejects_max_operand_out_of_range(max_operand):
    with pytest.raises(InvalidConfigError, match="max_operand"):
        gen_arithmetic(0, 3, max_operand=max_operand)


def test_gen_deterministic():
    a = gen_arithmetic(seed=7, count=50)
    b = gen_arithmetic(seed=7, count=50)
    assert a == b


def test_gen_nonnegative_results():
    for ex in gen_arithmetic(seed=3, count=500):
        assert int(ex.answer) >= 0


def test_operand_histogram_uniform_3sigma():
    exs = gen_arithmetic(seed=123, count=10_000)
    ops = []
    for ex in exs:
        q = ex.question[:-1]
        for sym in "+-":
            if sym in q[1:]:  # skip a leading sign (never happens, but be safe)
                a, b = q.split(sym, 1)
                ops.extend([int(a), int(b)])
                break
    ops = np.asarray(ops)
    # subtraction reorders operands, so test the unordered draw stream by
    # bucketing into 9 decades of the uniform [10, 99] range
    n = len(ops)
    edges = np.linspace(10, 100, 10)
    counts, _ = np.histogram(ops, bins=edges)
    p = 1.0 / 9.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_dataset_file_roundtrip(tmp_path):
    path = tmp_path / "data.tsv"
    exs = gen_arithmetic(seed=9, count=40)
    corpus.write_dataset(str(path), exs)
    loaded = corpus.load_dataset(str(path))
    assert loaded == exs
    # byte-determinism for identical seeds
    path2 = tmp_path / "data2.tsv"
    corpus.write_dataset(str(path2), gen_arithmetic(seed=9, count=40))
    assert path.read_bytes() == path2.read_bytes()


def test_load_dataset_raises_typed_errors_for_a_missing_or_non_utf8_file(tmp_path):
    path = tmp_path / "data.tsv"
    with pytest.raises(MissingArtifactError, match="data.tsv"):
        corpus.load_dataset(str(path))
    path.write_bytes(b"12+3=\t15\n\xff\xfe+1=\t2\n")
    with pytest.raises(InvalidConfigError, match="data.tsv: not UTF-8"):
        corpus.load_dataset(str(path))


@pytest.mark.parametrize("block_size", [0, -2])
def test_examples_reject_a_block_size_below_one(tmp_path, block_size):
    path = tmp_path / "data.tsv"
    corpus.write_dataset(str(path), gen_arithmetic(seed=0, count=1))
    for build in (lambda: make_example(12, 3, "+", block_size),
                  lambda: gen_arithmetic(0, 1, block_size=block_size),
                  lambda: corpus.load_dataset(str(path), block_size)):
        with pytest.raises(InvalidConfigError, match="block_size"):
            build()


def _decoded_state(ex: Example, answer: str):
    st = state_from_example(ex, block_size=8)
    resp = tokenize(answer) + [EOS_ID]
    resp += [PAD_ID] * (len(st.ids) - st.prompt_len - len(resp))
    st.ids[st.prompt_len:] = resp
    return st


def test_exact_match_counting():
    exs = gen_arithmetic(seed=4, count=4)
    right = [_decoded_state(ex, ex.answer) for ex in exs]
    assert exact_match_accuracy(right, exs) == 1.0
    wrong = [_decoded_state(ex, "0") for ex in exs]
    assert exact_match_accuracy(wrong, exs) == 0.0
    mixed = right[:3] + wrong[3:]
    assert exact_match_accuracy(mixed, exs) == 0.75
