"""Tokenizer round-trips, arithmetic ground truth, and sampling statistics."""

from __future__ import annotations

import errno
import re

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


def _tokenize_per_character(text: str) -> list[int]:
    """The tokenizer as a lookup per character: the reference the byte
    table must equal, ids and errors alike."""
    ids = []
    for offset, ch in enumerate(text):
        if ch not in corpus._CHAR_TO_ID:
            raise InvalidConfigError(
                f"unknown character {ch!r} at offset {offset} (not in vocabulary)"
            )
        ids.append(corpus._CHAR_TO_ID[ch])
    return ids


def test_tokenize_matches_the_per_character_lookup():
    texts = corpus._CHARS + ["".join(corpus._CHARS), ""] + [str(n) for n in range(1999)]
    for text in texts:
        assert tokenize(text) == _tokenize_per_character(text)


def test_unknown_character_names_offset():
    for text, offset in [("12?4", 2), ("12A", 2), ("1?2", 1), ("\x00", 0), ("\x7f", 0),
                         ("é", 0), ("٣", 0), ("1é+?", 1), ("12+3é", 4)]:
        with pytest.raises(InvalidConfigError) as want:
            _tokenize_per_character(text)
        with pytest.raises(InvalidConfigError,
                           match=re.escape(f"{text[offset]!r} at offset {offset} ")) as got:
            tokenize(text)
        assert str(got.value) == str(want.value)


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


def _gen_per_example(seed, count, max_operand, block_size):
    """The generator as three scalar draws per example, a, b then op: the
    reference the one-call draw must equal."""
    lo = 10 if max_operand >= 10 else 0
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = int(rng.integers(lo, max_operand + 1))
        b = int(rng.integers(lo, max_operand + 1))
        op = "+" if int(rng.integers(0, 2)) == 0 else "-"
        if op == "-" and b > a:
            a, b = b, a
        out.append(make_example(a, b, op, block_size))
    return out


# (seed, count, max_operand, block_size): the first 2000 examples of the two
# decode pools, the train eval set, and mixed and edge cases
@pytest.mark.parametrize("case", [
    (7008, 2000, 99, 8), (7004, 2000, 999, 4), (9000, 256, 999, 8),
    (5, 3000, 999, 8), (6, 3000, 99, 8), (7, 500, 9, 8), (8, 50, 0, 1), (9, 0, 99, 8),
    (10, 700, 999, 3), (11, 700, 50, 16),
])
def test_gen_equals_three_scalar_draws_per_example(case):
    got = gen_arithmetic(*case)
    want = _gen_per_example(*case)
    assert len(got) == len(want) == case[1]
    for g, w in zip(got, want):
        assert (g.question, g.answer, g.prompt_ids, g.response_ids) == \
            (w.question, w.answer, w.prompt_ids, w.response_ids)


def test_gen_draws_every_example_in_one_call(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, *args, **kwargs):
            calls.append(args)
            return self.rng.integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    assert len(gen_arithmetic(3, 2500, 999)) == 2500
    assert len(calls) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_gen_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(InvalidConfigError, match="seed"):
        gen_arithmetic(seed, 3)
    assert gen_arithmetic(np.int64(3), 3) == gen_arithmetic(3, 3)


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


def test_load_dataset_raises_typed_errors_for_a_missing_or_non_utf8_file(tmp_path, monkeypatch):
    path = tmp_path / "data.tsv"
    with pytest.raises(MissingArtifactError, match="data.tsv: No such file"):
        corpus.load_dataset(str(path))
    with pytest.raises(MissingArtifactError, match=re.escape(f"{tmp_path}: Is a directory")):
        corpus.load_dataset(str(tmp_path))
    path.write_bytes(b"12+3=\t15\n\xff\xfe+1=\t2\n")
    with pytest.raises(MissingArtifactError, match="data.tsv/x: Not a directory"):
        corpus.load_dataset(str(path / "x"))
    with pytest.raises(InvalidConfigError, match="data.tsv: not UTF-8"):
        corpus.load_dataset(str(path))

    # run as root, chmod does not stop a read, so `open` refuses instead
    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(corpus, "open", refuse, raising=False)
    with pytest.raises(MissingArtifactError, match="data.tsv: Permission denied"):
        corpus.load_dataset(str(path))


@pytest.mark.parametrize("target, reason", [("missing/data.tsv", "No such file"),
                                             (".", "Is a directory")])
def test_write_dataset_to_a_missing_directory_or_a_directory_raises(tmp_path, target, reason):
    path = str(tmp_path / target)
    with pytest.raises(MissingArtifactError, match=re.escape(f"{path}: {reason}")):
        corpus.write_dataset(path, gen_arithmetic(seed=0, count=1))
    assert list(tmp_path.iterdir()) == []


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
