"""Confidence computation over the current block."""

from __future__ import annotations

import numpy as np

from mrpdiff.corpus import MASK_ID
from mrpdiff.diffusion import SequenceState, confidence_of
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
