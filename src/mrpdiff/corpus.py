"""Character-level vocabulary and the synthetic arithmetic task.

The task is 2-3 digit addition/subtraction with non-negative results, e.g.
"17+25=" -> "42". Exact string match on the answer gives a crisp quality
metric at desk scale.

An `Example` is its question and answer text and the block size its
response is padded to; its token ids are derived when read. Datasets are
built from a seed (`gen_arithmetic`), never read from a file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, check_int

MASK_ID = 0
PAD_ID = 1
BOS_ID = 2
EOS_ID = 3

_SPECIALS = ["<mask>", "<pad>", "<bos>", "<eos>"]
_CHARS = [str(d) for d in range(10)] + ["+", "-", "=", " "] + [
    chr(c) for c in range(ord("a"), ord("z") + 1)
]
VOCAB_SIZE = len(_SPECIALS) + len(_CHARS)


_CHAR_TO_ID = {ch: i + len(_SPECIALS) for i, ch in enumerate(_CHARS)}
_ID_TO_CHAR = {i + len(_SPECIALS): ch for i, ch in enumerate(_CHARS)}
# byte -> token id; 255 (no token has it) marks a byte outside the vocabulary
_BYTE_TO_ID = bytes(_CHAR_TO_ID.get(chr(b), 255) for b in range(256))
# rows of operand draws turned into Python ints at a time
_ROWS = 1024


def tokenize(text: str) -> list[int]:
    """Token ids of `text`, one per character, by one table lookup per byte.
    A character outside the vocabulary raises InvalidConfigError naming it
    and its offset: "replace" encodes every non-ASCII character as the one
    byte "?", which is not in the vocabulary either, so byte offsets are
    character offsets."""
    ids = text.encode("ascii", "replace").translate(_BYTE_TO_ID)
    offset = ids.find(255)
    if offset >= 0:
        raise InvalidConfigError(
            f"unknown character {text[offset]!r} at offset {offset} (not in vocabulary)"
        )
    return list(ids)


def detokenize(ids) -> str:
    """Inverse of tokenize; special ids render as the empty string."""
    return "".join(_ID_TO_CHAR.get(int(i), "") for i in ids)


@dataclass(frozen=True, slots=True)
class Example:
    """One task example: its question and answer text, and the block size
    its response is padded to. The token ids are derived when read, so a
    pool of examples holds only strings. Examples compare and hash by these
    three fields."""

    question: str
    answer: str
    block_size: int

    def __post_init__(self):
        check_int("block_size", self.block_size, 1)

    @property
    def prompt_ids(self) -> tuple:
        """BOS, then the question's tokens."""
        return (BOS_ID, *tokenize(self.question))

    @property
    def response_ids(self) -> tuple:
        """The answer's tokens and EOS, right-padded with PAD to a whole
        number of blocks."""
        resp = tokenize(self.answer) + [EOS_ID]
        return tuple(resp + [PAD_ID] * (-len(resp) % self.block_size))


def make_example(a: int, b: int, op: str, block_size: int) -> Example:
    """The example "a op b=" with its answer; operands are integers >= 0."""
    check_int("operand a", a, 0)
    check_int("operand b", b, 0)
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    else:
        raise InvalidConfigError(f"unsupported operator {op!r}")
    if result < 0:
        raise InvalidConfigError("negative results are out of task scope")
    return Example(f"{a}{op}{b}=", str(result), block_size)


def gen_arithmetic(
    seed: int, count: int, max_operand: int = 99, block_size: int = 8
) -> list[Example]:
    """Deterministic list of arithmetic examples.

    Operands are sampled uniformly from [10, max_operand] (two digits and
    up), or from [0, max_operand] when max_operand < 10; the operator is "+"
    or "-" with equal odds, and subtraction operands are ordered so results
    stay non-negative.

    All draws are one `rng.integers` call of shape (count, 3): row i holds
    example i's (a, b, op). numpy fills an array-bounded draw element by
    element in C order with the same bounded sampler as a scalar call, so
    the rows equal three scalar draws per example, a, b then op. After the
    draw an example costs two formatted strings: nothing is tokenized.
    """
    check_int("seed", seed, 0)
    check_int("count", count, 0)
    check_int("max_operand", max_operand, 0)
    if max_operand > 999:
        raise InvalidConfigError(f"max_operand must lie in [0, 999], got {max_operand}")
    check_int("block_size", block_size, 1)
    lo = 10 if max_operand >= 10 else 0
    draws = np.random.default_rng(seed).integers(
        [lo, lo, 0], [max_operand + 1, max_operand + 1, 2], size=(count, 3)
    )
    out = []
    # a slice at a time, so no pool-sized list of Python ints is ever alive
    for start in range(0, count, _ROWS):
        for a, b, minus in draws[start:start + _ROWS].tolist():
            if not minus:
                out.append(Example(f"{a}+{b}=", str(a + b), block_size))
            elif b > a:
                out.append(Example(f"{b}-{a}=", str(b - a), block_size))
            else:
                out.append(Example(f"{a}-{b}=", str(a - b), block_size))
    return out


def exact_match_accuracy(decoded, refs) -> float:
    """Fraction of decoded sequences whose response starts with exactly
    the ids of the reference answer and then EOS; what follows the first
    EOS is not read. A leftover MASK, a PAD inside the answer or a missing
    EOS misses. `decoded` holds SequenceState-likes (ids + prompt_len);
    refs holds Examples."""
    if len(decoded) != len(refs):
        raise InvalidConfigError("decoded and refs must have the same length")
    if not refs:
        return 0.0
    hits = 0
    for state, ref in zip(decoded, refs):
        ids = state.ids[state.prompt_len:].tolist()
        hits += EOS_ID in ids and ids[:ids.index(EOS_ID)] == tokenize(ref.answer)
    return hits / len(refs)
