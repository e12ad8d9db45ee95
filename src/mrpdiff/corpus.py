"""Character-level vocabulary and the synthetic arithmetic task.

The task is 2-3 digit addition/subtraction with non-negative results, e.g.
"17+25=" -> "42". Exact string match on the answer gives a crisp quality
metric at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UNREADABLE, InvalidConfigError, MissingArtifactError

MASK_ID = 0
PAD_ID = 1
BOS_ID = 2
EOS_ID = 3

_SPECIALS = ["<mask>", "<pad>", "<bos>", "<eos>"]
_CHARS = [str(d) for d in range(10)] + ["+", "-", "=", " "] + [
    chr(c) for c in range(ord("a"), ord("z") + 1)
]


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


@dataclass(frozen=True)
class Example:
    question: str
    answer: str
    prompt_ids: tuple   # BOS + question tokens
    response_ids: tuple  # answer tokens + EOS, right-padded with PAD to the block grid


def make_example(a: int, b: int, op: str, block_size: int) -> Example:
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    else:
        raise InvalidConfigError(f"unsupported operator {op!r}")
    if result < 0:
        raise InvalidConfigError("negative results are out of task scope")
    return _example(f"{a}{op}{b}=", str(result), block_size)


def _example(question: str, answer: str, block_size: int) -> Example:
    if block_size < 1:
        raise InvalidConfigError(f"block_size must be >= 1, got {block_size}")
    resp = tokenize(answer) + [EOS_ID]
    if len(resp) % block_size:
        resp = resp + [PAD_ID] * (block_size - len(resp) % block_size)
    return Example(
        question=question,
        answer=answer,
        prompt_ids=tuple([BOS_ID] + tokenize(question)),
        response_ids=tuple(resp),
    )


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
    the rows equal three scalar draws per example, a, b then op.
    """
    if not 0 <= max_operand <= 999:
        raise InvalidConfigError("max_operand must lie in [0, 999]")
    if count < 0:
        raise InvalidConfigError("count must be >= 0")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidConfigError(f"seed must be an integer >= 0, got {seed!r}")
    lo = 10 if max_operand >= 10 else 0
    draws = np.random.default_rng(seed).integers(
        [lo, lo, 0], [max_operand + 1, max_operand + 1, 2], size=(count, 3)
    )
    out = []
    # a slice at a time, so no pool-sized list of Python ints is ever alive
    for start in range(0, count, _ROWS):
        for a, b, minus in draws[start:start + _ROWS].tolist():
            if minus and b > a:
                a, b = b, a
            out.append(make_example(a, b, "-" if minus else "+", block_size))
    return out


def write_dataset(path: str, examples: list[Example]) -> int:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(f"{ex.question}\t{ex.answer}\n")
    return len(examples)


def load_dataset(path: str, block_size: int = 8) -> list[Example]:
    """Read a file written by `write_dataset`. A file that is missing or
    cannot be read (a directory, no permission) raises MissingArtifactError;
    bytes that are not UTF-8 or a line that is not a TAB-separated pair
    raise InvalidConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UNREADABLE as e:
        raise MissingArtifactError(f"cannot read dataset {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise InvalidConfigError(f"{path}: not UTF-8 text") from None
    out = []
    for lineno, line in enumerate(lines):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            question, answer = line.split("\t")
        except ValueError:
            raise InvalidConfigError(
                f"{path}:{lineno + 1}: expected TAB-separated prompt and response"
            ) from None
        out.append(_example(question, answer, block_size))
    return out


def response_answer(ids) -> str:
    """Detokenized response text before the first EOS."""
    cut = []
    for i in ids:
        if int(i) == EOS_ID:
            break
        cut.append(int(i))
    return detokenize(cut)


def exact_match_accuracy(decoded, refs) -> float:
    """Fraction of decoded sequences whose answer-before-EOS matches the
    reference answer string exactly. `decoded` holds SequenceState-likes
    (ids + prompt_len); refs holds Examples."""
    if len(decoded) != len(refs):
        raise InvalidConfigError("decoded and refs must have the same length")
    if not refs:
        return 0.0
    hits = 0
    for state, ref in zip(decoded, refs):
        got = response_answer(state.ids[state.prompt_len:])
        if got == ref.answer:
            hits += 1
    return hits / len(refs)
