"""Character-level vocabulary and the synthetic arithmetic task.

The task is 2-3 digit addition/subtraction with non-negative results, e.g.
"17+25=" -> "42". Exact string match on the answer gives a crisp quality
metric at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, MissingArtifactError

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


def tokenize(text: str) -> list[int]:
    ids = []
    for offset, ch in enumerate(text):
        tid = _CHAR_TO_ID.get(ch)
        if tid is None:
            raise InvalidConfigError(
                f"unknown character {ch!r} at offset {offset} (not in vocabulary)"
            )
        ids.append(tid)
    return ids


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
    up); subtraction operands are ordered so results stay non-negative.
    """
    if not 0 <= max_operand <= 999:
        raise InvalidConfigError("max_operand must lie in [0, 999]")
    if count < 0:
        raise InvalidConfigError("count must be >= 0")
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


def write_dataset(path: str, examples: list[Example]) -> int:
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(f"{ex.question}\t{ex.answer}\n")
    return len(examples)


def load_dataset(path: str, block_size: int = 8) -> list[Example]:
    """Read a file written by `write_dataset`. A missing file raises
    MissingArtifactError; bytes that are not UTF-8 or a line that is not a
    TAB-separated pair raise InvalidConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except FileNotFoundError:
        raise MissingArtifactError(f"dataset not found: {path}") from None
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
