"""Masking process and unmasking policies.

Holds the chain state (token ids on a block grid; a position is masked
exactly when its id is MASK_ID), the training-time corruption, confidence
computation over masked positions, static top-r / dynamic threshold
selection, the baseline one-forward-per-step denoising loop, and trace
recording. Decoding never commits MASK_ID, so every block ends clean.

Threshold comparisons are on max softmax probability. Tie-breaks are fixed
everywhere (lowest position index, lowest token id) so decoding is fully
deterministic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from . import backbone as bb
from . import checkpoint
from .corpus import EOS_ID, MASK_ID, PAD_ID
from .errors import ContractViolationError, InvalidConfigError
from .numerics.tensor import Tensor, _softmax_data, no_grad


@dataclass
class SequenceState:
    """A sequence on the block grid, or a (B, L) stack of them. The state is
    its ids: a position is masked exactly when it holds MASK_ID, so every
    change of state is a write into `ids`."""

    ids: np.ndarray  # int64, (L,) or (B, L)
    prompt_len: int
    block_size: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    @property
    def masked(self) -> np.ndarray:
        """`ids == MASK_ID`, read-only: a write into it raises ValueError."""
        flags = self.ids == MASK_ID
        flags.flags.writeable = False
        return flags

    @property
    def length(self) -> int:
        return self.ids.shape[-1]

    @property
    def n_blocks(self) -> int:
        return (self.length - self.prompt_len) // self.block_size

    @property
    def current_block(self) -> int:
        """First response block of one sequence holding a mask (n_blocks when clean)."""
        masked_pos = np.flatnonzero(self.masked)
        if len(masked_pos) == 0:
            return self.n_blocks
        return int((masked_pos[0] - self.prompt_len) // self.block_size)

    def block_bounds(self, block: int) -> tuple[int, int]:
        start = self.prompt_len + block * self.block_size
        return start, start + self.block_size

    def window(self, block: int) -> "SequenceState":
        """The rows up to the end of `block`, of one sequence or a stack, as a
        state whose ids are a view of these: a write into either shows in both."""
        end = self.prompt_len + (block + 1) * self.block_size
        return SequenceState(self.ids[..., :end], self.prompt_len, self.block_size)

    def masked_in_block(self, block: int) -> np.ndarray:
        """The masked positions of `block`, of one sequence."""
        lo, hi = self.block_bounds(block)
        return lo + np.flatnonzero(self.masked[lo:hi])

    def mask_count(self) -> int:
        return int(self.masked.sum())

    def clone(self) -> "SequenceState":
        return SequenceState(ids=self.ids.copy(), prompt_len=self.prompt_len,
                             block_size=self.block_size)

    def validate(self) -> None:
        if (self.length - self.prompt_len) % self.block_size:
            raise InvalidConfigError("response region is not a whole number of blocks")
        if self.masked[..., :self.prompt_len].any():
            raise ContractViolationError("prompt positions must never be masked")


def state_from_example(ex, block_size: int, all_masked: bool = True) -> SequenceState:
    """Decode-ready state (response fully masked) or the clean x0. The
    response must be a whole number of blocks."""
    prompt = np.asarray(ex.prompt_ids, dtype=np.int64)
    resp = np.asarray(ex.response_ids, dtype=np.int64)
    if block_size < 1 or len(resp) % block_size:
        raise InvalidConfigError(
            f"block_size {block_size} does not divide the response length {len(resp)}"
        )
    ids = np.concatenate([prompt, np.full_like(resp, MASK_ID) if all_masked else resp])
    return SequenceState(ids=ids, prompt_len=len(prompt), block_size=block_size)


# ---------------------------------------------------------------------------
# corruption (training-time forward process)
# ---------------------------------------------------------------------------


def corrupt(x0: SequenceState, rng: np.random.Generator, rate: float | None = None) -> SequenceState:
    """Mask response tokens independently with one shared rate u ~ U(0,1)
    per sequence (rate can be forced for tests). Prompt and PAD positions
    are never masked. A forced rate outside [0, 1], or NaN, raises
    InvalidConfigError."""
    if x0.masked.any():
        raise ContractViolationError("corrupt expects a fully clean sequence")
    if rate is not None and not 0.0 <= float(rate) <= 1.0:  # NaN fails too
        raise InvalidConfigError(f"corruption rate must lie in [0, 1], got {rate}")
    u = float(rng.random()) if rate is None else float(rate)
    out = x0.clone()
    eligible = np.zeros(out.length, dtype=bool)
    eligible[out.prompt_len:] = out.ids[out.prompt_len:] != PAD_ID
    draw = rng.random(out.length) < u
    out.ids[eligible & draw] = MASK_ID
    return out


# ---------------------------------------------------------------------------
# confidence and selection
# ---------------------------------------------------------------------------


@dataclass
class Confidence:
    positions: np.ndarray  # masked positions of the current block
    probs: np.ndarray      # max softmax probability per position
    tokens: np.ndarray     # argmax token id (ties -> lowest id)

    def __len__(self) -> int:
        return len(self.positions)


def _logits_data(logits) -> np.ndarray:
    return logits.data if isinstance(logits, Tensor) else np.asarray(logits)


def confidence_of(logits, x: SequenceState) -> Confidence:
    """Max softmax probability and argmax token for each masked position of
    the current block. Empty when the block is clean. MASK_ID is never the
    token: its column is set below every probability first."""
    data = _logits_data(logits)
    masked = np.flatnonzero(x.masked)
    # a plain list: cheaper than numpy scalars and searchsorted at a few positions
    where = masked.tolist()
    if not where:
        return Confidence(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64))
    # the current block holds the first masked position and ends at `hi`
    hi = x.prompt_len + ((where[0] - x.prompt_len) // x.block_size + 1) * x.block_size
    positions = masked[:bisect.bisect_left(where, hi)]
    if len(data) <= positions[-1]:
        raise ContractViolationError("logits rows do not cover the current block")
    p = _softmax_data(data[positions])
    # -1, not 0: MASK must also lose to a row whose other entries underflow to 0
    p[:, MASK_ID] = -1.0
    # a row's largest probability is the one at its argmax
    return Confidence(positions=positions, probs=np.maximum.reduce(p, axis=-1),
                      tokens=p.argmax(axis=-1))


def select_static(conf: Confidence, r: int) -> np.ndarray:
    """Positions of the min(r, #masked) highest-confidence entries; ties
    broken by lowest position index."""
    if r < 1:
        raise InvalidConfigError("static policy requires r >= 1")
    if len(conf) == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((conf.positions, -conf.probs))
    return np.sort(conf.positions[order[: min(r, len(conf))]])


def select_dynamic(conf: Confidence, tau: float) -> np.ndarray:
    """All positions with confidence strictly above tau; if none, the single
    highest-confidence position, so every step makes progress."""
    if not 0.0 < tau <= 1.0:
        raise InvalidConfigError("dynamic policy requires tau in (0, 1]")
    if len(conf) == 0:
        return np.empty(0, dtype=np.int64)
    above = conf.probs > tau
    if above.any():
        return np.sort(conf.positions[above])
    order = np.lexsort((conf.positions, -conf.probs))
    return conf.positions[order[:1]]


@dataclass
class Policy:
    kind: str = "static"   # "static" | "dynamic"
    r: int = 1
    tau: float = 1.0

    def select(self, conf: Confidence) -> np.ndarray:
        if self.kind == "static":
            return select_static(conf, self.r)
        if self.kind == "dynamic":
            return select_dynamic(conf, self.tau)
        raise InvalidConfigError(f"unknown policy kind {self.kind!r}")


def _check_positions(x: SequenceState, positions: np.ndarray, op: str) -> None:
    """Raise unless `positions` is a 1-D list of distinct response positions."""
    if positions.ndim != 1:
        raise ContractViolationError(f"{op} expects a 1-D list of positions")
    # plain lists: cheaper than numpy reductions at the few positions of a step
    pos = positions.tolist()
    if min(pos) < x.prompt_len or max(pos) >= x.length:
        raise ContractViolationError(
            f"{op} of a position outside the response [{x.prompt_len}, {x.length})"
        )
    if len(set(pos)) != len(pos):
        raise ContractViolationError(f"{op} of a repeated position")


def reveal(x: SequenceState, positions, tokens) -> SequenceState:
    """Set ids at `positions` (distinct response positions, all currently
    masked), one token per position; no token may be MASK_ID."""
    positions = np.asarray(positions, dtype=np.int64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.shape != positions.shape:
        raise ContractViolationError(
            f"reveal of {positions.size} positions with {tokens.size} tokens"
        )
    if positions.size == 0:
        return x
    _check_positions(x, positions, "reveal")
    if (x.ids[positions] != MASK_ID).any():
        raise ContractViolationError("reveal of a position that is not masked")
    if MASK_ID in tokens.tolist():
        raise ContractViolationError("reveal of the MASK token")
    x.ids[positions] = tokens
    return x


def remask(x: SequenceState, positions) -> SequenceState:
    """Mask `positions` again (distinct response positions, none masked) by
    writing MASK_ID there."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return x
    _check_positions(x, positions, "remask")
    if x.masked[positions].any():
        raise ContractViolationError("remask of a position that is already masked")
    x.ids[positions] = MASK_ID
    return x


def finalize_block(x: SequenceState) -> int:
    """After a block completes: if an EOS is committed in the response,
    write PAD into every masked position, so the sequence is clean and
    needs no further forwards. Returns the number of backfilled positions."""
    if EOS_ID not in x.ids[x.prompt_len:]:
        return 0
    rest = np.flatnonzero(x.masked)
    x.ids[rest] = PAD_ID
    return len(rest)


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------


@dataclass
class DraftRecord:
    position: int
    token: int
    mrp_step: int      # 1-based index of the drafting MRP round
    confidence: float  # accumulated-logits confidence at draft time


@dataclass
class StepRecord:
    """Snapshot of one forward pass during decoding.

    kind "backbone": h/logits are the model outputs over the window
    (verify=True when this forward verified drafts). kind "mrp": h/logits
    hold the correction head's hidden and logit residuals. `ids` is the
    window the forward ran on (up to the end of `block`); its MASK_ID
    positions are the masked ones.
    """

    kind: str
    block: int
    ids: np.ndarray
    h: np.ndarray
    logits: np.ndarray
    revealed_positions: np.ndarray
    revealed_tokens: np.ndarray
    verify: bool = False
    drafts: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    rejected: list = field(default_factory=list)


@dataclass
class DecodeTrace:
    block_size: int
    prompt_len: int
    records: list = field(default_factory=list)


def save_trace(path: str, trace: DecodeTrace) -> None:
    named = [("trace.meta", np.asarray([len(trace.records), trace.block_size, trace.prompt_len]))]
    for i, r in enumerate(trace.records):
        p = f"step.{i:05d}"
        drafts = np.asarray(
            [[d.position, d.token, d.mrp_step, d.confidence] for d in r.drafts]
        ).reshape(-1, 4)
        named += [
            (f"{p}.meta", np.asarray([
                0.0 if r.kind == "backbone" else 1.0, float(r.block), 1.0 if r.verify else 0.0,
            ])),
            (f"{p}.ids", r.ids.astype(np.float64)),
            (f"{p}.h", r.h),
            (f"{p}.logits", r.logits),
            (f"{p}.revealed_positions", r.revealed_positions.astype(np.float64)),
            (f"{p}.revealed_tokens", r.revealed_tokens.astype(np.float64)),
            (f"{p}.drafts", drafts.astype(np.float64)),
            (f"{p}.accepted", np.asarray(r.accepted, dtype=np.float64)),
            (f"{p}.rejected", np.asarray(r.rejected, dtype=np.float64)),
        ]
    checkpoint.save_tensors(path, named)


def load_trace(path: str) -> DecodeTrace:
    """Read a trace written by `save_trace`. A file that is not a trace, or
    that lacks a step record, raises InvalidConfigError."""
    blob = checkpoint.load_tensors(path)

    def get(name: str) -> np.ndarray:
        if name not in blob:
            raise InvalidConfigError(f"{path}: not a decode trace, no tensor {name!r}")
        return blob[name]

    n, block_size, prompt_len = (int(v) for v in get("trace.meta"))
    trace = DecodeTrace(block_size=block_size, prompt_len=prompt_len)
    for i in range(n):
        p = f"step.{i:05d}"
        kind_code, block, verify = get(f"{p}.meta")
        drafts = [
            DraftRecord(int(row[0]), int(row[1]), int(row[2]), float(row[3]))
            for row in get(f"{p}.drafts").reshape(-1, 4)
        ]
        trace.records.append(
            StepRecord(
                kind="backbone" if kind_code == 0.0 else "mrp",
                block=int(block),
                ids=get(f"{p}.ids").astype(np.int64),
                h=get(f"{p}.h"),
                logits=get(f"{p}.logits"),
                revealed_positions=get(f"{p}.revealed_positions").astype(np.int64),
                revealed_tokens=get(f"{p}.revealed_tokens").astype(np.int64),
                verify=bool(verify),
                drafts=drafts,
                accepted=[int(v) for v in get(f"{p}.accepted")],
                rejected=[int(v) for v in get(f"{p}.rejected")],
            )
        )
    return trace


# ---------------------------------------------------------------------------
# baseline denoising loop
# ---------------------------------------------------------------------------


def denoise_block_baseline(
    params,
    x: SequenceState,
    policy: Policy,
    trace: DecodeTrace | None = None,
    stats=None,
) -> SequenceState:
    """Denoise the current block with backbone forwards only: forward ->
    confidence -> select -> reveal on `x.window(block)`, whose reveals land
    in x, until the block is clean. Each step reveals at least one position,
    so a block finishes in <= block_size forwards. The first forward caches
    the rows before the block, which the later ones reuse."""
    block = x.current_block
    lo, hi = x.block_bounds(block)
    if not x.masked[lo:hi].all():
        raise ContractViolationError("baseline denoise expects a fully masked block")
    xw = x.window(block)
    prefix = bb.PrefixKV(lo)
    # a plain list: cheaper than the `masked` array at each step
    while MASK_ID in xw.ids[lo:hi].tolist():
        with no_grad():
            h, logits = bb.forward(xw, params, prefix=prefix)
        conf = confidence_of(logits, xw)
        positions = policy.select(conf)
        tokens = conf.tokens[np.searchsorted(conf.positions, positions)]
        if trace is not None:
            trace.records.append(
                StepRecord(
                    kind="backbone", block=block, ids=xw.ids.copy(),
                    h=h.data, logits=logits.data,
                    revealed_positions=positions.copy(),
                    revealed_tokens=np.asarray(tokens, dtype=np.int64),
                )
            )
        if stats is not None:
            stats.backbone_forwards += 1
            stats.block_steps[block] = stats.block_steps.get(block, 0) + 1
        reveal(xw, positions, tokens)
        if stats is not None:
            stats.tokens_generated += len(positions)
    return x
