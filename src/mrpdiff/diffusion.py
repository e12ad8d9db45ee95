"""Masking process and unmasking policies.

Holds the chain state (token ids on a block grid; a position is masked
exactly when its id is MASK_ID), the training-time corruption, the
confidence at the current block's offsets (`confidence_of`, for one
sequence or a stack of states) with its one ranking (`Confidence.rank`),
the decoding policy (`Policy.select`, the one rule for which offsets a
step reveals: the static top r or those above a dynamic threshold), the
write that reveals tokens (`reveal`), the baseline denoising loop with its
counts (`DecodeStats`), and the decode trace: one record per step, its
kind "backbone" or "mrp", saved to and loaded from a tensor file.
Decoding never commits MASK_ID, so every block ends clean.

The baseline loop drafts and verifies losslessly, as speculative decoding
does (Leviathan et al., arXiv 2211.17192): the drafts are rank windows of
the last exact row, and one stacked forward checks them, so it takes the
steps of one forward per step, bit for bit, with fewer forwards (see
`denoise_block_baseline`).

Threshold comparisons are on max softmax probability. Tie-breaks are fixed
everywhere (lowest offset, lowest token id) so decoding is fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import backbone as bb
from . import checkpoint
from .corpus import EOS_ID, MASK_ID, PAD_ID
from .errors import (ContractViolationError, InvalidConfigError, InvalidShapeError, as_int64,
                     check_int, is_finite_real)
from .numerics.tensor import Tensor, _softmax_data, no_grad


@dataclass(frozen=True)
class SequenceState:
    """A sequence on the block grid, or a (B, L) stack of them. The state is
    its ids: a position is masked exactly when it holds MASK_ID, so every
    change of state is a write into `ids`. Checked when built: integer ids
    of shape (L,) or (B, L), kept as int64 without a copy (a `window` is a
    view), a prompt of 0 to L rows and a response of whole blocks."""

    ids: np.ndarray  # int64, (L,) or (B, L)
    prompt_len: int
    block_size: int

    def __post_init__(self):
        ids = as_int64("token ids", self.ids, InvalidShapeError)
        if ids.ndim not in (1, 2):
            raise InvalidShapeError(f"token ids must be (L,) or (B, L), got shape {ids.shape}")
        object.__setattr__(self, "ids", ids)
        check_int("prompt_len", self.prompt_len, 0)
        check_int("block_size", self.block_size, 1)
        resp = self.length - self.prompt_len
        if resp < 0 or resp % self.block_size:
            raise InvalidConfigError(f"{resp} rows after a prompt of {self.prompt_len} are not a "
                                     f"whole number of blocks of block_size {self.block_size}")

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

    def _one_sequence(self, op: str) -> None:
        """Raise InvalidShapeError unless the ids are one sequence's, (L,)."""
        if self.ids.ndim != 1:
            raise InvalidShapeError(f"{op} takes one sequence, got ids of shape {self.ids.shape}")

    @property
    def current_block(self) -> int:
        """First response block of one sequence holding a mask (n_blocks when clean)."""
        self._one_sequence("current_block")
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

    def mask_count(self) -> int:
        return int(self.masked.sum())

    def clone(self) -> "SequenceState":
        return replace(self, ids=self.ids.copy())

    def validate(self) -> None:
        """Raise ContractViolationError if a write into `ids` masked a prompt row."""
        if self.masked[..., :self.prompt_len].any():
            raise ContractViolationError("prompt positions must never be masked")


def state_from_example(ex, block_size: int, all_masked: bool = True) -> SequenceState:
    """Decode-ready state (response fully masked) or the clean x0. The
    response must be a whole number of blocks."""
    prompt, resp = ex.prompt_ids, ex.response_ids
    ids = np.concatenate([prompt, np.full(len(resp), MASK_ID) if all_masked else resp])
    return SequenceState(ids=ids, prompt_len=len(prompt), block_size=block_size)


# ---------------------------------------------------------------------------
# corruption (training-time forward process)
# ---------------------------------------------------------------------------


def maskable(x0: SequenceState) -> np.ndarray:
    """Where `corrupt` may mask clean `x0`: the response's non-PAD positions."""
    return (x0.ids != PAD_ID) & (np.arange(x0.length) >= x0.prompt_len)


def corrupt(x0: SequenceState, rng: np.random.Generator, rate: float | None = None) -> SequenceState:
    """Mask the `maskable` positions independently with one shared rate
    u ~ U(0,1) per sequence (rate can be forced for tests). A clean (B, L)
    stack draws row by row, as B calls would. Before any draw, a masked
    `x0` raises ContractViolationError and a forced rate that is not a
    number in [0, 1] InvalidConfigError."""
    if x0.masked.any():
        raise ContractViolationError("corrupt expects clean sequences")
    if rate is not None and not (is_finite_real(rate) and 0.0 <= rate <= 1.0):
        raise InvalidConfigError(f"corruption rate must lie in [0, 1], got {rate!r}")
    out = x0.clone()
    for row, allowed in zip(np.atleast_2d(out.ids), np.atleast_2d(maskable(x0))):  # views
        u = float(rng.random()) if rate is None else float(rate)
        row[(rng.random(out.length) < u) & allowed] = MASK_ID
    return out


# ---------------------------------------------------------------------------
# confidence and selection
# ---------------------------------------------------------------------------


@dataclass
class Confidence:
    """Confidence at the current block's offsets, as ([B,] block_size)
    arrays. An offset that is not masked has `probs` -1, below every
    probability. `rank` is the one tie rule, read by selection and
    drafting: each offset's place in its row's stable ranking by (-prob,
    offset), so the masked offsets come first."""

    lo: int                # first position of the current block
    masked: np.ndarray     # the offset is masked
    probs: np.ndarray      # max softmax probability per masked offset, else -1
    tokens: np.ndarray     # argmax token id (ties -> lowest id)
    rank: np.ndarray = field(init=False)

    def __post_init__(self):
        self.rank = (-self.probs).argsort(axis=-1, kind="stable").argsort(axis=-1)


def confidence_of(logits, x: SequenceState) -> Confidence:
    """Max softmax probability and argmax token at each offset of the
    current block, from one softmax over its rows. `x` is one sequence, or
    a (B, L) stack whose rows share their current block (else
    ContractViolationError); a clean sequence gives empty arrays. MASK_ID
    is never the token: its column is set below every probability first.
    Logits with fewer than 2 axes raise InvalidShapeError."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if data.ndim < 2:
        raise InvalidShapeError(f"logits must have a row axis and a vocabulary axis, "
                                f"got shape {data.shape}")
    masked = x.masked
    rows = masked.reshape(-1, x.length)
    # a row's current block starts on the grid at or before its first mask
    # (plain Python: cheaper than numpy arithmetic at a stack's few rows)
    p0, size = x.prompt_len, x.block_size
    starts = {f - (f - p0) % size if row[f] else x.length
              for row, f in zip(rows, rows.argmax(axis=-1).tolist())}
    if len(starts) > 1:
        raise ContractViolationError(f"a stack's rows must share their current block, got "
                                     f"blocks starting at {sorted(starts)}")
    lo = starts.pop()
    if lo == x.length:
        return Confidence(lo, np.empty(0, bool), np.empty(0), np.empty(0, np.int64))
    hi = lo + x.block_size
    if data.shape[-2] < hi:
        raise ContractViolationError("logits rows do not cover the current block")
    p = _softmax_data(data[..., lo:hi, :])
    # -1, not 0: MASK must also lose to a row whose other entries underflow to 0
    p[..., MASK_ID] = -1.0
    masked = masked[..., lo:hi]
    # a row's largest probability is the one at its argmax
    return Confidence(lo, masked, np.where(masked, np.maximum.reduce(p, axis=-1), -1.0),
                      p.argmax(axis=-1))


@dataclass(frozen=True)
class Policy:
    """How a denoising step picks the offsets to reveal, from the masked
    offsets' ranking (`Confidence.rank`): "static" takes the first r,
    "dynamic" all those strictly above tau, or the first when none is, so
    every step makes progress. One call selects for every row of a stack.
    Checked when built, and immutable after."""

    kind: str = "static"   # "static" | "dynamic"
    r: int = 1
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in ("static", "dynamic"):
            raise InvalidConfigError(f"unknown policy kind {self.kind!r}")
        check_int("static policy r", self.r, 1)
        if not (is_finite_real(self.tau) and 0.0 < self.tau <= 1.0):
            raise InvalidConfigError(f"dynamic policy requires tau in (0, 1], got {self.tau!r}")

    def select(self, conf: Confidence) -> np.ndarray:
        """The ([B,] block_size) mask of the offsets a step reveals, per row
        of `conf`; empty when `conf` is."""
        if self.kind == "static":
            return conf.masked & (conf.rank < self.r)
        # rank 0 is above tau whenever any offset is: taking it too is the fallback
        return conf.masked & ((conf.probs > self.tau) | (conf.rank == 0))


def reveal(x: SequenceState, positions, tokens) -> SequenceState:
    """Set ids at `positions` (distinct response positions, all currently
    masked), one integer token >= 1 per position (so never MASK_ID). `x` is
    one sequence."""
    x._one_sequence("reveal")
    positions = as_int64("reveal positions", positions, ContractViolationError)
    tokens = as_int64("reveal tokens", tokens, ContractViolationError)
    if tokens.shape != positions.shape:
        raise ContractViolationError(
            f"reveal of {positions.size} positions with {tokens.size} tokens"
        )
    if positions.ndim != 1:
        raise ContractViolationError("reveal expects a 1-D list of positions")
    if positions.size == 0:
        return x
    # plain lists: cheaper than numpy reductions at the few positions of a step
    pos = positions.tolist()
    if min(pos) < x.prompt_len or max(pos) >= x.length:
        raise ContractViolationError(
            f"reveal of a position outside the response [{x.prompt_len}, {x.length})"
        )
    if len(set(pos)) != len(pos):
        raise ContractViolationError("reveal of a repeated position")
    if (x.ids[positions] != MASK_ID).any():
        raise ContractViolationError("reveal of a position that is not masked")
    if min(tokens.tolist()) < 1:
        raise ContractViolationError("reveal of the MASK token or a negative id")
    x.ids[positions] = tokens
    return x


def finalize_block(x: SequenceState) -> int:
    """After a block completes: if an EOS is committed in the response,
    write PAD into every masked position, so the sequence is clean and
    needs no further forwards. Returns the number of backfilled positions.
    `x` is one sequence."""
    x._one_sequence("finalize_block")
    if EOS_ID not in x.ids[x.prompt_len:]:
        return 0
    rest = np.flatnonzero(x.masked)
    x.ids[rest] = PAD_ID
    return len(rest)


# ---------------------------------------------------------------------------
# trace recording
# ---------------------------------------------------------------------------


# a trace stores each record's kind as its index here
_KINDS = ("backbone", "mrp")


@dataclass
class StepRecord:
    """Snapshot of one forward pass during decoding.

    kind "backbone": h/logits are the model outputs over the window. kind
    "mrp": h/logits hold the correction head's hidden and logit residuals.
    `ids` is the window the forward ran on (up to the end of `block`); its
    MASK_ID positions are the masked ones. Any other kind raises
    InvalidConfigError when built.
    """

    kind: str
    block: int
    ids: np.ndarray
    h: np.ndarray
    logits: np.ndarray
    revealed_positions: np.ndarray
    revealed_tokens: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidConfigError(f"unknown step record kind {self.kind!r}")


@dataclass
class DecodeTrace:
    block_size: int
    prompt_len: int
    records: list = field(default_factory=list)


def save_trace(path: str, trace: DecodeTrace) -> None:
    named = [("trace.meta", np.asarray([len(trace.records), trace.block_size, trace.prompt_len]))]
    for i, r in enumerate(trace.records):
        p = f"step.{i:05d}"
        named += [
            (f"{p}.meta", np.asarray([float(_KINDS.index(r.kind)), float(r.block)])),
            (f"{p}.ids", r.ids.astype(np.float64)),
            (f"{p}.h", r.h),
            (f"{p}.logits", r.logits),
            (f"{p}.revealed_positions", r.revealed_positions.astype(np.float64)),
            (f"{p}.revealed_tokens", r.revealed_tokens.astype(np.float64)),
        ]
    checkpoint.save_tensors(path, named)


def load_trace(path: str) -> DecodeTrace:
    """Read a trace written by `save_trace`. A file that is not a trace,
    that lacks a step record, or whose records are malformed (an integer
    record holding anything but finite integers >= 0, a meta record of
    other than two, a kind code that names no kind) or disagree (ids that
    are not the rows up to the end of the step's block, h or logits not
    one row per id, revealed positions and tokens of other counts, a
    revealed position outside the block) raises InvalidConfigError naming
    the record."""
    blob = checkpoint.load_tensors(path)

    def get(name: str) -> np.ndarray:
        if name not in blob:
            raise InvalidConfigError(f"{path}: not a decode trace, no tensor {name!r}")
        return blob[name]

    def ints(name: str, count: int | None = None) -> np.ndarray:
        """Record `name` as int64."""
        values = get(name)
        whole = np.isfinite(values) & (values >= 0) & (values == np.floor(values))
        if not whole.all() or count not in (None, values.size):
            raise InvalidConfigError(f"{path}: {name!r} must hold {count or 'only'} integers >= 0")
        return values.astype(np.int64)

    n, block_size, prompt_len = ints("trace.meta", 3).tolist()
    trace = DecodeTrace(block_size=block_size, prompt_len=prompt_len)
    for i in range(n):
        p = f"step.{i:05d}"
        kind_code, block = ints(f"{p}.meta", 2).tolist()
        if kind_code >= len(_KINDS):
            raise InvalidConfigError(f"{path}: {p}.meta has kind {kind_code}, "
                                     f"must be below {len(_KINDS)}")
        record = StepRecord(
            kind=_KINDS[kind_code],
            block=block,
            ids=ints(f"{p}.ids"),
            h=get(f"{p}.h"),
            logits=get(f"{p}.logits"),
            revealed_positions=ints(f"{p}.revealed_positions"),
            revealed_tokens=ints(f"{p}.revealed_tokens"),
        )
        lo = prompt_len + block * block_size
        hi = lo + block_size
        if record.ids.shape != (hi,):
            raise InvalidConfigError(f"{path}: {p}.ids holds {record.ids.size} ids, not the "
                                     f"{hi} rows up to the end of block {block}")
        for rows in (record.h, record.logits):
            if rows.ndim != 2 or len(rows) != hi:
                raise InvalidConfigError(f"{path}: {p}.h and {p}.logits must hold one row "
                                         f"per id, got shapes {record.h.shape} and "
                                         f"{record.logits.shape} for {hi} ids")
        positions, tokens = record.revealed_positions, record.revealed_tokens
        if positions.shape != tokens.shape:
            raise InvalidConfigError(f"{path}: {p} reveals {positions.size} positions "
                                     f"with {tokens.size} tokens")
        if positions.size and (positions.min() < lo or positions.max() >= hi):
            raise InvalidConfigError(f"{path}: {p} reveals a position outside its block "
                                     f"[{lo}, {hi})")
        trace.records.append(record)
    return trace


# ---------------------------------------------------------------------------
# baseline denoising loop
# ---------------------------------------------------------------------------


# Steps drafted after each reveal. Measured on decode-static-b8 (2 vCPU,
# 1200 interleaved answers at each of two seeds), k = 1 / 2 / 3 / 7 drafts
# gave 0.92-0.94 / 0.88-0.90 / 0.93-0.95 / 1.06 of the one-forward-per-step
# loop's op_cost_p50, and k >= 3 raised its p90.
_DRAFTS = 2


@dataclass(slots=True)
class DecodeStats:
    """What the decode loop counts: backbone forwards (a stacked forward
    counts once), the tokens it reveals, and each block's denoising steps
    (one per selection)."""

    backbone_forwards: int = 0
    tokens_generated: int = 0
    block_steps: dict = field(default_factory=dict)

    @property
    def drafts_accepted(self) -> int:
        """Steps taken on a drafted state's row of a stacked forward."""
        return sum(self.block_steps.values()) - self.backbone_forwards


def denoise_block_baseline(
    params,
    x: SequenceState,
    policy: Policy,
    trace: DecodeTrace | None = None,
    stats: DecodeStats | None = None,
) -> SequenceState:
    """Denoise the current block with backbone forwards only, until it is
    clean: each step selects and reveals on `x.window(block)`, whose
    reveals land in x, at least one position, so a block takes
    <= block_size steps.

    Draft and verify, lossless: a forward runs on the window's state
    stacked with up to `_DRAFTS` drafted states after it, and
    `confidence_of` and `Policy.select` run once on its rows. Under a
    static policy the drafts are rank windows of the last exact row:
    drafted step d reveals its masked offsets of rank [r(d+1), r(d+2))
    with their tokens, what selection on that row takes next (a zero
    residual). A drafted state that would be clean is left out. The steps
    walk the stack while each lands on the next drafted state, so ids,
    trace records and steps are those of one forward per step, bit for
    bit. A dynamic step takes every offset above tau, so only its
    fallback is left, never drafted: it runs one forward per step.
    `stats.block_steps` counts steps, and `stats.backbone_forwards`
    forwards, a stacked one once.

    The block's first forward caches the rows before the block; later
    ones reuse them, a stacked one through the leading states of one tile
    for `_DRAFTS + 1` states. The trace keeps one
    record per step, its kind "backbone"."""
    block = x.current_block
    lo, hi = x.block_bounds(block)
    if block == x.n_blocks or not x.masked[lo:hi].all():
        raise ContractViolationError("baseline denoise expects a fully masked block")
    xw = x.window(block)
    stats = DecodeStats() if stats is None else stats
    # the block's prefix, and one tile of it for the largest stack, whose
    # first states serve every smaller stack
    prefix, tiled = bb.PrefixKV(lo), None
    # the block's ids in each drafted state after xw's
    drafted = np.empty((0, x.block_size), np.int64)
    while True:
        n, xs = len(drafted) + 1, xw
        if n > 1:
            ids = np.repeat(xw.ids[None], n, axis=0)
            ids[1:, lo:hi] = drafted
            xs = SequenceState(ids, xw.prompt_len, xw.block_size)
        cache = prefix
        if n > 1:
            if tiled is None:
                tiled = prefix.tile(_DRAFTS + 1)
            cache = tiled.lead(n)
        with no_grad():
            h, logits = bb.forward(xs, params, prefix=cache)
        stats.backbone_forwards += 1
        conf = confidence_of(logits, xs)
        take = policy.select(conf)
        # one row per state, also when xw ran alone
        take, tokens = take.reshape(n, -1), conf.tokens.reshape(n, -1)
        for j in range(n):
            step = take[j]
            positions, revealed = step.nonzero()[0] + lo, tokens[j][step]
            if trace is not None:
                trace.records.append(
                    StepRecord(
                        kind="backbone", block=block, ids=xw.ids.copy(),
                        h=h.data.reshape(n, hi, -1)[j], logits=logits.data.reshape(n, hi, -1)[j],
                        revealed_positions=positions, revealed_tokens=revealed,
                    )
                )
            stats.block_steps[block] = stats.block_steps.get(block, 0) + 1
            reveal(xw, positions, revealed)
            stats.tokens_generated += len(positions)
            # plain lists: cheaper than numpy compares at a block's few ids
            if j + 1 == n or xw.ids[lo:hi].tolist() != drafted[j].tolist():
                break
        # a plain list: cheaper than the `masked` array
        if MASK_ID not in xw.ids[lo:hi].tolist():
            return x
        # a dynamic step took every offset above tau: its fallback is never drafted
        if policy.kind == "static":
            # Row j, the last exact one, drafts with its ranking unchanged (a
            # zero residual). A correction head's logit residual would shift
            # it here: the drafts would rank confidence_of on row j plus it.
            masked, rank = (a.reshape(n, -1)[j] for a in (conf.masked, conf.rank))
            reach = masked & (rank < policy.r * np.arange(2, _DRAFTS + 2)[:, None])
            drafted = np.where(reach, tokens[j], xw.ids[lo:hi])
            # a drafted state that would be clean needs no forward
            drafted = drafted[(drafted == MASK_ID).any(axis=-1)]
