"""Masking process and unmasking policies.

Holds the chain state (token ids on a block grid; a position is masked
exactly when its id is MASK_ID), the training-time corruption, confidence
computation over masked positions, the decoding policy (`Policy.select`,
the one rule for which positions a step reveals: the static top r or those
above a dynamic threshold), the write that reveals tokens (`reveal`),
the baseline denoising loop with its counts (`DecodeStats`), and the
decode trace: one record per step, its kind "backbone" or "mrp", saved to
and loaded from a tensor file. Decoding never commits MASK_ID, so every
block ends clean.

The baseline loop drafts and verifies losslessly, as speculative decoding
does (Leviathan et al., arXiv 2211.17192): the last forward's ranking
drafts the next steps, and one stacked forward checks them, so it takes
the steps of one forward per step, bit for bit, with fewer forwards (see
`denoise_block_baseline`).

Threshold comparisons are on max softmax probability. Tie-breaks are fixed
everywhere (lowest position index, lowest token id) so decoding is fully
deterministic.
"""

from __future__ import annotations

import bisect
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


def corrupt(x0: SequenceState, rng: np.random.Generator, rate: float | None = None) -> SequenceState:
    """Mask response tokens independently with one shared rate u ~ U(0,1)
    per sequence (rate can be forced for tests). Prompt and PAD positions
    are never masked. A clean (B, L) stack draws row by row, as B calls
    would. Before any draw, a masked `x0` raises ContractViolationError and
    a forced rate that is not a number in [0, 1] InvalidConfigError."""
    if x0.masked.any():
        raise ContractViolationError("corrupt expects clean sequences")
    if rate is not None and not (is_finite_real(rate) and 0.0 <= rate <= 1.0):
        raise InvalidConfigError(f"corruption rate must lie in [0, 1], got {rate!r}")
    out = x0.clone()
    for row in np.atleast_2d(out.ids):  # views of the clone's rows
        u = float(rng.random()) if rate is None else float(rate)
        hit = rng.random(out.length) < u
        hit[:out.prompt_len] = False
        row[hit & (row != PAD_ID)] = MASK_ID
    return out


# ---------------------------------------------------------------------------
# confidence and selection
# ---------------------------------------------------------------------------


@dataclass
class Confidence:
    positions: np.ndarray  # masked positions of the current block
    probs: np.ndarray      # max softmax probability per position
    tokens: np.ndarray     # argmax token id (ties -> lowest id)


def _logits_data(logits) -> np.ndarray:
    return logits.data if isinstance(logits, Tensor) else np.asarray(logits)


def confidence_of(logits, x: SequenceState) -> Confidence:
    """Max softmax probability and argmax token for each masked position of
    the current block. Empty when the block is clean. MASK_ID is never the
    token: its column is set below every probability first. `x` is one
    sequence."""
    x._one_sequence("confidence_of")
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


@dataclass(frozen=True)
class Policy:
    """How a denoising step picks the positions to reveal: "static" takes
    the r most confident, "dynamic" all those strictly above tau, or the
    most confident one when none is, so every step makes progress. Ties go
    to the lowest position. Checked when built, and immutable after."""

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
        """The positions of `conf` to reveal, ascending; empty when `conf` is."""
        if self.kind == "dynamic":
            above = conf.probs > self.tau
            if above.any():
                return np.sort(conf.positions[above])
        # the r most confident, or for "dynamic" with none above tau the one
        order = np.lexsort((conf.positions, -conf.probs))
        return np.sort(conf.positions[order[:self.r if self.kind == "static" else 1]])


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
    if positions.size == 0:
        return x
    if positions.ndim != 1:
        raise ContractViolationError("reveal expects a 1-D list of positions")
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


def _draft(policy: Policy, conf: Confidence, taken: np.ndarray) -> list:
    """Up to `_DRAFTS` further steps, each (positions, tokens) as lists,
    after a step revealed `taken` of `conf`'s positions: `policy` selects
    on `conf` restricted to the positions still masked, after each draft's
    reveal. A draft that would clean the block is left out (its state needs
    no forward), and so is a dynamic policy's progress fallback: its step
    took every position of `conf` above tau, so nothing else is left."""
    if policy.kind == "dynamic":
        return []
    drafts = []
    rest = conf
    for _ in range(_DRAFTS):
        # plain lists: cheaper than numpy masks at a block's few positions
        gone = set(taken.tolist())
        keep = [i for i, p in enumerate(rest.positions.tolist()) if p not in gone]
        rest = Confidence(rest.positions[keep], rest.probs[keep], rest.tokens[keep])
        taken = policy.select(rest)
        if len(taken) == len(keep):
            break
        tokens = rest.tokens[np.searchsorted(rest.positions, taken)]
        drafts.append((taken.tolist(), tokens.tolist()))
    return drafts


def _forward_drafts(params, xw: SequenceState, drafts: list, prefix: bb.PrefixKV,
                    tiled: dict) -> list:
    """Exact (h, logits) of `xw` and of each drafted state after it, from
    one no-grad forward: over `xw` alone with the block's `prefix`, or over
    the stack of states with a tile of it (kept in `tiled` by stack size)."""
    if not drafts:
        with no_grad():
            h, logits = bb.forward(xw, params, prefix=prefix)
        return [(h.data, logits.data)]
    n = len(drafts) + 1
    ids = np.repeat(xw.ids[None], n, axis=0)
    for j, (positions, tokens) in enumerate(drafts, 1):
        ids[j:, positions] = tokens
    if n not in tiled:
        tiled[n] = prefix.tile(n)
    with no_grad():
        h, logits = bb.forward(SequenceState(ids, xw.prompt_len, xw.block_size), params,
                               prefix=tiled[n])
    return list(zip(h.data, logits.data))


def denoise_block_baseline(
    params,
    x: SequenceState,
    policy: Policy,
    trace: DecodeTrace | None = None,
    stats: DecodeStats | None = None,
) -> SequenceState:
    """Denoise the current block with backbone forwards only, until it is
    clean: each step runs confidence -> select -> reveal on
    `x.window(block)`, whose reveals land in x, and reveals at least one
    position, so a block takes <= block_size steps.

    Draft and verify, lossless: after each reveal, `Policy.select` on the
    same forward's confidence, restricted to the positions still masked,
    drafts up to `_DRAFTS` further steps. One stacked forward gives the
    exact logits of the revealed state and of each drafted one. A step
    whose positions and tokens, selected on its state's exact logits, are
    the drafted ones lands on the next drafted state, whose exact row is
    then at hand; the first step that differs, or the last draft, ends
    the stack and the next forward starts from the state reached. So ids,
    trace records and steps are those of one forward per step, bit for
    bit. `stats.block_steps` counts steps, one per selection, and
    `stats.backbone_forwards` forwards, a stacked one once.

    The drafts rank by the last forward's confidence unchanged (a zero
    residual). A dynamic policy's step has already taken every position
    of it above tau, so only the progress fallback is left, which is
    never drafted: a dynamic policy runs one forward per step.

    The block's first forward caches the rows before the block, and later
    ones reuse them, a stacked one through a tile of that cache. The trace
    keeps one record per step, its kind "backbone"."""
    block = x.current_block
    lo, hi = x.block_bounds(block)
    if not x.masked[lo:hi].all():
        raise ContractViolationError("baseline denoise expects a fully masked block")
    xw = x.window(block)
    prefix, tiled = bb.PrefixKV(lo), {}
    # exact (h, logits) of xw, then of each drafted state after it; and the
    # drafted step from each of those states to the next
    outs, drafts = [], []
    conf = positions = None
    # a plain list: cheaper than the `masked` array at each step
    while MASK_ID in xw.ids[lo:hi].tolist():
        if not outs:
            drafts = [] if conf is None else _draft(policy, conf, positions)
            outs = _forward_drafts(params, xw, drafts, prefix, tiled)
            if stats is not None:
                stats.backbone_forwards += 1
        h, logits = outs.pop(0)
        conf = confidence_of(logits, xw)
        positions = policy.select(conf)
        tokens = conf.tokens[np.searchsorted(conf.positions, positions)]
        if trace is not None:
            trace.records.append(
                StepRecord(
                    kind="backbone", block=block, ids=xw.ids.copy(), h=h, logits=logits,
                    revealed_positions=positions.copy(),
                    revealed_tokens=np.asarray(tokens, dtype=np.int64),
                )
            )
        if stats is not None:
            stats.block_steps[block] = stats.block_steps.get(block, 0) + 1
        reveal(xw, positions, tokens)
        if stats is not None:
            stats.tokens_generated += len(positions)
        # xw is the next drafted state only if this step was the drafted one
        if drafts and drafts.pop(0) != (positions.tolist(), tokens.tolist()):
            outs = []
    return x
