"""The benchmark's three workloads, driven through mrpdiff's public API.

A closed loop with one client: each answer or optimizer step starts after
the previous one returns. Inputs come from the workload seed; the program
only ever sees the generated examples.

* ``decode-static-b8``: 2-digit prompts, ``block_size=8``, static r=1. Every
  answer is one block of exactly 8 no-grad backbone forwards over a window of
  at most 15 rows, so per-forward engine cost is nearly all of the work.
* ``decode-dynamic-b4``: 3-digit prompts, ``block_size=4``, dynamic tau=0.9.
  The prompt is most of the window, the forward count depends on confidence,
  and an early EOS triggers ``finalize_block`` PAD backfill.
* ``train``: backbone pretraining for a fixed number of steps, then MRP
  distillation (batch 16, unroll 2) against the decode checkpoint. The same
  ``backbone.forward`` runs with the tape (pretraining) and without it (the
  distillation teacher).
"""

from __future__ import annotations

import json
import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import reference
from mrpdiff import backbone as bb
from mrpdiff import checkpoint, corpus, diffusion, training
from mrpdiff import mrp as mrp_mod
from mrpdiff.errors import CheckFailedError, MrpdiffError
from mrpdiff.numerics.tensor import no_grad
from tracer import patched


@dataclass(frozen=True)
class DecodeSpec:
    name: str
    block_size: int
    max_operand: int
    policy: diffusion.Policy
    pool_seed: int
    # About twice the answers one run decodes at the first commit of this
    # benchmark, so that a run does not repeat prompts.
    pool_size: int
    warmup: int = 10


@dataclass(frozen=True)
class TrainSpec:
    name: str = "train"
    # Steps per second of run time: on a 2-core x86 host at the first commit
    # of this benchmark each phase takes about 0.42 of the run, which leaves
    # room for slow spells of a shared host. The counts are fixed, not timed,
    # so the final losses are comparable between commits.
    pretrain_steps_per_s: float = 8.0
    distill_steps_per_s: float = 3.0
    batch_size: int = 16
    unroll: int = 2
    peak_lr: float = 1e-3
    # The eval set and its masking are the same for every seed, so the
    # final losses and matches vary only with the trained weights.
    eval_seed: int = 9000
    eval_examples: int = 256
    eval_rate: float = 0.5


DECODE = {
    spec.name: spec
    for spec in (
        DecodeSpec("decode-static-b8", 8, 99, diffusion.Policy("static", r=1), pool_seed=7008,
                   pool_size=8192),
        DecodeSpec("decode-dynamic-b4", 4, 999, diffusion.Policy("dynamic", tau=0.9),
                   pool_seed=7004, pool_size=16384),
    )
}
TRAIN = TrainSpec()
NAMES = (*DECODE, TRAIN.name)


# ---------------------------------------------------------------------------
# host-speed reference
# ---------------------------------------------------------------------------

_REF_W = np.full((64, 64), 0.01)
_REF_X = np.ones((16, 64))


def reference_kernel_s() -> float:
    """Seconds taken by one run of a fixed kernel of the engine's kind:
    60 small matmuls and elementwise ops under Python control, about 0.5 ms.

    On a shared host the same answer takes 7 ms or 12 ms depending on what
    the neighbours do, in spells of seconds to minutes. The kernel, run
    right after each operation, slows down with it, so an operation's time
    divided by the kernel's time is steady from run to run. The kernel is
    part of the benchmark, never of the program, so only program changes
    move that ratio.
    """
    t0 = time.perf_counter()
    x = _REF_X
    for _ in range(60):
        x = np.tanh(x @ _REF_W)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_backbone_checked(path: str = reference.CHECKPOINT) -> tuple[bb.BackboneParams, str]:
    """Load the decode checkpoint; refuse it unless its SHA-256 is the one
    recorded in the manifest."""
    expected = reference.load_manifest()["checkpoint_sha256"]
    sha = checkpoint.file_sha256(path)
    if sha != expected:
        raise CheckFailedError(f"checkpoint {path} has SHA-256 {sha}, expected {expected}")
    return bb.load_backbone(path), sha


def decode_pool(spec: DecodeSpec) -> list[corpus.Example]:
    return corpus.gen_arithmetic(spec.pool_seed, spec.pool_size, spec.max_operand,
                                 spec.block_size)


@dataclass
class DecodeInputs:
    params: bb.BackboneParams
    examples: list
    ref_ids: list
    checkpoint_sha256: str


def setup_decode(spec: DecodeSpec, seed: int) -> DecodeInputs:
    params, sha = load_backbone_checked()
    with open(reference.REFERENCES, encoding="utf-8") as f:
        refs = json.load(f)[spec.name]
    pool = decode_pool(spec)
    if refs["checkpoint_sha256"] != sha or [ex.question for ex in pool] != refs["questions"]:
        raise CheckFailedError(f"{spec.name}: references were recorded for other inputs")
    order = np.random.default_rng(seed).permutation(len(pool))
    return DecodeInputs(params, [pool[i] for i in order],
                        [np.asarray(refs["response_ids"][i]) for i in order], sha)


@dataclass
class TrainInputs:
    teacher: bb.BackboneParams
    examples: list
    eval_examples: list
    checkpoint_sha256: str


def train_steps(spec: TrainSpec, seconds: float) -> tuple[int, int]:
    """Pretraining and distillation step counts for a run of ``seconds``."""
    return (max(1, int(spec.pretrain_steps_per_s * seconds)),
            max(1, int(spec.distill_steps_per_s * seconds)))


def setup_train(spec: TrainSpec, seed: int, seconds: float) -> TrainInputs:
    """One epoch's worth of 2- and 3-digit examples for the longer phase,
    and the fixed eval set."""
    teacher, sha = load_backbone_checked()
    half = (max(train_steps(spec, seconds)) * spec.batch_size + 1) // 2
    rng = np.random.default_rng(seed)
    s2, s3 = (int(v) for v in rng.integers(0, 2**31, size=2))
    examples = corpus.gen_arithmetic(s2, half, 99) + corpus.gen_arithmetic(s3, half, 999)
    examples = [examples[i] for i in rng.permutation(len(examples))]
    return TrainInputs(teacher, examples,
                       corpus.gen_arithmetic(spec.eval_seed, spec.eval_examples, 999), sha)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


@dataclass
class DecodeCounts:
    """The duck-typed ``stats`` that ``denoise_block_baseline`` fills in."""

    backbone_forwards: int = 0
    tokens_generated: int = 0
    block_steps: dict = field(default_factory=dict)
    backfilled: int = 0


def decode_answer(params, ex, spec: DecodeSpec):
    """Decode one prompt to completion, block by block."""
    x = diffusion.state_from_example(ex, spec.block_size)
    stats = DecodeCounts()
    while x.current_block < x.n_blocks:
        diffusion.denoise_block_baseline(params, x, spec.policy, stats=stats)
        stats.backfilled += diffusion.finalize_block(x)
    return x, stats


def check_answer(x, stats: DecodeCounts, ref_ids: np.ndarray, spec: DecodeSpec):
    """Return (problems, matching response ids) for one decoded answer."""
    problems = []
    try:
        x.validate()
    except MrpdiffError as e:
        problems.append(f"invalid state: {e}")
    if x.mask_count():
        problems.append(f"{x.mask_count()} positions left masked")
    per_block = math.ceil(spec.block_size / spec.policy.r) if spec.policy.kind == "static" else None
    for block, steps in stats.block_steps.items():
        if steps > spec.block_size or (per_block is not None and steps != per_block):
            problems.append(f"block {block} took {steps} forwards")
    resp = x.ids[x.prompt_len:]
    if stats.tokens_generated + stats.backfilled != len(resp):
        problems.append("committed plus backfilled positions do not cover the response")
    matches = int(np.sum(resp == ref_ids)) if len(resp) == len(ref_ids) else 0
    if matches != len(ref_ids):
        problems.append("response differs from the recorded reference")
    return problems, matches


@dataclass
class DecodeRun:
    answer_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    tokens: int = 0
    forwards: int = 0
    backfilled: int = 0
    ref_positions: int = 0
    matches: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.answer_s)


def warm_up(spec: DecodeSpec, inputs: DecodeInputs) -> None:
    """Decode a few answers untimed, so lazy set-up (mask caches, BLAS
    buffers) is done before the clock starts."""
    for ex in inputs.examples[: spec.warmup]:
        decode_answer(inputs.params, ex, spec)


def run_decode(spec: DecodeSpec, inputs: DecodeInputs, seconds: float | None,
               count: int | None = None, tracer=None, calibrate: bool = False) -> DecodeRun:
    """Decode inputs in order until ``seconds`` pass (or ``count`` answers
    are done), timing each answer and checking it outside the timed part.
    With ``calibrate`` the reference kernel is timed after every answer."""
    n = len(inputs.examples)
    run = DecodeRun()
    t_start = time.perf_counter()
    t_end = t_start + seconds if seconds is not None else math.inf
    i = 0
    # at least one answer, however short the budget
    while i == 0 or ((i < count) if count is not None else (time.perf_counter() < t_end)):
        k = i % n
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        x, stats = decode_answer(inputs.params, inputs.examples[k], spec)
        run.answer_s.append(time.perf_counter() - t0)
        if calibrate:
            run.ref_s.append(reference_kernel_s())
        problems, matches = check_answer(x, stats, inputs.ref_ids[k], spec)
        run.tokens += stats.tokens_generated
        run.forwards += stats.backbone_forwards
        run.backfilled += stats.backfilled
        run.ref_positions += len(inputs.ref_ids[k])
        run.matches += matches
        if problems:
            run.failed += 1
            run.problems.append(f"answer {k} ({inputs.examples[k].question}): "
                                + "; ".join(problems))
        i += 1
    run.wall_s = time.perf_counter() - t_start
    return run


def decode_metrics(run: DecodeRun) -> dict:
    """The named decode metrics; with reference timings also each
    answer's cost in reference-kernel units."""
    ms = np.asarray(run.answer_s) * 1e3
    out = {}
    if run.ref_s:
        cost = np.asarray(run.answer_s) / np.asarray(run.ref_s)
        out = {"answer_cost_p50": float(np.percentile(cost, 50)),
               "answer_cost_p90": float(np.percentile(cost, 90)),
               "tokens_per_ref": run.tokens / float(np.sum(cost))}
    return out | {
        "answer_ms_p50": float(np.percentile(ms, 50)),
        "answer_ms_p90": float(np.percentile(ms, 90)),
        "tokens_per_s": run.tokens / float(np.sum(run.answer_s)),
        "token_match": run.matches / run.ref_positions,
        "forwards_per_token": run.forwards / run.tokens,
        "backfilled_per_answer": run.backfilled / run.attempted,
    }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@dataclass
class TrainRun:
    pretrain_step_s: list = field(default_factory=list)
    distill_step_s: list = field(default_factory=list)
    pretrain_ref_s: list = field(default_factory=list)
    distill_ref_s: list = field(default_factory=list)
    pretrain_losses: list = field(default_factory=list)
    distill_losses: list = field(default_factory=list)
    planned_steps: int = 0
    batch_size: int = 16
    failed: int = 0
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    backbone: object = None
    head: object = None

    @property
    def attempted(self) -> int:
        return self.planned_steps


def _step_seconds(log_rows: list, ref_s: dict) -> tuple[list, list]:
    """Per-step wall times from a training loop's cumulative log, less the
    reference kernel run inside the step, and each step's kernel time."""
    walls = np.diff([0.0] + [row["wall_seconds"] for row in log_rows])
    if not ref_s:
        return list(walls), []
    # a step that skipped its update ran no kernel; give it the median
    fill = float(np.median(list(ref_s.values())))
    refs = [ref_s.get(k, 0.0) for k in range(len(walls))]
    return [w - r for w, r in zip(walls, refs)], [r or fill for r in refs]


def run_train(spec: TrainSpec, inputs: TrainInputs, seed: int, seconds: float,
              tracer=None, calibrate: bool = False) -> TrainRun:
    """Pretrain a fresh default backbone, then distill a head against the
    decode checkpoint; per-step times come from the loops' own logs.

    With ``calibrate`` the reference kernel runs after every optimizer
    update, inside the step; its time is taken out of the step's time.
    """
    pre_steps, dist_steps = train_steps(spec, seconds)
    common = dict(batch_size=spec.batch_size, peak_lr=spec.peak_lr, seed=seed, log_every=1)
    pre_cfg = training.TrainConfig(max_steps=pre_steps, **common)
    dist_cfg = training.TrainConfig(max_steps=dist_steps, **common)
    g_cfg = mrp_mod.MrpConfig(unroll=spec.unroll)
    run = TrainRun(planned_steps=pre_cfg.max_steps + dist_cfg.max_steps,
                   batch_size=spec.batch_size)
    if tracer is not None:
        tracer.op_id = 0
    t_start = time.perf_counter()
    pre_log, dist_log = [], []
    pre_ref, dist_ref = {}, {}
    log, ref = pre_log, pre_ref

    def after_update(_tracer, _idx, _args, _out):
        ref[len(log)] = reference_kernel_s()

    sites = [(training, "adamw_step", None, after_update)] if calibrate else []
    # A diverging loss raises DivergenceError, which ends the run with its
    # exit code: no metric of a diverged run means anything.
    with patched(None, sites):
        run.backbone = training.train_backbone(inputs.examples, pre_cfg, bb.BackboneConfig(),
                                               log_rows=pre_log)
        log, ref = dist_log, dist_ref
        run.head = training.train_mrp(inputs.examples, inputs.teacher, dist_cfg, g_cfg,
                                      log_rows=dist_log)
    run.wall_s = time.perf_counter() - t_start
    run.pretrain_step_s, run.pretrain_ref_s = _step_seconds(pre_log, pre_ref)
    run.distill_step_s, run.distill_ref_s = _step_seconds(dist_log, dist_ref)
    run.pretrain_losses = [row["loss"] for row in pre_log]
    run.distill_losses = [row["loss"] for row in dist_log]
    finite = sum(math.isfinite(v) for v in run.pretrain_losses + run.distill_losses)
    run.failed = run.planned_steps - finite
    if run.failed and not run.problems:
        run.problems.append(f"{run.failed} steps have no finite loss")
    return run


def evaluate_train(spec: TrainSpec, inputs: TrainInputs, run: TrainRun) -> dict:
    """Losses and top-1 agreement of the trained models on a fixed eval set.

    Pretraining: masked cross-entropy at a fixed masking rate, and argmax
    agreement with the ground truth. Distillation: the unrolled KD loss, and
    argmax agreement of the corrected logits with the teacher one reveal
    step later.
    """
    rng = np.random.default_rng(spec.eval_seed)
    dist_cfg = training.TrainConfig()
    ce, pre_hit, pre_n, kd, dist_hit, dist_n = [], 0, 0, [], 0, 0
    with no_grad():
        for ex in inputs.eval_examples:
            x0 = diffusion.state_from_example(ex, bb.BackboneConfig().block_size,
                                              all_masked=False)
            xt = diffusion.corrupt(x0, rng, rate=spec.eval_rate)
            if not xt.masked.any():
                continue
            _, logits = bb.forward(xt, run.backbone)
            ce.append(training.masked_cross_entropy(logits, xt, x0.ids).item())
            rows = np.flatnonzero(xt.masked)
            pre_hit += int(np.sum(logits.data[rows].argmax(-1) == x0.ids[rows]))
            pre_n += len(rows)

            h, base = bb.forward(xt, inputs.teacher)
            x1 = training.reveal_ground_truth(xt, x0, run.head.config.reveal_k)
            rows = np.flatnonzero(x1.masked)
            if len(rows):
                _, teacher = bb.forward(x1, inputs.teacher)
                _, delta = mrp_mod.mrp_forward(x1, h, run.head, inputs.teacher)
                student = base.data[rows] + delta.data[rows]
                dist_hit += int(np.sum(student.argmax(-1) == teacher.data[rows].argmax(-1)))
                dist_n += len(rows)
            loss, _ = training.kd_sequence_loss(x0, inputs.teacher, run.head, dist_cfg, rng)
            if loss is not None:
                kd.append(loss.item())
    out = {
        "pretrain_loss_final": float(np.mean(ce)),
        "distill_kd_loss_final": float(np.mean(kd)),
        "pretrain_token_match": pre_hit / pre_n,
        "distill_token_match": dist_hit / dist_n,
        "token_match": (pre_hit + dist_hit) / (pre_n + dist_n),
    }
    bad = [k for k, v in out.items() if not math.isfinite(v)]
    if bad:
        run.failed += 1
        run.problems.append(f"non-finite eval values: {bad}")
    return out


def train_metrics(run: TrainRun) -> dict:
    """The named training metrics; with reference timings also each
    step's cost in reference-kernel units, over both phases."""
    pre_ms = np.asarray(run.pretrain_step_s) * 1e3
    dist_ms = np.asarray(run.distill_step_s) * 1e3
    both = np.concatenate([pre_ms, dist_ms])
    b = run.batch_size
    out = {}
    if run.pretrain_ref_s:
        cost = both / 1e3 / np.asarray(run.pretrain_ref_s + run.distill_ref_s)
        out = {"step_cost_p50": float(np.percentile(cost, 50)),
               "step_cost_p90": float(np.percentile(cost, 90)),
               "samples_per_ref": len(both) * b / float(np.sum(cost))}
    return out | {
        "step_ms_p50": float(np.percentile(both, 50)),
        "step_ms_p90": float(np.percentile(both, 90)),
        "samples_per_s": len(both) * b / float(np.sum(both) / 1e3),
        "pretrain_samples_per_s": len(pre_ms) * b / float(np.sum(pre_ms) / 1e3),
        "pretrain_step_ms_p90": float(np.percentile(pre_ms, 90)),
        "distill_samples_per_s": len(dist_ms) * b / float(np.sum(dist_ms) / 1e3),
        "distill_step_ms_p90": float(np.percentile(dist_ms, 90)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
