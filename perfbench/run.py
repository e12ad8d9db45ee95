"""Run one mrpdiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode-static-b8 --seed 1 --seconds 36 --trace 0

Workloads: ``decode-static-b8``, ``decode-dynamic-b4`` and ``train`` (see
``workloads.py``). With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer table from a traced run, the
tracing overhead against an untraced replay of the same work, and writes the
spans to ``.bench_out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The fixed inputs are made once with ``--make-checkpoint`` (trains the decode
checkpoint, about 5 minutes) and ``--record-references`` (decodes the prompt
pools with it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import bootstrap

# Modules that import numpy or mrpdiff are imported inside functions, after
# bootstrap.setup() has pinned the BLAS threads and found the sources.

SETUP_REPS = 9

# (metric, unit, better). An operation is one answer decoded to completion
# (decode workloads) or one optimizer step (train); items are committed
# tokens (decode) or training samples (train). Operation times are given in
# "ref", multiples of the reference kernel's time measured right after the
# operation (see workloads.reference_kernel_s); the same times in
# milliseconds are printed above the result.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op_cost_p50", "ref", "lower"),
    ("op_cost_p90", "ref", "lower"),
    ("items_per_ref", "1/ref", "higher"),
    ("token_match", "share", "higher"),
]

# Units of the per-workload detail printed above the result: the named
# metrics in raw ms and s, and the traced run's wall-time accounting.
DETAIL_UNITS = {
    "answer_cost_p50": "ref", "answer_cost_p90": "ref", "tokens_per_ref": "1/ref",
    "step_cost_p50": "ref", "step_cost_p90": "ref", "samples_per_ref": "1/ref",
    "answer_ms_p50": "ms", "answer_ms_p90": "ms", "tokens_per_s": "1/s",
    "token_match": "share", "forwards_per_token": "fwd/token", "backfilled_per_answer": "pos",
    "step_ms_p50": "ms", "step_ms_p90": "ms", "samples_per_s": "1/s",
    "pretrain_samples_per_s": "1/s", "pretrain_step_ms_p90": "ms",
    "distill_samples_per_s": "1/s", "distill_step_ms_p90": "ms",
    "pretrain_loss_final": "nats", "distill_kd_loss_final": "nats",
    "pretrain_token_match": "share", "distill_token_match": "share",
    "units": "ops", "traced_wall_s": "s", "untraced_wall_s": "s", "tracing_overhead_s": "s",
    "spans": "count", "self_time_sum_s": "s", "untraced_remainder_s": "s",
}


def git_head(root: str) -> str:
    """The commit checked out at ``root``, read from ``.git`` without
    running git; "unavailable" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return "unavailable"


def _setup(name: str, seed: int, seconds: float, reps: int, setup_tracer=None):
    """Make the workload's inputs ``reps`` times; return the last inputs and
    the set-up times."""
    import workloads
    from tracer import patched
    from layers import SETUP_SITES

    sites = SETUP_SITES if setup_tracer is not None else []
    times, inputs = [], None
    for _ in range(reps):
        inputs = None  # so that two sets of inputs never coexist in peak RSS
        t0 = time.perf_counter()
        with patched(setup_tracer, sites):
            if name in workloads.DECODE:
                inputs = workloads.setup_decode(workloads.DECODE[name], seed)
            else:
                inputs = workloads.setup_train(workloads.TRAIN, seed, seconds)
        times.append(time.perf_counter() - t0)
    return inputs, times


def run_untraced(name: str, seed: int, seconds: float):
    """End-to-end metrics, the per-workload detail and the run record."""
    import workloads

    # Set-up runs before and after the measured part: host speed drifts
    # within a run, and two samples of it a run apart steady the median.
    before = SETUP_REPS // 2 + 1
    inputs, setup_times = _setup(name, seed, seconds, before)
    if name in workloads.DECODE:
        spec = workloads.DECODE[name]
        workloads.warm_up(spec, inputs)
        run = workloads.run_decode(spec, inputs, seconds, calibrate=True)
        detail = workloads.decode_metrics(run)
        e2e = {"op_cost_p50": detail["answer_cost_p50"], "op_cost_p90": detail["answer_cost_p90"],
               "items_per_ref": detail["tokens_per_ref"], "token_match": detail["token_match"]}
    else:
        spec = workloads.TRAIN
        run = workloads.run_train(spec, inputs, seed, seconds, calibrate=True)
        detail = workloads.train_metrics(run)
        detail.update(workloads.evaluate_train(spec, inputs, run))
        e2e = {"op_cost_p50": detail["step_cost_p50"], "op_cost_p90": detail["step_cost_p90"],
               "items_per_ref": detail["samples_per_ref"], "token_match": detail["token_match"]}
    rss = workloads.peak_rss_mb()
    setup_times += _setup(name, seed, seconds, SETUP_REPS - before)[1]
    e2e = {"setup_s": statistics.median(setup_times), "peak_rss_mb": rss, **e2e}
    return spec, inputs, run, e2e, detail


def run_traced(name: str, seed: int, seconds: float):
    """Per-layer metrics from a traced run plus the tracing overhead.

    The traced part gets half of ``seconds``; an untraced replay of the same
    work gives the overhead, so the run as a whole takes about ``seconds``.
    """
    import numpy as np

    import layers
    import workloads
    from mrpdiff import diffusion
    from tracer import Tracer, patched

    setup_tr = Tracer()
    inputs, _ = _setup(name, seed, seconds, SETUP_REPS, setup_tr)
    tr = Tracer()
    seconds = seconds / 2
    if name in workloads.DECODE:
        spec = workloads.DECODE[name]
        workloads.warm_up(spec, inputs)
        with patched(tr, layers.RUN_SITES):
            run = workloads.run_decode(spec, inputs, seconds, tracer=tr)
        replay = workloads.run_decode(spec, inputs, None, count=run.attempted)
        units = run.attempted
        fwd_per_token = run.forwards / run.tokens
        probe = diffusion.state_from_example(inputs.examples[0], spec.block_size)
        params = inputs.params
    else:
        spec = workloads.TRAIN
        with patched(tr, layers.RUN_SITES):
            run = workloads.run_train(spec, inputs, seed, seconds, tracer=tr)
        replay = workloads.run_train(spec, inputs, seed, seconds)
        # the wrappers must not change the numbers, only time them
        losses = (run.pretrain_losses, run.distill_losses)
        if (replay.pretrain_losses, replay.distill_losses) != losses:
            run.failed += 1
            run.problems.append("traced and untraced training losses differ")
        units = (len(run.pretrain_step_s) + len(run.distill_step_s)) * spec.batch_size
        fwd_per_token = 0.0
        probe = diffusion.state_from_example(inputs.examples[0],
                                             inputs.teacher.config.block_size, all_masked=False)
        params = inputs.teacher
    totals = layers.Totals(tr)
    metrics = layers.per_layer_metrics(
        totals, units, layers.Totals(setup_tr), SETUP_REPS,
        ratio=layers.head_to_backbone_ratio(params, probe),
        forwards_per_token=fwd_per_token)
    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    tr.save(os.path.join(bootstrap.OUT_DIR, f"spans-{name}.npz"))
    accounting = {
        "units": units,
        "traced_wall_s": run.wall_s,
        "untraced_wall_s": replay.wall_s,
        "tracing_overhead_s": run.wall_s - replay.wall_s,
        "spans": len(tr),
        "self_time_sum_s": float(np.sum(totals.self_t)),
        "untraced_remainder_s": run.wall_s - totals.covered,
    }
    return spec, inputs, run, metrics, accounting


def stamp(name, seed, seconds, trace, spec, sha) -> dict:
    import dataclasses

    import numpy as np

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": dataclasses.asdict(spec), "git_head": git_head(bootstrap.ROOT),
        "checkpoint_sha256": sha, "numpy": np.__version__,
        "python": platform.python_version(), "blas_threads": bootstrap.BLAS_THREADS,
        "nproc": bootstrap.nproc(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-checkpoint", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)

    bootstrap.setup()
    import layers
    import reference
    import workloads
    from mrpdiff.errors import MrpdiffError

    if args.make_checkpoint or args.record_references:
        if args.make_checkpoint:
            print("checkpoint sha256:", reference.make_checkpoint()["checkpoint_sha256"])
        if args.record_references:
            reference.record_references()
            print("references written to", reference.REFERENCES)
        return 0
    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    try:
        if args.trace:
            spec, inputs, run, metrics, extra = run_traced(args.workload, args.seed, args.seconds)
            units = {m: u for m, u, _ in layers.PER_LAYER}
        else:
            spec, inputs, run, metrics, extra = run_untraced(args.workload, args.seed,
                                                             args.seconds)
            units = {m: u for m, u, _ in END_TO_END}
    except MrpdiffError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code

    info = stamp(args.workload, args.seed, args.seconds, args.trace, spec,
                 inputs.checkpoint_sha256)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print("stamp", json.dumps(info, sort_keys=True))
    print(f"operations attempted {run.attempted} succeeded {run.attempted - run.failed} "
          f"failed {run.failed}")
    for line in run.problems[:10]:
        print("problem", line)
    for key, value in extra.items():
        print(f"{key:40s} {value:14.6g} {DETAIL_UNITS[key]}")
    for m, v in metrics.items():
        print(f"{m:40s} {v:14.6g} {units[m]}")
    os.makedirs(bootstrap.OUT_DIR, exist_ok=True)
    out = os.path.join(bootstrap.OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}"
                                          f"{'_trace' if args.trace else ''}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"stamp": info, "result": result, "detail": extra,
                   "problems": run.problems}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
