"""Print SHA-256 digests of what mrpdiff decodes and trains, as one JSON line.

    python3 tools/bit_digest.py --answers 300 --steps 12 --seed 11

A change that claims "every output bit-identical" prints the same line as
its parent. The inputs are the benchmark's (``perfbench/workloads.py``,
only read):

* per decode workload, the first ``--answers`` answers of the workload's
  shuffled prompt pool at ``--seed``: a digest of their response ids, and
  one of every trace record (kind, block, ids, h, logits, revealed
  positions and tokens). ``trace_file`` digests the same fields of each
  answer's trace after ``save_trace`` and ``load_trace`` in a temporary
  directory (h and logits at float32), so it is equal across a change of
  the trace file's layout only if the loaded records are. ``matches``
  counts the answers equal to the ids recorded in
  ``perfbench/data/references.json``.
* ``train``: ``--steps``-step ``train_backbone`` and ``train_mrp`` runs on
  ``setup_train``'s examples with the benchmark's batch, learning rate and
  unroll: a digest of each log without wall time, and one of each final
  parameter set's named tensors. Each log's last loss is printed as a float
  beside its digest (``backbone_last_loss``, ``mrp_last_loss``), so a change
  at rounding level can be sized as well as detected. The distilled
  head's ``mrp_depth`` and ``mrp_unroll`` name the head the ``mrp_*``
  digests hashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import bootstrap  # noqa: E402

bootstrap.setup()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mrpdiff import backbone as bb  # noqa: E402
from mrpdiff import diffusion, training  # noqa: E402
from mrpdiff import mrp as mrp_mod  # noqa: E402

# the benchmark's run length, which sizes setup_train's example set
_SECONDS = 36.0


def _update(h, *arrays) -> None:
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _update_records(h, records) -> None:
    for r in records:
        h.update(f"{r.kind}:{r.block}".encode())
        _update(h, r.ids, r.h, r.logits, r.revealed_positions, r.revealed_tokens)


def decode_digest(spec, answers: int, seed: int, scratch: str) -> dict:
    inputs = workloads.setup_decode(spec, seed)
    ids_hash, trace_hash, file_hash = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    records = matches = 0
    path = os.path.join(scratch, "trace.mrpc")
    for ex, ref in zip(inputs.examples[:answers], inputs.ref_ids):
        x = diffusion.state_from_example(ex, spec.block_size)
        trace = diffusion.DecodeTrace(spec.block_size, x.prompt_len)
        while x.current_block < x.n_blocks:
            diffusion.denoise_block_baseline(inputs.params, x, spec.policy, trace=trace)
            diffusion.finalize_block(x)
        response = x.ids[x.prompt_len:]
        _update(ids_hash, response)
        matches += np.array_equal(response, ref)
        _update_records(trace_hash, trace.records)
        records += len(trace.records)
        diffusion.save_trace(path, trace)
        loaded = diffusion.load_trace(path)
        file_hash.update(f"{loaded.block_size}:{loaded.prompt_len}".encode())
        _update_records(file_hash, loaded.records)
    return {"answers": min(answers, len(inputs.examples)), "matches": matches,
            "records": records, "ids": ids_hash.hexdigest(), "trace": trace_hash.hexdigest(),
            "trace_file": file_hash.hexdigest()}


def _log_digest(rows: list) -> str:
    rows = [{k: v for k, v in row.items() if k != "wall_seconds"} for row in rows]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def _params_digest(params) -> str:
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(name.encode())
        _update(h, t.data)
    return h.hexdigest()


def train_digest(steps: int, seed: int) -> dict:
    spec = workloads.TRAIN
    inputs = workloads.setup_train(spec, seed, _SECONDS)
    cfg = training.TrainConfig(max_steps=steps, batch_size=spec.batch_size,
                               peak_lr=spec.peak_lr, seed=seed, log_every=1)
    pre_log, dist_log = [], []
    backbone = training.train_backbone(inputs.examples, cfg, bb.BackboneConfig(),
                                       log_rows=pre_log)
    head = training.train_mrp(inputs.examples, inputs.teacher, cfg,
                              mrp_mod.MrpConfig(unroll=spec.unroll), log_rows=dist_log)
    return {"steps": steps,
            "backbone_log": _log_digest(pre_log), "backbone_params": _params_digest(backbone),
            "backbone_last_loss": pre_log[-1]["loss"],
            "mrp_log": _log_digest(dist_log), "mrp_params": _params_digest(head),
            "mrp_last_loss": dist_log[-1]["loss"],
            "mrp_depth": head.config.depth, "mrp_unroll": head.config.unroll}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--answers", type=int, default=300, help="answers per decode workload")
    ap.add_argument("--steps", type=int, default=12, help="optimizer steps per trainer")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        out = {name: decode_digest(spec, args.answers, args.seed, scratch)
               for name, spec in workloads.DECODE.items()}
    out[workloads.TRAIN.name] = train_digest(args.steps, args.seed)
    print(json.dumps({"seed": args.seed, **out}, sort_keys=True))


if __name__ == "__main__":
    main()
