"""Where the traced run hooks into each layer, and the per-layer metrics.

The layers are mrpdiff's modules: ``corpus``, ``checkpoint``,
``numerics.tensor``, ``numerics.optim``, ``backbone``, ``mrp``, ``diffusion``
and ``training``. Each site is patched where its caller looks the name up.
Per-layer times and counts are divided by the workload's unit of work: one
answer for the decode workloads, one training sample (pretraining and
distillation samples together) for ``train``. Set-up metrics are per set-up.
"""

from __future__ import annotations

import os
import time

import numpy as np

from mrpdiff import backbone, checkpoint, corpus, diffusion, training
from mrpdiff import mrp
from mrpdiff.numerics import tensor
from tracer import Tracer, span_totals

LAYOUT_OPS = ("reshape", "transpose", "slice_last", "slice_rows", "concat_last")


def _count_node(tr: Tracer, idx, args, out):
    if out._parents:
        tr.count("tensor.nodes_recorded")


def _count_flops(tr: Tracer, idx, args, out):
    a = args[0]
    k = np.shape(getattr(a, "data", a))[-1]
    tr.count("tensor.matmul.flops", 2 * out.data.size * k)


def _classify_forward(tr: Tracer, idx, args, out):
    h, logits = out
    tr.count("backbone.forward.rows", h.shape[0])
    if getattr(logits, "_parents", ()):
        tr.name[idx] = tr.name_id("backbone.forward.grad")


def _note_mask_key(tr: Tracer, idx, args, out):
    tr.mask_keys.add(tuple(int(v) for v in args[:3]))


def _count_backfill(tr: Tracer, idx, args, out):
    tr.count("diffusion.finalize_block.backfilled", out)


def _count_bytes(tr: Tracer, idx, args, out):
    tr.count("checkpoint.bytes_read", os.path.getsize(args[0]))


def _next_step(tr: Tracer, idx, args, out):
    # every training step ends in exactly one optimizer update
    tr.op_id += 1


SETUP_SITES = [
    (checkpoint, "load_tensors", "checkpoint.load_tensors", _count_bytes),
    (corpus, "gen_arithmetic", "corpus.gen_arithmetic", None),
]

RUN_SITES = [
    (tensor, "_make", None, _count_node),
    (tensor, "matmul", "tensor.matmul", _count_flops),
    (tensor, "softmax_rows", "tensor.softmax_rows", None),
    (tensor, "rmsnorm", "tensor.rmsnorm", None),
    (tensor, "silu", "tensor.silu", None),
    *[(tensor, op, "tensor.layout", None) for op in LAYOUT_OPS],
    (training, "backward", "tensor.backward", None),
    (training, "adamw_step", "optim.adamw_step", _next_step),
    (backbone, "forward", "backbone.forward.nograd", _classify_forward),
    (backbone, "transformer_layer", "backbone.layer", None),
    (backbone, "input_embedding", "backbone.input_embedding", None),
    (mrp, "input_embedding", "backbone.input_embedding", None),
    (backbone, "additive_mask", "backbone.additive_mask", _note_mask_key),
    (mrp, "additive_mask", "backbone.additive_mask", _note_mask_key),
    (mrp, "mrp_forward", "mrp.forward", None),
    (mrp, "transformer_layer", "mrp.layer", None),
    (diffusion, "denoise_block_baseline", "diffusion.denoise_block", None),
    (diffusion, "confidence_of", "diffusion.confidence_of", None),
    (diffusion.Policy, "select", "diffusion.select", None),
    (diffusion, "reveal", "diffusion.reveal", None),
    (diffusion, "finalize_block", "diffusion.finalize_block", _count_backfill),
    (diffusion, "corrupt", "diffusion.corrupt", None),
    (training, "corrupt", "diffusion.corrupt", None),
    (training, "kd_sequence_loss", "training.kd_sequence_loss", None),
    (training, "masked_cross_entropy", "training.masked_cross_entropy", None),
    (training, "reveal_ground_truth", "training.reveal_ground_truth", None),
    (training, "mrp_train_step", "training.mrp_train_step", None),
    (training, "train_backbone", "training.train_backbone", None),
    (training, "train_mrp", "training.train_mrp", None),
]

# (metric, unit, better); the order is the table's order.
PER_LAYER = [
    ("tensor.matmul.calls", "calls/op", "lower"),
    ("tensor.matmul.self_ms", "ms/op", "lower"),
    ("tensor.matmul.flops", "flop/op", "lower"),
    ("tensor.softmax_rows.self_ms", "ms/op", "lower"),
    ("tensor.rmsnorm.self_ms", "ms/op", "lower"),
    ("tensor.silu.self_ms", "ms/op", "lower"),
    ("tensor.layout.calls", "calls/op", "lower"),
    ("tensor.layout.self_ms", "ms/op", "lower"),
    ("tensor.nodes_recorded", "nodes/op", "lower"),
    ("tensor.backward.calls", "calls/op", "lower"),
    ("tensor.backward.ms", "ms/op", "lower"),
    ("optim.adamw_step.ms", "ms/op", "lower"),
    ("backbone.forward.calls", "calls/op", "lower"),
    ("backbone.forward.rows", "rows/op", "lower"),
    ("backbone.forward.grad_ms", "ms/op", "lower"),
    ("backbone.forward.nograd_ms", "ms/op", "lower"),
    ("backbone.layer.self_ms", "ms/op", "lower"),
    ("backbone.input_embedding.ms", "ms/op", "lower"),
    ("backbone.additive_mask.calls", "calls/op", "lower"),
    ("backbone.additive_mask.distinct_keys", "keys", "lower"),
    ("mrp.forward.calls", "calls/op", "lower"),
    ("mrp.forward.ms", "ms/op", "lower"),
    ("mrp.layer.self_ms", "ms/op", "lower"),
    ("mrp.head_to_backbone_ratio", "ratio", "lower"),
    ("diffusion.forwards_per_token", "fwd/token", "lower"),
    ("diffusion.confidence_of.ms", "ms/op", "lower"),
    ("diffusion.select.ms", "ms/op", "lower"),
    ("diffusion.reveal.ms", "ms/op", "lower"),
    ("diffusion.denoise_block_self.ms", "ms/op", "lower"),
    ("diffusion.finalize_block.backfilled", "pos/op", "higher"),
    ("diffusion.corrupt.ms", "ms/op", "lower"),
    ("training.kd_sequence_loss.ms", "ms/op", "lower"),
    ("training.masked_cross_entropy.ms", "ms/op", "lower"),
    ("training.reveal_ground_truth.ms", "ms/op", "lower"),
    ("training.mrp_train_step.ms", "ms/op", "lower"),
    ("training.teacher_forwards_per_sample", "fwd/sample", "lower"),
    ("checkpoint.load_tensors.ms", "ms/setup", "lower"),
    ("checkpoint.bytes_read", "bytes/setup", "lower"),
    ("corpus.gen_arithmetic.ms", "ms/setup", "lower"),
]

# Self times are taken for these spans; the rest report inclusive time.
SELF_TIMED = {
    "tensor.matmul.self_ms": "tensor.matmul",
    "tensor.softmax_rows.self_ms": "tensor.softmax_rows",
    "tensor.rmsnorm.self_ms": "tensor.rmsnorm",
    "tensor.silu.self_ms": "tensor.silu",
    "tensor.layout.self_ms": "tensor.layout",
    "backbone.layer.self_ms": "backbone.layer",
    "mrp.layer.self_ms": "mrp.layer",
    "diffusion.denoise_block_self.ms": "diffusion.denoise_block",
}
INCLUSIVE = {
    "tensor.backward.ms": "tensor.backward",
    "optim.adamw_step.ms": "optim.adamw_step",
    "backbone.forward.grad_ms": "backbone.forward.grad",
    "backbone.forward.nograd_ms": "backbone.forward.nograd",
    "backbone.input_embedding.ms": "backbone.input_embedding",
    "mrp.forward.ms": "mrp.forward",
    "diffusion.confidence_of.ms": "diffusion.confidence_of",
    "diffusion.select.ms": "diffusion.select",
    "diffusion.reveal.ms": "diffusion.reveal",
    "diffusion.corrupt.ms": "diffusion.corrupt",
    "training.kd_sequence_loss.ms": "training.kd_sequence_loss",
    "training.masked_cross_entropy.ms": "training.masked_cross_entropy",
    "training.reveal_ground_truth.ms": "training.reveal_ground_truth",
    "training.mrp_train_step.ms": "training.mrp_train_step",
}
CALLS = {
    "tensor.matmul.calls": ("tensor.matmul",),
    "tensor.layout.calls": ("tensor.layout",),
    "tensor.backward.calls": ("tensor.backward",),
    "backbone.forward.calls": ("backbone.forward.grad", "backbone.forward.nograd"),
    "backbone.additive_mask.calls": ("backbone.additive_mask",),
    "mrp.forward.calls": ("mrp.forward",),
}
COUNTERS = ("tensor.matmul.flops", "tensor.nodes_recorded", "backbone.forward.rows",
            "diffusion.finalize_block.backfilled")


class Totals:
    """Per-name calls, inclusive and self seconds of one tracer's spans."""

    def __init__(self, tr: Tracer):
        a = tr.arrays()
        self.tracer = tr
        self.spans = a
        self.calls, self.incl, self.self_t, self.covered = span_totals(
            a["name"], a["start"], a["end"], a["parent"], len(tr.names))

    def _get(self, arr, name: str) -> float:
        nid = self.tracer.ids.get(name)
        return float(arr[nid]) if nid is not None else 0.0

    def calls_of(self, name: str) -> float:
        return self._get(self.calls, name)

    def incl_s(self, name: str) -> float:
        return self._get(self.incl, name)

    def self_s(self, name: str) -> float:
        return self._get(self.self_t, name)

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        ids = self.tracer.ids
        if child not in ids or parent not in ids:
            return 0
        name, par = self.spans["name"], self.spans["parent"]
        sel = (name == ids[child]) & (par >= 0)
        return int(np.sum(name[par[sel]] == ids[parent]))


def head_to_backbone_ratio(params, x, reps: int = 30) -> float:
    """Mean taped ``mrp_forward`` time over mean taped ``backbone.forward``
    time on the same state, for a default-depth head."""
    head = mrp.init_mrp(mrp.MrpConfig(), params.config, np.random.default_rng(0))
    h, _ = backbone.forward(x, params)
    bb_s = head_s = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        backbone.forward(x, params)
        t1 = time.perf_counter()
        mrp.mrp_forward(x, h, head, params)
        t2 = time.perf_counter()
        bb_s += t1 - t0
        head_s += t2 - t1
    return head_s / bb_s


def per_layer_metrics(run: Totals, units: int, setup: Totals, setups: int, *,
                      ratio: float, forwards_per_token: float) -> dict:
    """Every PER_LAYER metric, per unit of work (or per set-up)."""
    c = run.tracer.counters
    out = {}
    for metric, name in SELF_TIMED.items():
        out[metric] = run.self_s(name) * 1e3 / units
    for metric, name in INCLUSIVE.items():
        out[metric] = run.incl_s(name) * 1e3 / units
    for metric, names in CALLS.items():
        out[metric] = sum(run.calls_of(n) for n in names) / units
    for key in COUNTERS:
        out[key] = c.get(key, 0) / units
    out["backbone.additive_mask.distinct_keys"] = float(len(run.tracer.mask_keys))
    out["mrp.head_to_backbone_ratio"] = ratio
    out["diffusion.forwards_per_token"] = forwards_per_token
    kd_calls = run.calls_of("training.kd_sequence_loss")
    teacher = run.child_calls("backbone.forward.nograd", "training.kd_sequence_loss")
    out["training.teacher_forwards_per_sample"] = teacher / kd_calls if kd_calls else 0.0
    out["checkpoint.load_tensors.ms"] = setup.incl_s("checkpoint.load_tensors") * 1e3 / setups
    out["checkpoint.bytes_read"] = setup.tracer.counters.get("checkpoint.bytes_read", 0) / setups
    out["corpus.gen_arithmetic.ms"] = setup.incl_s("corpus.gen_arithmetic") * 1e3 / setups
    return {metric: out[metric] for metric, _, _ in PER_LAYER}
