"""The benchmark's fixed inputs: the decode checkpoint and reference outputs.

``make_checkpoint`` trains the default ``BackboneConfig`` once from a fixed
seed and records the file's SHA-256 in ``data/manifest.json``.
``record_references`` decodes each decode workload's prompt pool with that
checkpoint and stores the response ids, which every later run must match.
"""

from __future__ import annotations

import json
import os
import time

from bootstrap import DATA_DIR

CHECKPOINT = os.path.join(DATA_DIR, "decode_backbone.mrpc")
MANIFEST = os.path.join(DATA_DIR, "manifest.json")
REFERENCES = os.path.join(DATA_DIR, "references.json")

# 2-digit and 3-digit problems in equal parts, so the one checkpoint serves
# both decode workloads.
CHECKPOINT_TRAIN = {
    "data_seed_2digit": 101,
    "data_seed_3digit": 103,
    "examples_per_size": 4000,
    "seed": 0,
    "epochs": 10,
    "batch_size": 16,
    "peak_lr": 3e-3,
    "min_lr": 1e-5,
    "weight_decay": 0.01,
    "max_steps": 5000,
}


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as f:
        return json.load(f)


def make_checkpoint() -> dict:
    """Train the decode backbone and write it with its manifest."""
    from mrpdiff import backbone as bb
    from mrpdiff import checkpoint, corpus, training

    c = CHECKPOINT_TRAIN
    examples = (corpus.gen_arithmetic(c["data_seed_2digit"], c["examples_per_size"], 99)
                + corpus.gen_arithmetic(c["data_seed_3digit"], c["examples_per_size"], 999))
    cfg = training.TrainConfig(
        epochs=c["epochs"], batch_size=c["batch_size"], peak_lr=c["peak_lr"],
        min_lr=c["min_lr"], weight_decay=c["weight_decay"], seed=c["seed"],
        max_steps=c["max_steps"], log_every=250,
    )
    log: list = []
    t0 = time.perf_counter()
    params = training.train_backbone(examples, cfg, bb.BackboneConfig(), log_rows=log)
    seconds = time.perf_counter() - t0
    os.makedirs(DATA_DIR, exist_ok=True)
    bb.save_backbone(CHECKPOINT, params)
    manifest = {
        "checkpoint": os.path.basename(CHECKPOINT),
        "checkpoint_sha256": checkpoint.file_sha256(CHECKPOINT),
        "backbone_config": "default BackboneConfig",
        "train": CHECKPOINT_TRAIN,
        "train_seconds": round(seconds, 1),
        "train_log": [{k: round(v, 5) if isinstance(v, float) else v for k, v in row.items()}
                      for row in log],
    }
    with open(MANIFEST, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    return manifest


def record_references() -> None:
    """Decode every prompt of each decode workload's pool with the checked
    checkpoint and store the response ids."""
    import workloads

    params, sha = workloads.load_backbone_checked()
    out = {}
    for spec in workloads.DECODE.values():
        pool = workloads.decode_pool(spec)
        out[spec.name] = {
            "checkpoint_sha256": sha,
            "questions": [ex.question for ex in pool],
            "response_ids": [
                workloads.decode_answer(params, ex, spec)[0].ids[len(ex.prompt_ids):].tolist()
                for ex in pool
            ],
        }
    with open(REFERENCES, "w", encoding="utf-8") as f:
        json.dump(out, f, separators=(",", ":"))
        f.write("\n")
