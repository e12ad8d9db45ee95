"""Smoke test of tools/bit_digest.py on tiny inputs, so the tool cannot rot."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bit_digest.py"


def test_bit_digest_prints_one_line_of_digests():
    run = subprocess.run([sys.executable, str(TOOL), "--answers", "2", "--steps", "1"],
                         capture_output=True, text=True, check=True, timeout=120)
    (line,) = run.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"seed", "decode-static-b8", "decode-dynamic-b4", "train"}
    for name in ("decode-static-b8", "decode-dynamic-b4"):
        decode = out[name]
        # both answers are the ones the benchmark recorded, each of >= 1 step
        assert decode["answers"] == decode["matches"] == 2 and decode["records"] >= 2
        assert all(len(decode[k]) == 64 for k in ("ids", "trace", "trace_file"))
        # the records after a save and load differ from the decoded ones:
        # their h and logits are float32
        assert decode["trace_file"] != decode["trace"]
    train = out["train"]
    assert train["steps"] == 1
    digests = [train[k] for k in ("backbone_log", "backbone_params", "mrp_log", "mrp_params")]
    assert all(len(d) == 64 for d in digests) and len(set(digests)) == 4
    # each log's last loss, as a float, beside its digest
    for key in ("backbone_last_loss", "mrp_last_loss"):
        assert isinstance(train[key], float) and train[key] > 0
    # the head the mrp_* digests hashed: the default depth, the benchmark's unroll
    assert (train["mrp_depth"], train["mrp_unroll"]) == (1, 2)
