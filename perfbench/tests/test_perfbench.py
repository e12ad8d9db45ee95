"""The benchmark's own tests: smoke runs, self time, wrapper restoration.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import layers
import run as bench
import workloads
from tracer import Tracer, patched, span_totals

TINY_TRAIN = workloads.TrainSpec(pretrain_steps_per_s=2.0, distill_steps_per_s=1.0,
                                 eval_examples=4)


def _site_state():
    return [vars(owner)[attr] for owner, attr, _, _ in layers.SETUP_SITES + layers.RUN_SITES]


@pytest.mark.parametrize("name", list(workloads.DECODE))
def test_decode_smoke(name):
    spec = workloads.DECODE[name]
    inputs = workloads.setup_decode(spec, seed=3)
    run = workloads.run_decode(spec, inputs, None, count=3, calibrate=True)
    assert run.attempted == 3 and run.failed == 0, run.problems
    assert len(run.ref_s) == 3
    m = workloads.decode_metrics(run)
    assert m["token_match"] == 1.0 and m["tokens_per_s"] > 0
    assert 0 < m["answer_cost_p50"] <= m["answer_cost_p90"] and m["tokens_per_ref"] > 0


def test_decode_check_flags_a_wrong_answer():
    spec = workloads.DECODE["decode-static-b8"]
    inputs = workloads.setup_decode(spec, seed=0)
    x, stats = workloads.decode_answer(inputs.params, inputs.examples[0], spec)
    wrong = inputs.ref_ids[0].copy()
    wrong[0] = (wrong[0] + 1) % 44
    problems, matches = workloads.check_answer(x, stats, wrong, spec)
    assert matches == len(wrong) - 1
    assert any("reference" in p for p in problems)


def test_train_smoke():
    inputs = workloads.setup_train(TINY_TRAIN, seed=3, seconds=1.0)
    before = _site_state()
    run = workloads.run_train(TINY_TRAIN, inputs, seed=3, seconds=1.0, calibrate=True)
    assert _site_state() == before
    assert run.attempted == 3 and run.failed == 0, run.problems
    assert len(run.pretrain_ref_s) == 2 and len(run.distill_ref_s) == 1
    ev = workloads.evaluate_train(TINY_TRAIN, inputs, run)
    assert all(math.isfinite(v) for v in ev.values())
    m = workloads.train_metrics(run)
    assert m["pretrain_samples_per_s"] > 0 and m["distill_samples_per_s"] > 0
    assert 0 < m["step_cost_p50"] <= m["step_cost_p90"] and m["samples_per_ref"] > 0


def test_step_seconds_takes_out_the_kernel_and_fills_skipped_updates():
    rows = [{"wall_seconds": w} for w in (1.0, 3.0, 6.0)]
    steps, refs = workloads._step_seconds(rows, {0: 0.5, 2: 1.0})
    assert steps == [0.5, 2.0, 2.0]
    assert refs == [0.5, 0.75, 1.0]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_smoke_reports_every_metric_and_restores(name, monkeypatch):
    monkeypatch.setattr(workloads, "TRAIN", TINY_TRAIN)
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    before = _site_state()
    _, _, run, metrics, acct = bench.run_traced(name, seed=1, seconds=0.05)
    assert _site_state() == before
    assert run.failed == 0, run.problems
    assert list(metrics) == [m for m, _, _ in layers.PER_LAYER]
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["backbone.forward.calls"] > 0
    if name in workloads.DECODE:
        assert metrics["tensor.nodes_recorded"] == 0
    else:
        assert metrics["tensor.nodes_recorded"] > 0
        assert metrics["training.teacher_forwards_per_sample"] == TINY_TRAIN.unroll + 1
    # self times plus the untraced remainder account for the traced wall time
    assert acct["self_time_sum_s"] + acct["untraced_remainder_s"] == pytest.approx(
        acct["traced_wall_s"])


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8];
    # a second root d [12, 13] stands alone.
    names = ["root", "a", "b", "c", "d"]
    name = [0, 1, 2, 3, 4]
    start = [0.0, 1.0, 5.0, 6.0, 12.0]
    end = [10.0, 4.0, 9.0, 8.0, 13.0]
    parent = [-1, 0, 0, 2, -1]
    calls, incl, self_t, covered = span_totals(name, start, end, parent, len(names))
    assert list(calls) == [1, 1, 1, 1, 1]
    assert list(incl) == [10.0, 3.0, 4.0, 2.0, 1.0]
    assert list(self_t) == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert covered == 11.0 == sum(self_t)


def test_tracer_records_nesting_and_self_time():
    tr = Tracer()
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    i = tr.begin(outer)
    j = tr.begin(inner)
    tr.finish(j)
    tr.finish(i)
    a = tr.arrays()
    assert list(a["parent"]) == [-1, 0]
    calls, incl, self_t, covered = span_totals(a["name"], a["start"], a["end"], a["parent"], 2)
    assert self_t[outer] == pytest.approx(incl[outer] - incl[inner])


def test_wrappers_restored_when_workload_raises():
    before = _site_state()
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tr, layers.SETUP_SITES + layers.RUN_SITES):
            assert _site_state() != before
            raise RuntimeError("workload failed")
    assert _site_state() == before


def test_wrappers_restored_when_a_site_is_missing():
    before = _site_state()
    broken = layers.RUN_SITES[:3] + [(workloads, "no_such_function", "x", None)]
    with pytest.raises(KeyError):
        with patched(Tracer(), broken):
            pass
    assert _site_state() == before


def test_checkpoint_hash_mismatch_refused(tmp_path):
    from mrpdiff.errors import CheckFailedError
    import reference

    bad = tmp_path / "ckpt.mrpc"
    data = bytearray(open(reference.CHECKPOINT, "rb").read())
    data[-1] ^= 1
    bad.write_bytes(bytes(data))
    with pytest.raises(CheckFailedError):
        workloads.load_backbone_checked(str(bad))


def test_git_head_outside_a_checkout(tmp_path):
    assert bench.git_head(str(tmp_path)) == "unavailable"
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs\n" + "ab" * 20 + " refs/heads/main\n")
    assert bench.git_head(str(tmp_path)) == "ab" * 20


def test_head_ratio_is_positive():
    spec = workloads.DECODE["decode-static-b8"]
    inputs = workloads.setup_decode(spec, seed=0)
    from mrpdiff import diffusion

    x = diffusion.state_from_example(inputs.examples[0], spec.block_size)
    ratio = layers.head_to_backbone_ratio(inputs.params, x, reps=2)
    assert np.isfinite(ratio) and ratio > 0


def test_benchmark_json_matches_the_code():
    import json
    import os

    import bootstrap

    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.PER_LAYER


def test_untraced_smoke_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPS", 3)
    _, _, run, e2e, detail = bench.run_untraced("decode-dynamic-b4", seed=2, seconds=0.05)
    assert run.failed == 0, run.problems
    assert list(e2e) == [m for m, _, _ in bench.END_TO_END]
    assert all(v > 0 for v in e2e.values())
    assert detail["token_match"] == 1.0
