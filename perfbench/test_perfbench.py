"""Tests of the benchmark harness itself.

Run with: python3 -m pytest perfbench/test_perfbench.py

Each workload runs once traced for a fraction of a second. The exact
counters are asserted at the values the package gives at the commit
that defined the benchmark; a change that moves one of them should
show up here first.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import run as harness
import tracing
from workloads import WORKLOADS

sys.path.insert(0, str(harness.SRC))
BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SNAPSHOT_BYTES = 36 + 8 * 64 * 64  # BPF1 header plus one 64x64 field


def bench(workload: str, trace: int, seed: int = 0) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = harness.main(["--workload", workload, "--seed", str(seed),
                             "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    text = out.getvalue()
    result = json.loads(text.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    return {k: v["value"] for k, v in result["metrics"].items()}, text


def test_untraced_metrics_are_positive():
    values, text = bench("certify", 0)
    assert all(v > 0 for v in values.values())
    assert "failed_ops" in text and '"git_commit"' in text


def test_decay256_counts():
    v, _ = bench("decay256", 1)
    assert v["spectral.fft.transforms_per_step"] == 8
    assert v["kernels.arakawa.calls_per_step"] == 1
    assert v["snapshot.bytes_per_step"] == 0
    assert v["identities.checks_attempted"] == 0
    assert v["config.setup_ms"] > 0 and v["spectral.self_ms_per_step"] > 0
    assert 0.9 < v["trace.coverage"] <= 1.0


def test_artifacts64_counts():
    v, _ = bench("artifacts64", 1)
    steps = WORKLOADS["artifacts64"].steps
    assert v["spectral.fft.transforms_per_step"] == 9
    assert v["kernels.arakawa.calls_per_step"] == 1
    # a snapshot of every step 0..steps, averaged over the leapfrog steps
    assert v["snapshot.bytes_per_step"] == SNAPSHOT_BYTES * (steps + 1) / steps
    assert v["run.bytes_per_step"] > 0
    assert v["diagnostics.energy_spectrum.self_ms_per_step"] > 0


def test_certify_counts():
    seed = 3
    v, _ = bench("certify", 1, seed)
    ref = json.loads((harness.ROOT / "perfbench" / "reference.json")
                     .read_text())["runs"]["certify"][str(seed)]
    rows = ref["identity_rows"]
    attempted = v["identities.checks_attempted"]
    assert attempted - v["identities.checks_skipped"] == rows
    assert v["identities.useful_ratio"] == rows / attempted
    assert v["spectral.fft.transforms_per_step"] == 0
    assert v["jets.calls_per_check"] > 0 and v["conservation.budget_ms"] > 0


def test_patches_restore_every_name():
    import numpy.fft

    from betaplane import dynamics, jets

    before = (dynamics.arakawa, jets.AnalyticField.__dict__["jet"],
              numpy.fft.fft2, dynamics.step_leapfrog_raw)
    with tracing.Patches(tracing.Tracer()):
        assert dynamics.arakawa is not before[0]
    after = (dynamics.arakawa, jets.AnalyticField.__dict__["jet"],
             numpy.fft.fft2, dynamics.step_leapfrog_raw)
    assert after == before


def test_self_time_excludes_called_layers():
    tracer = tracing.Tracer()
    tracer.enter("run", "run.a")
    tracer.enter("spectral", "spectral.b")
    tracer.exit()
    tracer.exit()
    assert tracer.incl_s["run.a"] >= tracer.self_s["run.a"]
    assert tracer.incl_s["run.a"] == pytest.approx(
        tracer.self_s["run.a"] + tracer.incl_s["spectral.b"])
