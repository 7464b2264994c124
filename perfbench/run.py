"""betaplane benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload {decay256,artifacts64,certify}
                             --seed N --seconds S --trace {0,1}

Load is a closed loop with one client: one process runs operations back
to back, with no extra threads, for S seconds after one warm-up
operation. Every operation's outputs are checked (see workloads.py);
an operation that raises or fails its check counts as failed.

With --trace 0 the end-to-end metrics are measured with nothing
patched; set-up is timed in fresh processes started between
operations. With --trace 1 untraced and traced operations alternate; the
traced ones give the per-layer metrics (see tracing.py) and the pair
gives the tracing overhead. Both modes print the end-to-end table
first, the per-layer table after it when traced, and as the last line
one JSON object with the keys correct, attempted, failed and metrics.

The package runs from the source tree (src/) without being installed.
``run_experiment`` reads the package version through
``importlib.metadata``, which needs an installed distribution, so the
benchmark writes a minimal ``betaplane`` dist-info (name and version
from pyproject.toml) and puts it on its own ``sys.path``. That
dist-info and all outputs go to a temporary directory under the
git-ignored ``.bench_build/perfbench`` of the checkout, which is
removed at exit, and no bytecode is written, so a run leaves the source
tree as it found it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
sys.dont_write_bytecode = True  # write no __pycache__ into the source tree

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def project_metadata() -> tuple[str, str]:
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return project["name"], project["version"]


def install_dist_info(site: Path) -> None:
    """Make ``importlib.metadata.version("betaplane")`` answer for the
    source tree, in this process only."""
    name, version = project_metadata()
    info = site / f"{name}-{version}.dist-info"
    info.mkdir(parents=True)
    (info / "METADATA").write_text(
        f"Metadata-Version: 2.1\nName: {name}\nVersion: {version}\n")
    sys.path.append(str(site))


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_caches() -> dict:
    """Unified/data cache sizes of cpu0 by level, as /sys reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.exists() else ():
        level = _read(index / "level")
        kind = _read(index / "type")
        if level and kind != "Instruction":
            out[f"L{level}"] = _read(index / "size")
    return out


def cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(args) -> dict:
    import numpy

    from betaplane import _accel

    caches = cpu_caches()
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "NUMBA_ENABLED": _accel.NUMBA_ENABLED,
        "BETAPLANE_NO_NUMBA": os.environ.get("BETAPLANE_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "loop": "closed, 1 client, back to back",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(workload, ctx: dict) -> float:
    """Set-up time of one fresh process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(SRC), *workload.setup_probe_args(ctx)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Op(NamedTuple):
    wall: float
    units: int
    ok: bool
    traced: bool


def run_op(workload, ctx, reference, out: Path, traced: bool,
           tracer=None, totals=None) -> Op:
    """One operation and its check. Exceptions count as failures."""
    wall, units = 0.0, 0
    try:
        if tracer is not None:
            with tracing.Patches(tracer):
                wall = workload.run(ctx, out)
        else:
            wall = workload.run(ctx, out)
        counts = workload.counts(out)
        units = counts["units"]
        workload.check(ctx, out, reference)
        if totals is not None:
            totals.update(counts)
        ok = True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        ok = False
    except Exception:  # the operation's own error: count it, show it
        traceback.print_exc()
        ok = False
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Op(wall, units, ok, traced)


def quantile_line(values: list[float]) -> str:
    """Median, plus the highest percentile with ten samples above it."""
    n = len(values)
    s = f"median {statistics.median(values):.6g}"
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        cut = statistics.quantiles(values, n=100)[pct - 1]
        s += f"  p{pct} {cut:.6g}"
    return s + f"  min {min(values):.6g}  max {max(values):.6g}  n={n}"


def end_to_end(ops: list[Op], setup: list[float]) -> dict:
    """Each metric's reported value, unit and per-sample values.

    Throughput and operation wall time report the run's fastest
    operation (min of repeats), not the median: every operation does the
    same work, but the speed of this class of shared machine switches
    between discrete levels up to 2x apart, for seconds to minutes at a
    time, and a median follows whichever level held for most of a run
    (see README.md for the measurement).
    """
    good = [op for op in ops if op.ok and not op.traced]
    rates = [op.units / op.wall for op in good]
    walls = [op.wall for op in good]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "work_per_s": (max(rates, default=0.0), "1/s", rates),
        "wall_s": (min(walls, default=0.0), "s", walls),
        "setup_s": (statistics.median(setup), "s", setup),
        "peak_rss_mb": (rss_mb, "MiB", [rss_mb]),
    }


def print_end_to_end(workload, ops, e2e) -> None:
    print(f"end-to-end ({workload.name}; work_per_s counts {workload.unit}; "
          "per-sample statistics after the reported value)")
    for name, (value, unit, samples) in e2e.items():
        body = quantile_line(samples) if samples else "no samples"
        print(f"  {name:<12} {value:12.6g} {unit:<4} {body}")
    failed = sum(not op.ok for op in ops)
    print(f"  failed_ops   {failed:>5}/{len(ops):<6} share of operations")


def per_layer(workload, tracer, ops, totals) -> dict:
    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n_ops = max(len(traced), 1)
    steps = tracer.loop_steps
    loop_self = tracer.layer_totals(tracer.loop_self_s)
    op_self = tracer.layer_totals(tracer.self_s)
    calls = tracer.calls
    keys_of = {}
    for key, layer in tracer.layer_of.items():
        keys_of.setdefault(layer, []).append(key)

    def per_step(v):
        return v / steps if steps else 0.0

    def layer_calls(layer, counter):
        return sum(counter[k] for k in keys_of.get(layer, ()))

    def layer_incl(layer):
        return sum(tracer.incl_s[k] for k in keys_of.get(layer, ()))

    attempted = calls["identities.check_syzygy"]
    checks = attempted + calls["conservation.divergence_identity_residual"]

    def per_check(v):
        return v / checks if checks else 0.0

    traced_wall = sum(op.wall for op in traced)
    covered = sum(v for k, v in tracer.self_s.items() if k != tracing.ROOT)
    overhead = 0.0
    if traced and plain:
        plain_wall = sum(op.wall for op in plain) / len(plain)
        overhead = traced_wall / len(traced) / plain_wall - 1.0
    ms = 1e3
    units = totals["units"]
    solver_steps = units if workload.unit == "steps" else 0
    values = {
        "spectral.fft.transforms_per_step":
            per_step(layer_calls(tracing.FFT_LAYER, tracer.loop_calls)),
        "spectral.fft.self_ms_per_step":
            per_step(loop_self[tracing.FFT_LAYER] * ms),
        "spectral.self_ms_per_step": per_step(loop_self["spectral"] * ms),
        "kernels.arakawa.calls_per_step":
            per_step(tracer.loop_calls["kernels.arakawa"]),
        "kernels.arakawa.self_ms_per_step":
            per_step(tracer.loop_self_s["kernels.arakawa"] * ms),
        "dynamics.self_ms_per_step": per_step(loop_self["dynamics"] * ms),
        "dissipation.self_ms_per_step":
            per_step(loop_self["dissipation"] * ms),
        "grid.self_ms_per_step": per_step(loop_self["grid"] * ms),
        "diagnostics.integrals.self_ms_per_step":
            per_step(tracer.loop_self_s["diagnostics.integrals"] * ms),
        "diagnostics.energy_spectrum.self_ms_per_step":
            per_step(tracer.loop_self_s["diagnostics.energy_spectrum"] * ms),
        "snapshot.self_ms_per_step": per_step(loop_self["snapshot"] * ms),
        "snapshot.bytes_per_step":
            totals["snapshot_bytes"] / solver_steps if solver_steps else 0.0,
        "run.self_ms_per_step": per_step(loop_self["run"] * ms),
        "run.bytes_per_step":
            totals["run_bytes"] / solver_steps if solver_steps else 0.0,
        "config.setup_ms": layer_incl("config") * ms / n_ops,
        "jets.calls_per_check": per_check(layer_calls("jets", calls)),
        "jets.self_ms_per_check": per_check(op_self["jets"] * ms),
        "invariants.self_ms_per_check": per_check(op_self["invariants"] * ms),
        "identities.self_ms_per_check": per_check(op_self["identities"] * ms),
        "identities.checks_attempted": attempted / n_ops,
        "identities.checks_skipped":
            tracer.raised["identities.check_syzygy"] / n_ops,
        "identities.useful_ratio":
            totals["identity_rows"] / attempted if attempted else 0.0,
        "conservation.self_ms_per_check":
            per_check(op_self["conservation"] * ms),
        "conservation.budget_ms":
            tracer.incl_s["conservation.conservation_budget"] * ms / n_ops,
        "trace.coverage": covered / traced_wall if traced_wall else 0.0,
        "trace.overhead": overhead,
    }
    print_layer_table(tracer, op_self, n_ops, traced_wall, keys_of, steps)
    return values


def print_layer_table(tracer, op_self, n_ops, traced_wall, keys_of, steps):
    print(f"per-layer (traced, {n_ops} ops, {steps} leapfrog steps; "
          "self time excludes called layers; calls enter from another layer)")
    print(f"  {'layer':<14} {'self ms/op':>11} {'share':>7} {'calls/op':>11}")
    for layer in (*tracing.LAYERS, tracing.FFT_LAYER, tracing.ROOT):
        self_s = op_self.get(layer, 0.0)
        calls = sum(tracer.calls[k] for k in keys_of.get(layer, ()))
        share = self_s / traced_wall if traced_wall else 0.0
        print(f"  {layer:<14} {self_s * 1e3 / n_ops:11.3f} {share:7.1%} "
              f"{calls / n_ops:11.1f}")
    print("  symmetry has no workload of its own: unmeasured")


def print_layer_metrics(values: dict, units: dict) -> None:
    for name, v in values.items():
        print(f"  {name:<46} {v:14.6g} {units[name]}")


def load_reference(workload) -> dict:
    ref = json.loads(Path(__file__).with_name("reference.json").read_text())
    if ref["params"][workload.name] != workload.params():
        raise SystemExit(f"reference.json was made for {workload.name} "
                         f"{ref['params'][workload.name]}, the workload is "
                         f"{workload.params()}: run make_reference.py")
    return ref


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "betaplane" / "__init__.py").is_file():
        print(f"error: no betaplane source tree under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload)
    layer_units = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_units = {m["name"]: m["unit"] for m in layer_units["per_layer"]}
    BUILD.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        install_dist_info(work / "site")
        sys.path.insert(0, str(SRC))
        ctx = workload.prepare(args.seed, work)
        print("env " + json.dumps(environment(args), sort_keys=True))

        ops = [run_op(workload, ctx, reference, work / "warmup", False)]
        tracer = tracing.Tracer() if args.trace else None
        totals = Counter()  # exact counts summed over traced operations
        measured, setup = [], []
        t0 = perf_counter()
        # set-up probes are spread over the window, between operations
        probe_at = [t0 + args.seconds * k / SETUP_PROBES
                    for k in range(SETUP_PROBES)]
        i, min_ops = 0, 2 if args.trace else 1
        while perf_counter() < t0 + args.seconds or i < min_ops:
            if probe_at and perf_counter() >= probe_at[0]:
                probe_at.pop(0)
                setup.append(probe_setup(workload, ctx))
                continue
            traced = bool(args.trace) and i % 2 == 1
            measured.append(run_op(
                workload, ctx, reference, work / f"op{i}", traced,
                tracer if traced else None, totals if traced else None))
            i += 1
        setup += [probe_setup(workload, ctx) for _ in probe_at]
        ops += measured

        e2e = end_to_end(measured, setup)
        print_end_to_end(workload, ops, e2e)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
        if args.trace:
            values = per_layer(workload, tracer, measured, totals)
            print_layer_metrics(values, layer_units)
            metrics = {k: {"value": v, "unit": layer_units[k]}
                       for k, v in values.items()}
        failed = sum(not op.ok for op in ops)
        result = {"correct": failed == 0, "attempted": len(ops),
                  "failed": failed, "metrics": metrics}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
