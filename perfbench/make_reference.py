"""Record what the benchmark checks against: perfbench/reference.json.

Usage: python3 perfbench/make_reference.py

For every input set of the pool it runs each workload's operation once
and records the final energy and enstrophy (solver workloads) or the
row counts (certify).

The solver tolerance is measured, not guessed. Each input set is run
again under two roundoff-level changes:

* the initial streamfunction multiplied by 1 + 1e-15*xi, xi standard
  normal;
* every forward/inverse 2-D FFT computed through rfft2/irfft2, the
  real-transform refactor planned for the spectral layer.

The tolerance is a hundred times the largest relative change of the final
energy or enstrophy seen under either. The factor leaves room for
changes that reorder more arithmetic than one transform. As evidence
that the check still catches real changes, the file also records the
change caused by a 1e-9 relative change of dt.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import run as harness
from workloads import POOL, WORKLOADS, final_integrals

TOL_FACTOR = 100.0
IC_PERTURBATION = 1e-15
DT_PERTURBATION = 1e-9


@contextmanager
def patched(owner, name, value):
    original = owner.__dict__[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def perturbed_ic(original):
    def generate(cfg):
        psi = original(cfg)
        xi = np.random.default_rng(12345).standard_normal(psi.values.shape)
        return type(psi)(psi.grid, psi.values * (1.0 + IC_PERTURBATION * xi))
    return generate


def real_fft_pair(fft2, rfft2, irfft2):
    """fft2/ifft2 stand-ins for real data computed via rfft2/irfft2."""

    def fft2_via_real(a, *args, **kwargs):
        a = np.asarray(a)
        if np.iscomplexobj(a) or args or kwargs:
            return fft2(a, *args, **kwargs)
        nx, ny = a.shape
        half = rfft2(a)
        full = np.empty((nx, ny), dtype=complex)
        full[:, : ny // 2 + 1] = half
        kx = (-np.arange(nx)) % nx
        ky = ny - np.arange(ny // 2 + 1, ny)
        full[:, ny // 2 + 1:] = np.conj(half[kx][:, ky])
        return full

    def ifft2_via_real(a, *args, **kwargs):
        a = np.asarray(a)
        if args or kwargs:
            raise TypeError("calibration stand-in takes no options")
        ny = a.shape[1]
        return irfft2(a[:, : ny // 2 + 1], s=a.shape)

    return fft2_via_real, ifft2_via_real


def solver_reference(workload, work: Path) -> tuple[dict, dict]:
    from betaplane import run as bp_run
    import numpy.fft as npfft

    fft2_r, ifft2_r = real_fft_pair(npfft.fft2, npfft.rfft2, npfft.irfft2)
    runs, worst = {}, {"ic_1e-15": 0.0, "rfft2": 0.0}

    def final(ctx):
        out = work / "ref"
        workload.run(ctx, out)
        try:
            return final_integrals(out)
        finally:
            shutil.rmtree(out)

    def rel(a, b):
        return max(abs(x - y) / abs(y) for x, y in zip(a, b))

    for idx in range(POOL):
        ctx = workload.prepare(idx, work)
        base = final(ctx)
        runs[str(idx)] = {"energy": base[0], "enstrophy": base[1]}
        with patched(bp_run, "generate_initial_condition",
                     perturbed_ic(bp_run.generate_initial_condition)):
            worst["ic_1e-15"] = max(worst["ic_1e-15"], rel(final(ctx), base))
        with patched(npfft, "fft2", fft2_r), patched(npfft, "ifft2", ifft2_r):
            worst["rfft2"] = max(worst["rfft2"], rel(final(ctx), base))
        print(f"{workload.name} {idx}: E={base[0]!r} Z={base[1]!r} "
              f"worst so far {worst}", flush=True)

    ctx = workload.prepare(0, work)
    auto_dt = bp_run.auto_dt
    with patched(bp_run, "auto_dt",
                 lambda psi: auto_dt(psi) * (1.0 + DT_PERTURBATION)):
        detect = rel(final(ctx), (runs["0"]["energy"],
                                  runs["0"]["enstrophy"]))
    tol = TOL_FACTOR * max(worst.values())
    calibration = {"max_rel_change": worst, "factor": TOL_FACTOR,
                   "dt_1e-9_rel_change": detect}
    if not detect > tol:
        raise SystemExit(f"{workload.name}: tolerance {tol:.3e} would not "
                         f"catch a 1e-9 change of dt ({detect:.3e})")
    return runs, {"tolerance": tol, "calibration": calibration}


def certify_reference(workload, work: Path) -> dict:
    runs = {}
    for idx in range(POOL):
        ctx = workload.prepare(idx, work)
        out = work / "ref"
        workload.run(ctx, out)
        runs[str(idx)] = workload.row_counts(out)
        # worst residuals and budget rows are checked; row counts are
        # recorded, so pass this input set's own counts as the reference
        workload.check(ctx, out, {"runs": {workload.name: runs}})
        shutil.rmtree(out)
        print(f"certify {idx}: {runs[str(idx)]}", flush=True)
    return runs


def main() -> int:
    harness.BUILD.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=harness.BUILD))
    try:
        harness.install_dist_info(work / "site")
        sys.path.insert(0, str(harness.SRC))
        ref = {"pool": POOL, "params": {}, "runs": {}, "tolerance": {},
               "calibration": {}}
        for name, workload in WORKLOADS.items():
            ref["params"][name] = workload.params()
            if name == "certify":
                ref["runs"][name] = certify_reference(workload, work)
            else:
                runs, tol = solver_reference(workload, work)
                ref["runs"][name] = runs
                ref["tolerance"][name] = tol["tolerance"]
                ref["calibration"][name] = tol["calibration"]
        path = Path(__file__).with_name("reference.json")
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
