"""Experiment orchestration and certification report emitters.

resolve_start resolves a run's start field and dt, for every run.
run_experiment executes a configured simulation and writes its artifact
set: a per-step diagnostics CSV, spectrum CSVs and binary field
snapshots at the configured cadences, and a JSON manifest echoing a
re-runnable configuration. Floats in CSVs carry 17 significant digits
so downstream comparisons stay at roundoff fidelity.

The certify_* functions sample random analytic fields and emit the
residual tables for the differential-invariant identities and the
conservation identities/budgets.
"""

from __future__ import annotations

import csv
import json
import time as _time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, config_echo, generate_initial_condition
from .conservation import (
    CHARACTERISTICS,
    FluxStencil,
    conservation_budget,
    divergence_identity_residual,
)
from .diagnostics import energy_spectrum, integrals
from .dissipation import DissipationSpec
from .dynamics import InstabilityError, auto_dt, integrate
from .grid import Grid, RealField
from .identities import (
    IDENTITIES,
    DomainConditionError,
    Neighbourhood,
    StencilCrossingError,
    check_syzygy,
)
from .jets import AnalyticField, TimeFunction
from .snapshot import write_snapshot
from .spectral import laplacian

EXIT_OK = 0
EXIT_INSTABILITY = 1
EXIT_CONFIG = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class RunResult:
    status: int
    steps_completed: int
    dt: float


def _write_spectrum_csv(path, psi: RealField) -> None:
    shells = energy_spectrum(psi)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "E"])
        for m, e in enumerate(shells, start=1):
            writer.writerow([m, _fmt(e)])


def resolve_start(cfg: RunConfig) -> tuple[RealField, float]:
    """The seeded start field, then dt (cfg.dt, or its auto CFL step).

    Both callees are looked up in this module's globals, so patching
    run.generate_initial_condition or run.auto_dt (as
    perfbench/make_reference.py does) reaches every run.
    """
    psi0 = generate_initial_condition(cfg)
    dt = cfg.dt if cfg.dt is not None else auto_dt(psi0)
    return psi0, dt


def run_experiment(cfg: RunConfig, out_dir=None) -> RunResult:
    """Run the configured simulation, writing artifacts as it goes.

    Returns status 0 on completion, 1 on instability; in the latter case
    the snapshot of the last finite state is retained as
    snapshot_lastgood.bpf along with the diagnostics rows up to it.
    """
    t_wall = _time.perf_counter()
    psi0, dt = resolve_start(cfg)
    params = cfg.model_params(dt)
    zeta0 = laplacian(psi0)
    out = Path(out_dir if out_dir is not None else cfg.output.resolved_dir())
    out.mkdir(parents=True, exist_ok=True)

    last_state = None
    snap_every = cfg.output.snapshot_every
    spec_every = cfg.output.spectrum_every
    status = EXIT_OK

    with open(out / "diagnostics.csv", "w", newline="") as diag_fh:
        diag = csv.writer(diag_fh)
        diag.writerow(["time", "energy", "enstrophy", "circulation",
                       "x_momentum"])

        def observer(state):
            nonlocal last_state
            last_state = state
            rec = integrals(state.psi_curr, state.zeta_curr, cfg.beta,
                            state.time)
            diag.writerow([_fmt(rec.time), _fmt(rec.energy),
                           _fmt(rec.enstrophy), _fmt(rec.circulation),
                           _fmt(rec.x_momentum)])
            if snap_every and state.step % snap_every == 0:
                write_snapshot(out / f"snapshot_{state.step:06d}.bpf",
                               state.psi_curr, state.time)
            if spec_every and state.step % spec_every == 0:
                _write_spectrum_csv(out / f"spectrum_{state.step:06d}.csv",
                                    state.psi_curr)

        try:
            integrate(zeta0, params, cfg.steps, observer=observer)
        except InstabilityError:
            status = EXIT_INSTABILITY
            if last_state is not None:
                write_snapshot(out / "snapshot_lastgood.bpf",
                               last_state.psi_curr, last_state.time)

    steps_done = last_state.step if last_state is not None else 0
    manifest = {
        "config": config_echo(cfg, dt),
        "version": __version__,
        "dt": dt,
        "steps_requested": cfg.steps,
        "steps_completed": steps_done,
        "status": "ok" if status == EXIT_OK else "instability",
        "wall_time_s": _time.perf_counter() - t_wall,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return RunResult(status=status, steps_completed=steps_done, dt=dt)


def sample_admissible_point(field: AnalyticField,
                            rng: np.random.Generator) -> tuple[float, float, float]:
    """Random point with psi_x >= 0.3 (the identities' domain), from at
    most 2000 draws.

    The frame exists wherever psi_x != 0, but the finite-difference
    identity evaluation additionally wants psi_x bounded away from zero
    across its stencil; rejection sampling on the base point suffices at
    this threshold.
    """
    for _ in range(2000):
        point = tuple(rng.uniform(-3.0, 3.0, size=3))
        if field.derivative((0, 1, 0), point) >= 0.3:
            return point
    raise ValueError("no point with psi_x >= 0.3 in 2000 draws")


def certify_invariants(path, n_fields: int = 20, n_points: int = 20,
                       seed: int = 0, skipped: Counter | None = None) -> float:
    """Residual table for all syzygies, commutators and representations.

    Writes CSV rows (identity, seed, point, residual) and returns the
    largest residual over points where the identity's domain conditions
    hold; points that violate them are skipped, not reported as failures.
    When given, ``skipped`` counts the skipped points per identity.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["identity", "seed", "point", "residual"])
        for field_idx in range(n_fields):
            field = AnalyticField.random(rng)
            for _ in range(n_points):
                point = sample_admissible_point(field, rng)
                nb = Neighbourhood(field, point)
                for name in IDENTITIES:
                    try:
                        res = check_syzygy(name, nb)
                    except (DomainConditionError, StencilCrossingError):
                        if skipped is not None:
                            skipped[name] += 1
                        continue
                    worst = max(worst, res)
                    writer.writerow([
                        name, field_idx,
                        "(" + ";".join(_fmt(v) for v in point) + ")",
                        _fmt(res),
                    ])
    return worst


def certify_conservation(identity_path, budget_path, n_fields: int = 20,
                         n_points: int = 20, seed: int = 0,
                         resolutions=(32, 64, 128)) -> float:
    """Divergence-identity residuals and grid conservation budgets.

    The identity CSV has rows (characteristic, seed, point, residual)
    over random analytic fields with random polynomial time functions;
    the budget CSV has rows (spec, N, dE, dZ, dGamma, dM) for the
    conservative closures on a fixed band-limited field sampled at each
    resolution. Returns the largest identity residual.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    with open(identity_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["characteristic", "seed", "point", "residual"])
        for field_idx in range(n_fields):
            field = AnalyticField.random(rng)
            f = TimeFunction.random(rng)
            g = TimeFunction.random(rng)
            for _ in range(n_points):
                point = tuple(rng.uniform(-3.0, 3.0, size=3))
                stencil = FluxStencil(field, point)
                for char in CHARACTERISTICS:
                    res = divergence_identity_residual(
                        char, stencil, (f, g), nu=1.0, beta=1.0
                    )
                    worst = max(worst, res)
                    writer.writerow([
                        char, field_idx,
                        "(" + ";".join(_fmt(v) for v in point) + ")",
                        _fmt(res),
                    ])

    fields = []
    for n in resolutions:
        psi = reference_budget_field(Grid(n, n, 2.0 * np.pi, 2.0 * np.pi))
        fields.append((n, psi, laplacian(psi)))
    with open(budget_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["spec", "N", "dE", "dZ", "dGamma", "dM"])
        for kind in ("conservative_seventh", "conservative_fourth"):
            spec = DissipationSpec(kind, nu=1.0)
            for n, psi, zeta in fields:
                b = conservation_budget(spec, psi, zeta, beta=1.0)
                writer.writerow([kind, n, _fmt(b.dE), _fmt(b.dZ),
                                 _fmt(b.dGamma), _fmt(b.dM)])
    return worst


def reference_budget_field(grid: Grid) -> RealField:
    """Fixed band-limited streamfunction, identical across resolutions.

    Modes stop at wavenumber 5 so every tested grid resolves the field
    exactly and refinement isolates the quadrature/aliasing error of the
    budgets. The field is even in y, which keeps the continuum
    x-momentum tendency of the conservative closures at zero (the
    closure flux through the periodic seam cancels by symmetry), and is
    scaled so the vorticity is O(1) before entering the seventh power.
    """
    x = grid.x() * (2.0 * np.pi / grid.lx)
    y = grid.y() * (2.0 * np.pi / grid.ly)
    psi = 0.05 * (
        1.0 * np.cos(3.0 * x + 0.4) * np.cos(2.0 * y)
        + 0.7 * np.cos(x + 1.1) * np.cos(4.0 * y)
        + 0.5 * np.cos(5.0 * x + 2.0) * np.cos(y)
        + 0.3 * np.cos(2.0 * x + 0.7)
    )
    return RealField(grid, psi - psi.mean())
