"""Field-level group actions and the scale-equivariance experiment.

A restricted subgroup acts on whole experiment setups: scalings,
translations in t and y, constant gauges of psi and linear-in-time
Galilean boosts f(t) = a + c*t. Nonlinear boosts would displace the
solution off the co-moving grid; linear ones reduce to a constant mean
velocity plus a spectral shift at comparison time, which keeps both the
pushforward and the pullback exact on band-limited fields.

The experiment runs a reference configuration (started by
run.resolve_start) and its transformed sibling for the same number of
steps, pulls the transformed vorticity back and compares fields and
shell spectra; equivariance_report writes the comparison as a CSV row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
import math
from pathlib import Path

from .config import RunConfig
from .diagnostics import energy_spectrum
from .dynamics import InstabilityError, integrate
from .grid import Grid, GridConfigError, RealField
from .invariants import GroupElement
from .run import _fmt, resolve_start
from .spectral import laplacian, spectral_shift

import numpy as np


class HarnessDomainError(ValueError):
    """Group element outside the harness subgroup (nonlinear f,
    non-constant g), or one whose transformed setup or spectrum floats
    cannot hold."""


class ExperimentInstabilityError(RuntimeError):
    """One of the paired runs went unstable."""

    def __init__(self, run_id: str, step: int):
        super().__init__(f"{run_id} run unstable at step {step}")
        self.run_id = run_id
        self.step = step


@dataclass(frozen=True)
class EquivarianceReport:
    field_rel_err: float
    spectrum_rms_log_err: float


def _check_harness(gel: GroupElement) -> tuple[float, float]:
    """Return (f(0), f'(0)) after validating the subgroup restriction."""
    if any(c != 0.0 for c in gel.f.coeffs[2:]):
        raise HarnessDomainError("harness boosts must be linear in time")
    if any(c != 0.0 for c in gel.g.coeffs[1:]):
        raise HarnessDomainError("harness gauge must be a constant")
    return gel.f.derivative(0, 0.0), gel.f.derivative(1, 0.0)


def transform_setup(gel: GroupElement, cfg: RunConfig,
                    psi0: RealField) -> tuple[RunConfig, RealField]:
    """Configuration and start field of the transformed reference run,
    from the reference cfg (dt resolved) and its start field psi0.

    Grid lengths scale by e^{-eps1}, dt by e^{eps1}, step count stays;
    the initial streamfunction picks up the weight e^{-3 eps1}, the
    spatial shift and the constant gauge; the boost's -f'(t)*y ramp has
    no periodic representation and is carried as the mean velocity
    e^{-2 eps1}*(u0 + f'). Raises HarnessDomainError when the grid,
    dt, the weight, the mean velocity or the start field of the
    transformed setup is zero or overflows, or when a comparison shell
    that holds energy in psi0 is empty or not finite in the transformed
    start field.
    """
    f0, c = _check_harness(gel)
    grid = cfg.grid
    out_of_range = (f"eps1 = {gel.eps1!r}, boost = {c!r}: the transformed "
                    "grid, dt, start field or its spectrum is out of "
                    "floating-point range")
    try:
        scale = math.exp(-gel.eps1)
        grid_b = Grid(grid.nx, grid.ny, grid.lx * scale, grid.ly * scale)
        dt = cfg.dt / scale
        weight, mean_velocity = scale**3, scale**2 * (cfg.mean_velocity + c)
    except (OverflowError, ZeroDivisionError, GridConfigError) as exc:
        raise HarnessDomainError(out_of_range) from exc
    shifted = spectral_shift(psi0, f0, gel.eps3)
    with np.errstate(over="ignore"):
        values_b = weight * (shifted.values + gel.g(0.0))
    if not (0.0 < dt < math.inf and 0.0 < weight < math.inf
            and math.isfinite(mean_velocity) and np.isfinite(values_b).all()):
        raise HarnessDomainError(out_of_range)
    psi_b = RealField(grid_b, values_b)
    shells_b = _comparison_shells(psi_b)
    held = _comparison_shells(psi0) > 0.0
    if not ((shells_b > 0.0) & np.isfinite(shells_b))[held].all():
        raise HarnessDomainError(out_of_range)
    cfg_b = replace(cfg, grid=grid_b, dt=dt, mean_velocity=mean_velocity)
    return cfg_b, psi_b


def pullback_field(gel: GroupElement, field: RealField, grid: Grid,
                   time: float = 0.0, weight: int = -1) -> RealField:
    """Inverse group action on a field of the given scaling weight.

    weight is the power of e^{-eps1} the field carries forward
    (vorticity: -1, streamfunction: -3). time is the reference-run time
    of the sample, which sets the accumulated boost displacement f(t).
    """
    _check_harness(gel)
    sx = gel.f.derivative(0, time)
    sy = gel.eps3
    on_target = RealField(grid, field.values)
    unshifted = spectral_shift(on_target, -sx, -sy)
    return RealField(grid, math.exp(-weight * gel.eps1) * unshifted.values)


def _comparison_shells(psi: RealField) -> np.ndarray:
    """Shell energies 1..max(2, nx//4), the range the spectra are
    compared over; an overflow or underflow shows as inf, nan or 0."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return energy_spectrum(psi)[: max(2, psi.grid.nx // 4)]


def _normalized_log_spectrum(psi: RealField) -> np.ndarray:
    shells = _comparison_shells(psi)
    if not (np.all(shells > 0.0) and np.isfinite(shells).all()):
        raise HarnessDomainError(
            "spectrum has empty or non-finite shells in the comparison range")
    return np.log10(shells[1:] / shells[0])


def equivariance_experiment(cfg: RunConfig,
                            gel: GroupElement) -> EquivarianceReport:
    """Run reference and transformed setups, pull back, compare.

    Reports the relative L2 error of the pulled-back final vorticity and
    the RMS difference of log10 shell spectra (each normalized by its
    shell-1 value) over shells 2..N/4.
    """
    psi0, dt = resolve_start(cfg)
    cfg = replace(cfg, dt=dt)
    cfg_b, psi_b = transform_setup(gel, cfg, psi0)

    def run(which: str, setup: RunConfig, psi: RealField):
        try:
            return integrate(laplacian(psi), setup.model_params(setup.dt),
                             setup.steps)
        except InstabilityError as exc:
            raise ExperimentInstabilityError(which, exc.step) from exc

    state_a = run("reference", cfg, psi0)
    state_b = run("transformed", cfg_b, psi_b)

    t_final = cfg.steps * dt
    zeta_back = pullback_field(gel, state_b.zeta_curr, cfg.grid,
                               time=t_final, weight=-1)
    ref = state_a.zeta_curr.values
    num = np.linalg.norm(zeta_back.values - ref)
    den = np.linalg.norm(ref)
    field_rel_err = float(num / den) if den > 0 else float(num)

    log_a = _normalized_log_spectrum(state_a.psi_curr)
    log_b = _normalized_log_spectrum(state_b.psi_curr)
    spectrum_rms = float(np.sqrt(np.mean((log_a - log_b) ** 2)))
    return EquivarianceReport(
        field_rel_err=field_rel_err,
        spectrum_rms_log_err=spectrum_rms,
    )


def equivariance_report(cfg: RunConfig, gel: GroupElement,
                        path) -> EquivarianceReport:
    """Run the paired-experiment comparison and write it to path; the
    directory is made only after both runs return."""
    report = equivariance_experiment(cfg, gel)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps1", "eps2", "eps3", "boost_velocity",
                         "gauge", "spec", "field_rel_err",
                         "spectrum_rms_log_err"])
        writer.writerow([
            _fmt(gel.eps1), _fmt(gel.eps2), _fmt(gel.eps3),
            _fmt(gel.f.derivative(1, 0.0)), _fmt(gel.g(0.0)),
            cfg.dissipation.kind,
            _fmt(report.field_rel_err),
            _fmt(report.spectrum_rms_log_err),
        ])
    return report
