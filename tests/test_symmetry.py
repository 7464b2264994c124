"""Field-level group actions and the paired-run equivariance experiment."""

from __future__ import annotations

import math

import numpy as np
import pytest

from betaplane import symmetry
from betaplane.config import IcSpec, RunConfig
from betaplane.dissipation import DissipationSpec
from betaplane.dynamics import integrate
from betaplane.grid import Grid, RealField
from betaplane.invariants import GroupElement
from betaplane.jets import TimeFunction
from betaplane.symmetry import (
    EquivarianceReport,
    HarnessDomainError,
    _normalized_log_spectrum,
    equivariance_experiment,
    pullback_field,
    transform_setup,
)


@pytest.fixture
def grid():
    return Grid(32, 32, 2.0 * np.pi, 2.0 * np.pi)


def base_config(grid, **overrides):
    defaults = dict(
        grid=grid,
        beta=1.5,
        steps=40,
        dt=0.005,
        dissipation=DissipationSpec("none"),
        raw_gamma=0.0,
        ic=IcSpec(k0=4.0, p=6.0, q=18.0, amplitude=1.0, seed=1),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def gel(eps1=0.0, eps2=0.0, eps3=0.0, f=(0.0,), g=(0.0,)):
    return GroupElement(eps1, eps2, eps3, TimeFunction(f), TimeFunction(g))


def trig_field(grid):
    X, Y = grid.meshgrid()
    vals = np.cos(3 * X + 0.4) * np.cos(2 * Y) + 0.6 * np.cos(X + 2 * Y + 1.0)
    return RealField(grid, vals - vals.mean())


def test_harness_rejects_nonlinear_boost(grid):
    cfg = base_config(grid)
    with pytest.raises(HarnessDomainError):
        transform_setup(gel(f=(0.0, 0.1, 0.2)), cfg, trig_field(grid))


def test_harness_rejects_time_dependent_gauge(grid):
    cfg = base_config(grid)
    with pytest.raises(HarnessDomainError):
        transform_setup(gel(g=(0.0, 1.0)), cfg, trig_field(grid))


def test_empty_spectrum_is_a_domain_error(grid):
    with pytest.raises(HarnessDomainError, match="empty or non-finite"):
        _normalized_log_spectrum(RealField(grid, np.zeros(grid.shape)))


def test_transform_setup_scaling_properties(grid):
    cfg = base_config(grid, mean_velocity=0.3)
    eps1 = 0.7
    c = 0.4
    out, psi_b = transform_setup(gel(eps1=eps1, f=(0.0, c)), cfg,
                                 trig_field(grid))
    s = math.exp(-eps1)
    assert out.grid.nx == grid.nx and out.grid.ny == grid.ny
    assert out.grid.lx == pytest.approx(grid.lx * s)
    assert out.grid.ly == pytest.approx(grid.ly * s)
    assert out.dt == pytest.approx(cfg.dt / s)
    assert out.steps == cfg.steps
    assert out.mean_velocity == pytest.approx(s**2 * (0.3 + c))
    assert isinstance(psi_b, RealField)
    assert psi_b.grid == out.grid


def test_transform_setup_gauge_and_weight(grid):
    """Pure scaling plus constant gauge: psi' = s^3 (psi + g0)."""
    psi0 = trig_field(grid)
    eps1, g0 = 0.5, 2.0
    _, psi_b = transform_setup(gel(eps1=eps1, g=(g0,)), base_config(grid),
                               psi0)
    s = math.exp(-eps1)
    expected = s**3 * (psi0.values + g0)
    assert np.allclose(psi_b.values, expected, atol=1e-14)


def test_pullback_inverts_pushforward(grid):
    """pullback(transform(psi0)) recovers psi0 to roundoff at t = 0."""
    psi0 = trig_field(grid)
    element = gel(eps1=0.6, eps3=0.9, f=(0.8, 0.2), g=(0.0,))
    _, psi_b = transform_setup(element, base_config(grid), psi0)
    back = pullback_field(element, psi_b, grid, time=0.0, weight=-3)
    assert np.abs(back.values - psi0.values).max() < 1e-12


def test_pullback_grid_aligned_shift_is_roll(grid):
    """A y-translation by a whole number of cells pulls back to an exact
    circular row shift."""
    psi0 = trig_field(grid)
    shift = 5 * grid.dy
    element = gel(eps3=shift)
    moved = pullback_field(element, psi0, grid, weight=0)
    assert np.allclose(moved.values, np.roll(psi0.values, -5, axis=1),
                       atol=1e-12)


def test_pullback_half_cell_shift_analytic(grid):
    """A dx/2 boost displacement at t=1 matches the analytic translate."""
    X, Y = grid.meshgrid()
    k = 3
    psi0 = RealField(grid, np.cos(k * X + 2 * Y))
    a = grid.dx / 2.0
    element = gel(f=(0.0, a))  # f(t) = a*t, so f(1) = a
    back = pullback_field(element, psi0, grid, time=1.0, weight=0)
    expected = np.cos(k * (X + a) + 2 * Y)
    assert np.abs(back.values - expected).max() < 1e-12


def test_pullback_scaling_weight(grid):
    psi0 = trig_field(grid)
    eps1 = 0.8
    back = pullback_field(gel(eps1=eps1), psi0, grid, weight=-1)
    assert np.allclose(back.values, math.exp(eps1) * psi0.values)


def test_identity_experiment_is_exact(grid):
    cfg = base_config(grid)
    rep = equivariance_experiment(cfg, gel())
    assert isinstance(rep, EquivarianceReport)
    assert rep.field_rel_err == 0.0
    assert rep.spectrum_rms_log_err == 0.0


def test_scaling_equivariance_inviscid(grid):
    """The inviscid discretization commutes with pure scalings to
    roundoff (the stencils are homogeneous in dx, dy, dt)."""
    cfg = base_config(grid)
    rep = equivariance_experiment(cfg, gel(eps1=1.0))
    assert rep.field_rel_err < 1e-10
    assert rep.spectrum_rms_log_err < 1e-10


def test_gauge_translation_scaling_equivariance(grid):
    """Grid-aligned shifts combined with scaling and a constant gauge
    commute with the discrete dynamics to roundoff."""
    cfg = base_config(grid)
    element = gel(eps1=0.7, eps3=5 * grid.dy, f=(3 * grid.dx, 0.0), g=(4.0,))
    rep = equivariance_experiment(cfg, element)
    assert rep.field_rel_err < 1e-10
    assert rep.spectrum_rms_log_err < 1e-10


def test_boost_equivariance_converges():
    """A velocity boost is only equivariant up to discretization error
    (the mean-flow term changes the truncation error of the stepping);
    the residual vanishes at roughly second order under refinement."""
    errs = []
    for n, dt, steps in ((32, 0.01, 20), (64, 0.005, 40)):
        cfg = base_config(
            Grid(n, n, 2.0 * np.pi, 2.0 * np.pi), dt=dt, steps=steps
        )
        rep = equivariance_experiment(cfg, gel(f=(0.0, 0.2)))
        errs.append(rep.field_rel_err)
    assert errs[0] < 0.05
    assert errs[1] < errs[0] / 3.0


def test_equivariant_closure_keeps_equivariance(grid):
    cfg = base_config(
        grid,
        dissipation=DissipationSpec("invariant_hyper", n=2, nu=1e-6),
    )
    rep = equivariance_experiment(cfg, gel(eps1=1.0))
    assert rep.field_rel_err < 1e-8


def test_classical_closure_breaks_equivariance(grid):
    cfg = base_config(
        grid,
        dissipation=DissipationSpec("classical", n=2, nu=1e-6),
    )
    rep = equivariance_experiment(cfg, gel(eps1=1.0))
    assert rep.field_rel_err > 1e-3


def test_experiment_steps_override(grid, monkeypatch):
    """Both paired runs take the configured number of steps."""
    steps_run = []

    def recording_integrate(*args, **kwargs):
        state = integrate(*args, **kwargs)
        steps_run.append(state.step)
        return state

    monkeypatch.setattr(symmetry, "integrate", recording_integrate)
    cfg = base_config(grid, steps=7)
    rep = equivariance_experiment(cfg, gel(eps1=0.5))
    assert steps_run == [7, 7]
    assert rep.field_rel_err < 1e-10
