"""Time integration: Rossby-wave oracle, conservation, convergence and
failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from betaplane.dynamics import (
    InstabilityError,
    ModelParams,
    SimState,
    auto_dt,
    bootstrap,
    initial_state,
    integrate,
    step_leapfrog_raw,
    tendency,
)
from betaplane.dissipation import VARIANTS, DissipationSpec
from betaplane.grid import Grid, RealField
from betaplane.spectral import laplacian


@pytest.fixture
def grid():
    return Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)


def two_mode_field(grid, a1=1.0, a2=0.7):
    X, Y = grid.meshgrid()
    psi = a1 * np.cos(3 * X + 2 * Y + 0.4) + a2 * np.cos(X - 4 * Y + 1.1)
    return RealField(grid, psi - psi.mean())


def energy_enstrophy(state: SimState):
    grid = state.grid
    dA = grid.dx * grid.dy
    e = -0.5 * float(np.sum(state.psi_curr.values * state.zeta_curr.values)) * dA
    z = 0.5 * float(np.sum(state.zeta_curr.values**2)) * dA
    return e, z


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(beta=0.0, dt=0.0)
    with pytest.raises(ValueError):
        ModelParams(beta=0.0, dt=0.1, raw_gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(beta=0.0, dt=0.1, raw_alpha=0.0)


def test_tendency_matches_spectral_rhs(grid):
    """On a two-mode field the Arakawa bracket is second-order accurate
    against the exact analytic tendency; the beta term is spectral and
    exact. (A single mode is vacuous: J(psi, c*psi) = 0.)"""
    beta = 1.7
    errs = []
    for n in (64, 128, 256):
        g = Grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
        X, Y = g.meshgrid()
        psi = np.cos(3 * X + 2 * Y + 0.4) + 0.7 * np.cos(X - 4 * Y + 1.1)
        psi_f = RealField(g, psi - psi.mean())
        state = initial_state(laplacian(psi_f))
        got = tendency(state, ModelParams(beta=beta, dt=0.01))
        # exact: -J(psi, zeta) - beta psi_x for zeta = -13 psi_1 - 17 psi_2
        s1 = np.sin(3 * X + 2 * Y + 0.4)
        s2 = 0.7 * np.sin(X - 4 * Y + 1.1)
        p1x, p1y = -3 * s1, -2 * s1
        p2x, p2y = -s2, 4 * s2
        jac = (p1x + p2x) * (-13 * p1y - 17 * p2y) - (p1y + p2y) * (
            -13 * p1x - 17 * p2x
        )
        exact = -jac - beta * (p1x + p2x)
        exact -= exact.mean()
        errs.append(np.abs(got - exact).max())
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


def test_rossby_wave_phase_speed(grid):
    """A single zonal mode is an exact solution zeta(x - ct) with
    c = -beta/k^2; the nonlinear term vanishes on it."""
    beta = 5.0
    k = 2
    X, _ = grid.meshgrid()
    psi0 = RealField(grid, np.cos(k * X))
    zeta0 = laplacian(psi0)
    dt = 0.002
    steps = 400
    params = ModelParams(beta=beta, dt=dt, raw_gamma=0.01)
    state = integrate(zeta0, params, steps)
    c = -beta / k**2
    expected = -(k**2) * np.cos(k * (X - c * steps * dt))
    rel = np.abs(state.zeta_curr.values - expected).max() / k**2
    assert rel < 5e-3


def test_inviscid_energy_enstrophy_drift(grid):
    zeta0 = laplacian(two_mode_field(grid))
    params = ModelParams(beta=2.0, dt=0.002, raw_gamma=0.0)
    hist = []
    integrate(zeta0, params, 300, observer=lambda s: hist.append(energy_enstrophy(s)))
    e0, z0 = hist[0]
    for e, z in hist:
        assert abs(e - e0) / e0 < 1e-4
        assert abs(z - z0) / z0 < 1e-4


def test_mean_velocity_advects_pattern(grid):
    """With u0 != 0 and beta = 0 a single mode is advected unchanged at
    speed u0 (J term vanishes, only -u0 zeta_x acts)."""
    u0 = 0.8
    X, _ = grid.meshgrid()
    zeta0 = RealField(grid, np.cos(3 * X))
    dt = 0.002
    steps = 250
    params = ModelParams(beta=0.0, dt=dt, raw_gamma=0.0, mean_velocity=u0)
    state = integrate(zeta0, params, steps)
    expected = np.cos(3 * (X - u0 * steps * dt))
    assert np.abs(state.zeta_curr.values - expected).max() < 5e-3


def test_integrate_observer_sees_every_step(grid):
    zeta0 = laplacian(two_mode_field(grid))
    steps = []
    integrate(zeta0, ModelParams(beta=0.0, dt=0.01), 5,
              observer=lambda s: steps.append(s.step))
    assert steps == [0, 1, 2, 3, 4, 5]


def test_integrate_rejects_zero_steps(grid):
    zeta0 = laplacian(two_mode_field(grid))
    with pytest.raises(ValueError, match="steps"):
        integrate(zeta0, ModelParams(beta=0.0, dt=0.01), 0)


def test_bootstrap_preserves_zero_mean(grid):
    state0 = initial_state(laplacian(two_mode_field(grid)))
    state1 = bootstrap(state0, ModelParams(beta=1.0, dt=0.01))
    assert abs(state1.zeta_curr.values.mean()) < 1e-14
    assert state1.step == 1


def test_leapfrog_second_order_in_time(grid):
    """Halving dt shrinks the final-state error by ~4 (RAW filter off)."""
    zeta0 = laplacian(two_mode_field(grid, 0.3, 0.2))
    t_final = 0.4
    results = {}
    for m in (1, 2, 4):
        dt = 0.01 / m
        params = ModelParams(beta=1.0, dt=dt, raw_gamma=0.0)
        results[m] = integrate(zeta0, params, int(round(t_final / dt)))
    e1 = np.abs(results[1].zeta_curr.values - results[4].zeta_curr.values).max()
    e2 = np.abs(results[2].zeta_curr.values - results[4].zeta_curr.values).max()
    assert e1 / e2 > 3.0


def test_instability_reports_step(grid):
    X, _ = grid.meshgrid()
    zeta0 = RealField(grid, 50.0 * np.cos(20 * X))
    params = ModelParams(
        beta=0.0, dt=5.0,
        dissipation=DissipationSpec("classical", n=2, nu=10.0),
    )
    with pytest.raises(InstabilityError) as err:
        integrate(laplacian(initial_state(zeta0).psi_curr), params, 50)
    assert err.value.step >= 1


def test_auto_dt_scales_with_velocity(grid):
    psi = two_mode_field(grid)
    dt1 = auto_dt(psi)
    dt2 = auto_dt(RealField(grid, 2.0 * psi.values))
    assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        auto_dt(RealField(grid, np.zeros(grid.shape)))


def test_step_determinism(grid):
    zeta0 = laplacian(two_mode_field(grid))
    params = ModelParams(beta=2.0, dt=0.005)
    a = integrate(zeta0, params, 20)
    b = integrate(zeta0, params, 20)
    assert np.array_equal(a.zeta_curr.values, b.zeta_curr.values)


def transforms_per_step(grid, monkeypatch, spec):
    """numpy.fft transforms per leapfrog step of a run with closure spec;
    asserts that none of them is a complex fft2/ifft2."""
    from collections import Counter

    zeta0 = laplacian(two_mode_field(grid))
    counts = Counter()
    for name in ("rfft2", "irfft2", "fft2", "ifft2"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    params = ModelParams(beta=2.0, dt=0.005, dissipation=spec)
    integrate(zeta0, params, 1)  # initial level and bootstrap only
    start_up = sum(counts.values())
    counts.clear()
    steps = 4
    integrate(zeta0, params, steps)
    assert counts["fft2"] == counts["ifft2"] == 0
    return (sum(counts.values()) - start_up) / (steps - 1)


def test_leapfrog_step_takes_five_real_transforms(grid, monkeypatch):
    """One rfft2 gives psi_hat, two irfft2 give psi and psi_x, and the
    invariant_hyper closure adds one Laplacian (two transforms): five
    real transforms per leapfrog step and no complex fft2/ifft2."""
    spec = DissipationSpec("invariant_hyper", n=2, nu=1e-6)
    assert transforms_per_step(grid, monkeypatch, spec) == 5


# The state takes 3 (psi_hat, psi, psi_x); each closure adds one rfft2
# per field it transforms and one irfft2 per term it gets back.
TRANSFORMS_PER_STEP = {
    "none": 3,
    "classical": 5,
    "invariant_hyper": 5,
    "down_gradient_invariant": 5,
    "anticipated_invariant": 8,  # psi -> psi_y, psi_xy; zeta -> zeta_yy
    "conservative_seventh": 9,  # zeta -> lap, zeta_x, zeta_y; Laplacian
    "conservative_fourth": 5,
    "isotropic_a": 5,
    "isotropic_b": 9,  # zeta -> two gradients; (fx, fy) -> divergence
}


@pytest.mark.parametrize("kind", VARIANTS)
def test_leapfrog_transforms_per_closure(grid, monkeypatch, kind):
    spec = DissipationSpec(kind, n=2, nu=1e-9, K=1e-9)
    assert transforms_per_step(grid, monkeypatch, spec) == TRANSFORMS_PER_STEP[kind]
