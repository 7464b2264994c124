"""Integral diagnostics and shell spectra against analytic oracles."""

from __future__ import annotations

import numpy as np
import pytest

from betaplane.diagnostics import (
    SlopeFitError,
    energy_spectrum,
    fit_slope,
    integrals,
)
from betaplane.config import IcSpec, RunConfig, generate_initial_condition
from betaplane.grid import Grid, RealField
from betaplane.spectral import laplacian


def full_fft_spectrum_oracle(psi, n_shells):
    """The shell spectrum as it was first written, on the full complex
    fft2 with np.add.at binning; shells 1..n_shells, later ones folded
    into the last."""
    grid = psi.grid
    psihat = np.fft.fft2(psi.values)
    ky = (2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy))[None, :]
    k2 = grid.kx ** 2 + ky ** 2
    mode_e = 0.5 * k2 * np.abs(psihat) ** 2 / (grid.nx * grid.ny) ** 2
    kx_idx = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)[:, None]
    ky_idx = np.fft.fftfreq(grid.ny, d=1.0 / grid.ny)[None, :] * (grid.lx / grid.ly)
    shell = np.floor(np.sqrt(kx_idx**2 + ky_idx**2) + 0.5).astype(np.intp)
    shells = np.zeros(n_shells + 1)
    np.add.at(shells, np.minimum(shell, n_shells), mode_e)
    return shells[1:]


# Non-square, lx != ly: the shell index scales ky by lx/ly, and the
# half spectrum has both a zero and a Nyquist column to weight once.
ODD_GRID = Grid(12, 8, 2.0, 3.5)


def test_spectrum_matches_full_fft_oracle_on_non_square_grid():
    rng = np.random.default_rng(4)
    psi = RealField(ODD_GRID, rng.standard_normal(ODD_GRID.shape))
    shells = energy_spectrum(psi)
    assert len(shells) == max(ODD_GRID.nx, ODD_GRID.ny) // 2
    ref = full_fft_spectrum_oracle(psi, len(shells))
    assert np.abs(shells - ref).max() <= 1e-12 * np.abs(ref).max()


def test_initial_condition_band_limited_on_non_square_grid():
    cfg = RunConfig(grid=ODD_GRID, beta=0.0, steps=1, ic=IcSpec(k0=2.0, p=2.0, q=6.0))
    psi = generate_initial_condition(cfg)
    cutoff = min(ODD_GRID.nx, ODD_GRID.ny) // 2
    shells = full_fft_spectrum_oracle(psi, 4 * cutoff)  # no folding
    assert shells[cutoff - 1] > 0.0
    assert np.abs(shells[cutoff:]).max() <= 1e-14 * shells.sum()


@pytest.fixture
def grid():
    return Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)


def test_integrals_single_mode(grid):
    """psi = cos(3x): E = -1/2 sum psi*zeta dA = 9/2 * area/2."""
    X, _ = grid.meshgrid()
    psi = RealField(grid, np.cos(3.0 * X))
    zeta = laplacian(psi)
    rec = integrals(psi, zeta, beta=0.0, time=2.0)
    area = grid.lx * grid.ly
    assert rec.time == 2.0
    assert rec.energy == pytest.approx(0.5 * 9.0 * 0.5 * area, rel=1e-12)
    assert rec.enstrophy == pytest.approx(0.5 * 81.0 * 0.5 * area, rel=1e-12)
    assert rec.circulation == pytest.approx(0.0, abs=1e-9)


def test_enstrophy_includes_beta_ramp(grid):
    psi = RealField(grid, np.zeros(grid.shape))
    zeta = RealField(grid, np.zeros(grid.shape))
    beta = 2.0
    rec = integrals(psi, zeta, beta=beta)
    y = grid.y()
    expected = 0.5 * float(np.sum((beta * y) ** 2)) * grid.dx * grid.dy * grid.nx
    assert rec.enstrophy == pytest.approx(expected, rel=1e-12)


def test_x_momentum_of_y_mode(grid):
    _, Y = grid.meshgrid()
    zeta = RealField(grid, np.cos(Y))
    psi = RealField(grid, np.zeros(grid.shape))
    rec = integrals(psi, zeta, beta=0.0)
    # The continuum integral of y*cos(y) over a period is 0, but the
    # plain one-sided grid sum against the sawtooth weight y carries a
    # first-order seam term -(ly/2)*dy*(integral of zeta along y = 0).
    seam = -(grid.ly / 2.0) * grid.dy * grid.lx
    assert rec.x_momentum == pytest.approx(seam, rel=1e-2)


def test_spectrum_sums_to_average_energy(grid):
    rng = np.random.default_rng(0)
    psi = RealField(grid, rng.standard_normal(grid.shape))
    psi = RealField(grid, psi.values - psi.values.mean())
    zeta = laplacian(psi)
    spec = energy_spectrum(psi)
    avg_e = -0.5 * float(np.sum(psi.values * zeta.values)) / psi.values.size
    assert float(np.sum(spec)) == pytest.approx(avg_e, rel=1e-10)


def test_spectrum_single_shell(grid):
    X, Y = grid.meshgrid()
    psi = RealField(grid, np.cos(3.0 * X) + np.cos(3.0 * Y))
    spec = energy_spectrum(psi)
    assert spec[2] == pytest.approx(0.5 * 9.0, rel=1e-12)  # shell m=3
    others = np.delete(spec, 2)
    assert np.abs(others).max() < 1e-12


def test_fit_slope_recovers_power_law(grid):
    m = np.arange(1.0, 33.0)
    spec_values = 2.7 * m**-3.0
    slope = fit_slope(spec_values, 4, 16)
    assert slope == pytest.approx(-3.0, abs=1e-12)


def test_fit_slope_range_validation():
    spec = np.ones(16)
    with pytest.raises(SlopeFitError):
        fit_slope(spec, 8, 40)
    with pytest.raises(SlopeFitError):
        fit_slope(spec, 8, 8)
    spec0 = np.zeros(16)
    with pytest.raises(SlopeFitError):
        fit_slope(spec0, 2, 8)
