"""Spectral derivatives, the stepper's Poisson inversion and shifts
against analytic trigonometric oracles and a complex-fft2 reference,
plus the grid's spectral tables they read."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from betaplane.dynamics import initial_state
from betaplane.grid import Grid, RealField
from betaplane.spectral import derive, laplacian, spectral_shift

TABLES = ("kx", "ky", "k2", "inv_laplacian", "ikx", "iky", "shell",
          "column_weight")


def poisson(zeta):
    """The streamfunction the stepper inverts from zeta."""
    return initial_state(zeta).psi_curr


@pytest.fixture
def grid():
    return Grid(32, 32, 2.0 * np.pi, 2.0 * np.pi)


def trig_field(grid, k, l, phase=0.3):
    X, Y = grid.meshgrid()
    return RealField(grid, np.cos(k * X + l * Y + phase))


def test_parseval(grid):
    """Parseval on the half spectrum, each column counted by its weight."""
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    weighted = np.abs(np.fft.rfft2(f)) ** 2 * grid.column_weight
    assert np.sum(f**2) == pytest.approx(np.sum(weighted) / f.size, rel=1e-12)


@pytest.mark.parametrize("k,l", [(1, 0), (0, 2), (3, -5), (-4, 7)])
def test_first_derivatives_exact(grid, k, l):
    f = trig_field(grid, k, l)
    X, Y = grid.meshgrid()
    fx, fy = derive(f, grid.ikx, grid.iky)
    assert np.allclose(fx, -k * np.sin(k * X + l * Y + 0.3), atol=1e-11)
    assert np.allclose(fy, -l * np.sin(k * X + l * Y + 0.3), atol=1e-11)


def test_second_derivative_and_laplacian(grid):
    f = trig_field(grid, 3, 2)
    (fxx,) = derive(f, -(grid.kx * grid.kx))
    assert np.allclose(fxx, -9.0 * f.values, atol=1e-10)
    lap = laplacian(f)
    assert np.allclose(lap.values, -13.0 * f.values, atol=1e-10)
    lap2 = laplacian(f, 2)
    assert np.allclose(lap2.values, 169.0 * f.values, atol=1e-8)


def test_odd_derivative_zeroes_nyquist(grid):
    X, _ = grid.meshgrid()
    f = RealField(grid, np.cos(16.0 * X))  # pure Nyquist mode along x
    (fx,) = derive(f, grid.ikx)
    assert np.abs(fx).max() < 1e-12


def test_poisson_roundtrip(grid):
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(grid.shape)
    psi = RealField(grid, noise - noise.mean())
    zeta = laplacian(psi)
    back = poisson(zeta)
    assert np.allclose(back.values, psi.values, atol=1e-11)


def test_poisson_result_zero_mean(grid):
    f = trig_field(grid, 2, 1)
    psi = poisson(f)
    assert abs(psi.values.mean()) < 1e-14


def test_shift_exact_on_band_limited(grid):
    f = trig_field(grid, 3, -2)
    X, Y = grid.meshgrid()
    sx, sy = 0.37, -1.21
    shifted = spectral_shift(f, sx, sy)
    expected = np.cos(3 * (X - sx) - 2 * (Y - sy) + 0.3)
    assert np.allclose(shifted.values, expected, atol=1e-12)


def test_shift_by_grid_cell_is_roll(grid):
    rng = np.random.default_rng(3)
    f = RealField(grid, rng.standard_normal(grid.shape))
    shifted = spectral_shift(f, grid.dx, 0.0)
    assert np.allclose(shifted.values, np.roll(f.values, 1, axis=0), atol=1e-11)


def test_laplacian_rejects_power_below_one(grid):
    """A Laplacian power below 1 is refused."""
    f = trig_field(grid, 1, 1)
    with pytest.raises(ValueError):
        laplacian(f, 0)


# Non-square grid with lx != ly; a random field has energy in the
# Nyquist row and column, where rfft2 and fft2 handle modes differently.
ODD_GRID = Grid(12, 8, 2.0, 3.5)


def random_field(grid, seed=5):
    f = RealField(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    fhat = np.fft.fft2(f.values)
    assert np.abs(fhat[grid.nx // 2, :]).min() > 0.0
    assert np.abs(fhat[:, grid.ny // 2]).min() > 0.0
    return f


def complex_reference(f, factor):
    """The operator through the full complex spectrum."""
    return np.fft.ifft2(np.fft.fft2(f.values) * factor).real


def full_ky(grid):
    """Angular wavenumbers along y over the full spectrum, shape (1, ny)."""
    return (2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy))[None, :]


def full_k2(grid):
    """kx^2 + ky^2 on the full (nx, ny) fft grid."""
    return grid.kx ** 2 + full_ky(grid) ** 2


def assert_matches(got, ref):
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def table_factor(grid, axis, order):
    """d^order/d axis^order composed from the grid's tables, as callers
    of derive write it: (-k*k)^(order//2), times i*k for odd orders."""
    k, ik = (grid.kx, grid.ikx) if axis == "x" else (grid.ky, grid.iky)
    even = (-(k * k)) ** (order // 2)
    return even * ik if order % 2 else even


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matches_complex_reference(axis, order):
    grid = ODD_GRID
    f = random_field(grid)
    k = grid.kx if axis == "x" else full_ky(grid)
    factor = (1j * k) ** order
    if order % 2:
        if axis == "x":
            factor[grid.nx // 2, :] = 0.0
        else:
            factor[:, grid.ny // 2] = 0.0
    (got,) = derive(f, table_factor(grid, axis, order))
    assert_matches(got, complex_reference(f, factor))


@pytest.mark.parametrize("power", [1, 2, 3])
def test_laplacian_matches_complex_reference(power):
    f = random_field(ODD_GRID)
    got = laplacian(f, power).values
    assert_matches(got, complex_reference(f, (-full_k2(ODD_GRID)) ** power))


def test_poisson_matches_complex_reference():
    f = random_field(ODD_GRID)
    k2 = full_k2(ODD_GRID)
    k2[0, 0] = 1.0
    factor = -1.0 / k2
    factor[0, 0] = 0.0
    assert_matches(poisson(f).values, complex_reference(f, factor))


@pytest.mark.parametrize("order", [1, 3])
def test_odd_derivatives_zero_nyquist_on_both_axes(order):
    grid = ODD_GRID
    f = random_field(grid)
    fx, fy = derive(f, table_factor(grid, "x", order),
                    table_factor(grid, "y", order))
    fx_hat, fy_hat = np.fft.rfft2(fx), np.fft.rfft2(fy)
    scale = np.abs(np.fft.rfft2(f.values)).max()
    assert np.abs(fx_hat[grid.nx // 2, :]).max() < 1e-12 * scale
    assert np.abs(fy_hat[:, grid.ny // 2]).max() < 1e-12 * scale


def test_derive_equals_one_transform_per_operator():
    grid = ODD_GRID
    f = random_field(grid)
    factors = (grid.ikx, -grid.k2, -(grid.ky * grid.ky))
    together = derive(f, *factors)
    for got, factor in zip(together, factors):
        assert np.array_equal(got, derive(f, factor)[0])
    assert np.array_equal(together[1], laplacian(f).values)


def test_workspace_arrays_are_read_only():
    """The eight spectral tables of a grid reject writes."""
    for name in TABLES:
        array = getattr(ODD_GRID, name)
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
        with pytest.raises(ValueError):
            array *= 2.0


def test_grid_tables_are_built_once_and_freed_with_the_grid():
    grid = Grid(12, 8, 2.0, 3.5)
    f = random_field(grid)
    derive(f, grid.ikx)
    laplacian(f)
    poisson(f)
    for name in TABLES:
        assert getattr(grid, name) is getattr(grid, name)
    dropped = weakref.ref(grid)
    del grid, f
    gc.collect()
    assert dropped() is None
