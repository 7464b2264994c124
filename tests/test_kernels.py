"""Arakawa bracket: discrete conservation, accuracy and the two
implementations agreeing bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betaplane.grid import Grid, RealField
from betaplane.kernels import (
    NUMBA_ENABLED,
    _arakawa_loops,
    arakawa,
    arakawa_numba,
    arakawa_numpy,
)
from betaplane.spectral import laplacian, spectral_derivative


def arakawa_roll_oracle(a, b, dx, dy):
    """The bracket as it was first written, from np.roll copies; the
    slice form must reproduce it bit for bit."""

    def xp(f):
        return np.roll(f, -1, axis=0)

    def xm(f):
        return np.roll(f, 1, axis=0)

    def yp(f):
        return np.roll(f, -1, axis=1)

    def ym(f):
        return np.roll(f, 1, axis=1)

    j1 = (xp(a) - xm(a)) * (yp(b) - ym(b)) - (yp(a) - ym(a)) * (xp(b) - xm(b))

    j2 = (
        xp(a) * (yp(xp(b)) - ym(xp(b)))
        - xm(a) * (yp(xm(b)) - ym(xm(b)))
        - yp(a) * (xp(yp(b)) - xm(yp(b)))
        + ym(a) * (xp(ym(b)) - xm(ym(b)))
    )

    j3 = (
        yp(xp(a)) * (yp(b) - xp(b))
        - ym(xm(a)) * (xm(b) - ym(b))
        - yp(xm(a)) * (yp(b) - xm(b))
        + ym(xp(a)) * (xp(b) - ym(b))
    )

    return (j1 + j2 + j3) / (12.0 * dx * dy)


def random_fields(seed, n=32):
    grid = Grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.shape)
    b = rng.standard_normal(grid.shape)
    return grid, a, b


@pytest.mark.parametrize("seed", range(5))
def test_conservation_sums_vanish(seed):
    """Sum J, sum a*J and sum b*J are zero to roundoff for any inputs."""
    grid, a, b = random_fields(seed)
    j = arakawa(a, b, grid.dx, grid.dy)
    scale = np.abs(a).max() * np.abs(b).max() / (grid.dx * grid.dy) * a.size
    assert abs(np.sum(j)) / scale < 1e-14
    assert abs(np.sum(a * j)) / (scale * np.abs(a).max()) < 1e-14
    assert abs(np.sum(b * j)) / (scale * np.abs(b).max()) < 1e-14


@pytest.mark.parametrize("seed", range(3))
def test_antisymmetry(seed):
    grid, a, b = random_fields(seed)
    jab = arakawa(a, b, grid.dx, grid.dy)
    jba = arakawa(b, a, grid.dx, grid.dy)
    assert np.allclose(jab, -jba, atol=1e-12)


def test_jacobian_of_field_with_itself_vanishes():
    grid, a, _ = random_fields(7)
    assert np.abs(arakawa(a, a, grid.dx, grid.dy)).max() < 1e-12


def test_matches_analytic_jacobian_second_order():
    """Truncation error shrinks by ~4x when the grid is refined."""
    errs = []
    for n in (32, 64, 128):
        grid = Grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
        X, Y = grid.meshgrid()
        a = np.cos(3 * X + 2 * Y)
        b = np.sin(X - 2 * Y + 0.5)
        exact = (
            -3 * np.sin(3 * X + 2 * Y) * (-2) * np.cos(X - 2 * Y + 0.5)
            - (-2) * np.sin(3 * X + 2 * Y) * np.cos(X - 2 * Y + 0.5)
        )
        j = arakawa(a, b, grid.dx, grid.dy)
        errs.append(np.abs(j - exact).max())
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0


def test_matches_spectral_jacobian_on_smooth_fields():
    grid = Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
    X, Y = grid.meshgrid()
    psi = RealField(grid, np.cos(3 * X + 2 * Y) + 0.7 * np.cos(X - 4 * Y + 1.0))
    zeta = laplacian(psi)
    j = arakawa(psi.values, zeta.values, grid.dx, grid.dy)
    j_spec = (
        spectral_derivative(psi, "x").values * spectral_derivative(zeta, "y").values
        - spectral_derivative(psi, "y").values * spectral_derivative(zeta, "x").values
    )
    rel = np.linalg.norm(j - j_spec) / np.linalg.norm(j_spec)
    assert rel < 0.05


@pytest.mark.skipif(not NUMBA_ENABLED, reason="numba not active")
def test_numba_and_numpy_paths_identical():
    grid, a, b = random_fields(11, n=48)
    j_fast = arakawa_numba(a, b, grid.dx, grid.dy)
    j_ref = arakawa_numpy(a, b, grid.dx, grid.dy)
    assert np.array_equal(j_fast, j_ref)


@pytest.mark.parametrize("nx,ny", [(4, 4), (6, 10), (32, 32)])
def test_loop_formula_bit_identical_to_numpy(nx, ny):
    """The plain-Python loops that numba compiles, run uncompiled, so
    their formula is checked where numba is not installed too."""
    grid = Grid(nx, ny, 2.0 * np.pi, 3.0)
    rng = np.random.default_rng(nx * 1000 + ny + 1)
    a = rng.standard_normal(grid.shape)
    b = rng.standard_normal(grid.shape)
    j = _arakawa_loops(a, b, grid.dx, grid.dy)
    assert np.array_equal(j, arakawa_numpy(a, b, grid.dx, grid.dy))


@pytest.mark.parametrize("nx,ny", [(4, 4), (6, 10), (64, 64), (256, 256)])
def test_numpy_bracket_bit_identical_to_roll_form(nx, ny):
    """N = 4 is the smallest legal grid, where the +1 and -1 neighbours
    wrap onto each other; 6x10 checks the axes are not swapped."""
    grid = Grid(nx, ny, 2.0 * np.pi, 3.0)
    rng = np.random.default_rng(nx * 1000 + ny)
    a = rng.standard_normal(grid.shape)
    b = rng.standard_normal(grid.shape)
    j = arakawa_numpy(a, b, grid.dx, grid.dy)
    assert np.array_equal(j, arakawa_roll_oracle(a, b, grid.dx, grid.dy))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_conservation_sums_property(seed):
    grid, a, b = random_fields(seed, n=16)
    j = arakawa_numpy(a, b, grid.dx, grid.dy)
    scale = max(1.0, np.abs(j).max()) * a.size
    assert abs(np.sum(j)) / scale < 1e-13
    assert abs(np.sum(a * j)) / (scale * max(1.0, np.abs(a).max())) < 1e-13
    assert abs(np.sum(b * j)) / (scale * max(1.0, np.abs(b).max())) < 1e-13
