"""Grid geometry and field container invariants."""

from __future__ import annotations

import numpy as np
import pytest

from betaplane.grid import Grid, GridConfigError, RealField


def test_grid_spacing_and_shape():
    grid = Grid(8, 16, 2.0, 4.0)
    assert grid.dx == pytest.approx(0.25)
    assert grid.dy == pytest.approx(0.25)
    assert grid.shape == (8, 16)


def test_grid_points_cover_half_open_interval():
    grid = Grid(8, 8, 2.0 * np.pi, 2.0 * np.pi)
    x = grid.x()
    assert x[0, 0] == 0.0
    assert x[-1, 0] == pytest.approx(2.0 * np.pi - grid.dx)


@pytest.mark.parametrize("nx,ny", [(3, 8), (8, 3), (7, 8), (8, 7), (2, 8)])
def test_grid_rejects_odd_or_tiny(nx, ny):
    with pytest.raises(GridConfigError):
        Grid(nx, ny, 1.0, 1.0)


def test_grid_rejects_nonpositive_lengths():
    with pytest.raises(GridConfigError):
        Grid(8, 8, 0.0, 1.0)


def test_wavenumbers_match_fftfreq():
    grid = Grid(16, 16, 2.0 * np.pi, 2.0 * np.pi)
    kx = grid.kx[:, 0]
    assert kx[0] == 0.0
    assert kx[1] == pytest.approx(1.0)
    assert kx[8] == pytest.approx(-8.0)
    assert grid.ky.shape == (1, 9)
    assert grid.ky[0, 8] == pytest.approx(8.0)


def test_real_field_shape_mismatch():
    grid = Grid(8, 8, 1.0, 1.0)
    with pytest.raises(GridConfigError):
        RealField(grid, np.zeros((8, 4)))


def test_real_field_rejects_nan():
    grid = Grid(8, 8, 1.0, 1.0)
    values = np.zeros(grid.shape)
    values[3, 3] = np.nan
    with pytest.raises(ValueError):
        RealField(grid, values)
