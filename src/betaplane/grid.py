"""Doubly periodic grid and the real field container.

A grid owns its spectral tables: the rfft2-shaped wavenumbers, the
derivative and inverse-Laplacian factors the spectral operators
multiply by, and the shell table of the energy spectra. Each is built
on first read, is read-only, and lives on the grid object, so it is
freed with the grid; equality and hashing still use only nx, ny, lx
and ly. A field is a thin immutable wrapper around a float64 array;
all numerics operate on the raw array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np


class GridConfigError(ValueError):
    """Raised for grids that cannot support the spectral operators."""


def _table(build):
    """A read-only array property, built once per grid object."""
    @wraps(build)
    def read_only(grid):
        table = build(grid)
        table.flags.writeable = False
        return table
    return cached_property(read_only)


@dataclass(frozen=True)
class Grid:
    """Uniform doubly periodic grid on [0, lx) x [0, ly).

    Points sit at (i*dx, j*dy) with arrays indexed [i, j], i along x.
    nx and ny must be even and at least 4 so that Nyquist handling and
    the Arakawa stencil are well defined.

    The spectral tables have the rfft2 shape of the half spectrum: full
    fft order along x, non-negative wavenumbers along y.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4 or self.nx % 2 or self.ny % 2:
            raise GridConfigError(
                f"grid must have even nx, ny >= 4, got {self.nx}x{self.ny}"
            )
        if not (self.lx > 0 and self.ly > 0):
            raise GridConfigError("domain lengths must be positive")
        # the tables below square the wavenumbers (k2), invert the least
        # square (inv_laplacian) and store each mode's shell, |k| in units
        # of 2*pi/lx, as an int32; integrals weight by dx*dy
        kx, ky = math.pi * self.nx / self.lx, math.pi * self.ny / self.ly
        shell = math.hypot(self.nx / 2, self.ny / 2 * (self.lx / self.ly))
        k_min = 2.0 * math.pi / max(self.lx, self.ly)
        if not (math.isfinite(kx * kx + ky * ky) and shell + 0.5 < 2**31
                and math.isfinite(self.dx * self.dy) and k_min * k_min > 0.0
                and math.isfinite(1.0 / (k_min * k_min))):
            raise GridConfigError(
                f"grid lx = {self.lx!r}, ly = {self.ly!r}: the cell area, "
                f"wavenumbers or shell indices of a {self.nx}x{self.ny} grid "
                "are out of range"
            )

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @_table
    def kx(self) -> np.ndarray:
        """Angular wavenumbers along x, fft order, shape (nx, 1)."""
        return (2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx))[:, None]

    @_table
    def ky(self) -> np.ndarray:
        """Non-negative angular wavenumbers along y, shape (1, ny//2 + 1)."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.ny, d=self.dy)[None, :]

    @_table
    def k2(self) -> np.ndarray:
        """kx^2 + ky^2, shape (nx, ny//2 + 1)."""
        return self.kx * self.kx + self.ky * self.ky

    @_table
    def inv_laplacian(self) -> np.ndarray:
        """The Poisson factor -1/k2, with the zero mode set to 0."""
        inv_laplacian = np.zeros_like(self.k2)
        np.divide(-1.0, self.k2, out=inv_laplacian, where=self.k2 > 0.0)
        return inv_laplacian

    # The first-derivative factors zero the Nyquist entry: that mode has
    # no well-defined sign for odd derivatives.
    @_table
    def ikx(self) -> np.ndarray:
        """i*kx, shape (nx, 1), Nyquist zeroed."""
        ikx = 1j * self.kx
        ikx[self.nx // 2, :] = 0.0
        return ikx

    @_table
    def iky(self) -> np.ndarray:
        """i*ky, shape (1, ny//2 + 1), Nyquist zeroed."""
        iky = 1j * self.ky
        iky[:, self.ny // 2] = 0.0
        return iky

    @_table
    def shell(self) -> np.ndarray:
        """Nearest integer of |k| in units of 2*pi/lx, int32, shape of k2."""
        mx = np.fft.fftfreq(self.nx, d=1.0 / self.nx)[:, None]
        my = np.fft.rfftfreq(self.ny, d=1.0 / self.ny)[None, :] * (self.lx / self.ly)
        # int32 keeps the table at half the size of an intp one
        return np.floor(np.sqrt(mx**2 + my**2) + 0.5).astype(np.int32)

    @_table
    def column_weight(self) -> np.ndarray:
        """How often each half-spectrum column counts, shape (1, ny//2 + 1).

        1 for the zero and y-Nyquist columns, 2 for the interior ones,
        which stand for themselves and their conjugate twins.
        """
        column_weight = np.full((1, self.ny // 2 + 1), 2.0)
        column_weight[0, [0, -1]] = 1.0
        return column_weight

    def x(self) -> np.ndarray:
        return (np.arange(self.nx) * self.dx)[:, None]

    def y(self) -> np.ndarray:
        return (np.arange(self.ny) * self.dy)[None, :]

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.broadcast_to(self.x(), self.shape), np.broadcast_to(self.y(), self.shape)


@dataclass(frozen=True)
class RealField:
    """Real scalar field sampled on a Grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise GridConfigError(
                f"field shape {v.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)
