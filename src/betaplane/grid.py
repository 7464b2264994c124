"""Doubly periodic grid and field containers.

The grid builds its angular wavenumber arrays on each call, in full fft
shape. The spectral operators do not call them per step: they read the
rfft2-shaped arrays of the one cached ``spectral.workspace`` per grid,
which ``Grid`` can key because it is frozen and hashable. Fields are
thin immutable wrappers around float64/complex128 arrays; all numerics
operate on the raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridConfigError(ValueError):
    """Raised for grids that cannot support the spectral operators."""


@dataclass(frozen=True)
class Grid:
    """Uniform doubly periodic grid on [0, lx) x [0, ly).

    Points sit at (i*dx, j*dy) with arrays indexed [i, j], i along x.
    nx and ny must be even and at least 4 so that Nyquist handling and
    the Arakawa stencil are well defined.
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
        if self.lx <= 0 or self.ly <= 0:
            raise GridConfigError("domain lengths must be positive")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    # Wavenumber helpers in full fft shape, rebuilt on every call; the
    # stepper reads the cached rfft2-shaped ones of spectral.workspace.
    def kx(self) -> np.ndarray:
        """Angular wavenumbers along x, fft order, shape (nx, 1)."""
        return (2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx))[:, None]

    def ky(self) -> np.ndarray:
        """Angular wavenumbers along y, fft order, shape (1, ny)."""
        return (2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy))[None, :]

    def k2(self) -> np.ndarray:
        """kx^2 + ky^2 on the full (nx, ny) spectral grid."""
        kx = self.kx()
        ky = self.ky()
        return kx * kx + ky * ky

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

    def __add__(self, other: "RealField") -> "RealField":
        self._check(other)
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other: "RealField") -> "RealField":
        self._check(other)
        return RealField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "RealField":
        return RealField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check(self, other: "RealField"):
        if other.grid != self.grid:
            raise GridConfigError("fields live on different grids")


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a real field, fft ordering.

    coefficients[kx_index, ky_index] with the unscaled-forward
    convention; conjugate symmetry holds whenever the field it came
    from was real.
    """

    grid: Grid
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise GridConfigError(
                f"coefficient shape {c.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "coefficients", c)
