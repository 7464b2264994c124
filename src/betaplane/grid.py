"""Doubly periodic grid and the real field container.

The grid builds its angular wavenumbers kx, ky in full fft shape on
each call; of the spectral code only the complex
``spectral.spectral_shift`` reads them directly. The spectral
operators, spectra and initial conditions read the rfft2-shaped
wavenumber factors and shell table of the one cached
``spectral.workspace`` per grid, which ``Grid`` can key because it is
frozen and hashable. A field is a thin immutable wrapper around a
float64 array; all numerics operate on the raw array.
"""

from __future__ import annotations

import math
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
        if not (self.lx > 0 and self.ly > 0):
            raise GridConfigError("domain lengths must be positive")
        # spectral.workspace squares the wavenumbers, inverts the least
        # square for the Poisson solve and stores each mode's shell, |k|
        # in units of 2*pi/lx, as an int32; integrals weight by dx*dy
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

    # Wavenumbers in full fft shape, rebuilt on every call; only
    # spectral_shift and the building of spectral.workspace call them.
    def kx(self) -> np.ndarray:
        """Angular wavenumbers along x, fft order, shape (nx, 1)."""
        return (2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx))[:, None]

    def ky(self) -> np.ndarray:
        """Angular wavenumbers along y, fft order, shape (1, ny)."""
        return (2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy))[None, :]

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
