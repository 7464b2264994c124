"""Spectral derivatives, the inverse-Laplacian factor, shell sums and shifts.

Convention: forward transform is unscaled, the inverse carries
1/(nx*ny), so Parseval reads sum |f|^2 = sum |fhat|^2 / (nx*ny) over the
full spectrum, or over the half spectrum with each column counted by
its ``Workspace.column_weight``.

Every real field goes to its derivatives through
``np.fft.rfft2``/``irfft2(s=grid.shape)``: the half spectrum has shape
(nx, ny//2 + 1), full fft order along x and non-negative wavenumbers
along y. The wavenumber factors and the shell table of the energy
spectra come from one read-only ``Workspace`` per grid (see
``workspace``). Only ``spectral_shift`` keeps the full complex spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, RealField


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Workspace:
    """Wavenumber factors of one grid in rfft2 shape, all read-only.

    kx has shape (nx, 1) and ky shape (1, ny//2 + 1); k2 and the
    inverse-Laplacian factor -1/k2 (zero mode set to 0) have the full
    half-spectrum shape (nx, ny//2 + 1). The first-derivative factors
    i*kx and i*ky have the shapes of kx and ky, with the Nyquist entry
    zeroed: that mode has no well-defined sign for odd derivatives.

    shell has the half-spectrum shape and holds the nearest integer of
    |k| in units of the x-fundamental 2*pi/lx; column_weight, shape
    (1, ny//2 + 1), counts each column of the half spectrum for itself
    and its conjugate twin: 1 for the zero and y-Nyquist columns, 2 for
    the interior ones.
    """

    kx: np.ndarray
    ky: np.ndarray
    k2: np.ndarray
    inv_laplacian: np.ndarray
    ikx: np.ndarray
    iky: np.ndarray
    shell: np.ndarray
    column_weight: np.ndarray

    def derivative_factor(self, axis: str, order: int) -> np.ndarray:
        """(i k)^order along axis, Nyquist zeroed for odd orders."""
        if axis == "x":
            k, ik = self.kx, self.ikx
        elif axis == "y":
            k, ik = self.ky, self.iky
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        if order == 1:
            return ik
        if order % 2:
            return ik**order
        return (-(k * k)) ** (order // 2)


@lru_cache(maxsize=None)
def workspace(grid: Grid) -> Workspace:
    """The cached Workspace of grid (Grid is frozen, so it is the key)."""
    kx = grid.kx()
    ky = 2.0 * np.pi * np.fft.rfftfreq(grid.ny, d=grid.dy)[None, :]
    k2 = kx * kx + ky * ky
    inv_laplacian = np.zeros_like(k2)
    np.divide(-1.0, k2, out=inv_laplacian, where=k2 > 0.0)
    ikx = 1j * kx
    ikx[grid.nx // 2, :] = 0.0
    iky = 1j * ky
    iky[:, grid.ny // 2] = 0.0
    mx = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)[:, None]
    my = np.fft.rfftfreq(grid.ny, d=1.0 / grid.ny)[None, :] * (grid.lx / grid.ly)
    # int32 keeps the cached table at half the size of an intp one
    shell = np.floor(np.sqrt(mx**2 + my**2) + 0.5).astype(np.int32)
    column_weight = np.full((1, grid.ny // 2 + 1), 2.0)
    column_weight[0, [0, -1]] = 1.0
    return Workspace(*(_frozen(a) for a in (kx, ky, k2, inv_laplacian, ikx, iky,
                                            shell, column_weight)))


def shell_sums(grid: Grid, mode_values: np.ndarray, n_shells: int) -> np.ndarray:
    """Sum half-spectrum mode values over shells 0..n_shells.

    Each mode is counted with its column weight, so the result equals
    the sum over the full spectrum; shells past n_shells fold into the
    last one.
    """
    ws = workspace(grid)
    return np.bincount(np.minimum(ws.shell, n_shells).ravel(),
                       weights=(mode_values * ws.column_weight).ravel(),
                       minlength=n_shells + 1)


def derive(f: RealField, *factors: np.ndarray) -> list[np.ndarray]:
    """irfft2(rfft2(f) * factor) for each factor, from one rfft2 of f."""
    fhat = np.fft.rfft2(f.values)
    return [np.fft.irfft2(fhat * factor, s=f.grid.shape) for factor in factors]


def spectral_derivative(f: RealField, axis: str, order: int = 1) -> RealField:
    """d^order f / d axis^order by multiplication with (i k)^order."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    (values,) = derive(f, workspace(f.grid).derivative_factor(axis, order))
    return RealField(f.grid, values)


def laplacian(f: RealField, power: int = 1) -> RealField:
    """Delta^power f computed spectrally."""
    if power < 1:
        raise ValueError("laplacian power must be >= 1")
    (values,) = derive(f, (-workspace(f.grid).k2) ** power)
    return RealField(f.grid, values)


def spectral_shift(f: RealField, shift_x: float, shift_y: float) -> RealField:
    """Translate f by (shift_x, shift_y): result(x) = f(x - shift).

    Exact for band-limited fields; the Nyquist modes are phase-shifted
    symmetrically via the real part. Uses the full complex spectrum:
    irfft2 would drop the imaginary part the phase gives the Nyquist
    column instead.
    """
    grid = f.grid
    if shift_x == 0.0 and shift_y == 0.0:
        return f
    fhat = np.fft.fft2(f.values)
    phase = np.exp(-1j * (grid.kx() * shift_x + grid.ky() * shift_y))
    return RealField(grid, np.fft.ifft2(fhat * phase).real)
