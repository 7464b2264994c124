"""Spectral derivatives, inverse-Laplacian factor, shell energies and shifts.

Convention: forward transform is unscaled, the inverse carries
1/(nx*ny), so Parseval reads sum |f|^2 = sum |fhat|^2 / (nx*ny) over the
full spectrum, or over the half spectrum with each column counted by
its ``Grid.column_weight``.

Every real field goes to its derivatives through
``np.fft.rfft2``/``irfft2(s=grid.shape)``: the half spectrum has shape
(nx, ny//2 + 1), full fft order along x and non-negative wavenumbers
along y. The wavenumber factors and the shell table of the energy
spectra are the read-only tables of the grid, built once per grid
object and freed with it. Only ``spectral_shift`` keeps the full
complex spectrum. ``shell_energies`` is the one place that forms the
shell energies of a half spectrum, for the initial condition and for
``diagnostics.energy_spectrum`` alike.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, RealField


def shell_energies(grid: Grid, psi_hat: np.ndarray, n_shells: int) -> np.ndarray:
    """Mode energies 1/2 k^2 |psi_hat|^2 of a half spectrum, summed over
    shells 0..n_shells.

    Normalized so that the shells sum to the domain-average energy (the
    unscaled forward transform needs 1/(nx*ny)^2). Each mode is counted
    with its column weight, so the result equals the sum over the full
    spectrum; shells past n_shells fold into the last one.
    """
    mode_e = 0.5 * grid.k2 * np.abs(psi_hat) ** 2 / (grid.nx * grid.ny) ** 2
    return np.bincount(np.minimum(grid.shell, n_shells).ravel(),
                       weights=(mode_e * grid.column_weight).ravel(),
                       minlength=n_shells + 1)


def derive(f: RealField, *factors: np.ndarray) -> list[np.ndarray]:
    """irfft2(rfft2(f) * factor) for each factor, from one rfft2 of f."""
    fhat = np.fft.rfft2(f.values)
    return [np.fft.irfft2(fhat * factor, s=f.grid.shape) for factor in factors]


def _derivative_factor(grid: Grid, axis: str, order: int) -> np.ndarray:
    """(i k)^order along axis, Nyquist zeroed for odd orders."""
    if axis == "x":
        k, ik = grid.kx, grid.ikx
    elif axis == "y":
        k, ik = grid.ky, grid.iky
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if order == 1:
        return ik
    if order % 2:
        return ik**order
    return (-(k * k)) ** (order // 2)


def spectral_derivative(f: RealField, axis: str, order: int = 1) -> RealField:
    """d^order f / d axis^order by multiplication with (i k)^order."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    (values,) = derive(f, _derivative_factor(f.grid, axis, order))
    return RealField(f.grid, values)


def laplacian(f: RealField, power: int = 1) -> RealField:
    """Delta^power f computed spectrally."""
    if power < 1:
        raise ValueError("laplacian power must be >= 1")
    (values,) = derive(f, (-f.grid.k2) ** power)
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
    ky = (2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy))[None, :]
    phase = np.exp(-1j * (grid.kx * shift_x + ky * shift_y))
    return RealField(grid, np.fft.ifft2(fhat * phase).real)
