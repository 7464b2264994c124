"""Integral invariants and shell energy spectra.

energy_spectrum returns a plain array of shell energies, E(m) at index
m - 1; spectral.shell_energies forms them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField
from .spectral import shell_energies


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    energy: float
    enstrophy: float
    circulation: float
    x_momentum: float


class SlopeFitError(ValueError):
    pass


def integrals(psi: RealField, zeta: RealField, beta: float,
              time: float = 0.0) -> DiagnosticsRecord:
    """E = -1/2 sum psi*zeta dA, Z = 1/2 sum eta^2 dA, Gamma = sum zeta dA,
    M = sum y*zeta dA with eta = zeta + beta*y."""
    grid = psi.grid
    dA = grid.dx * grid.dy
    y = grid.y()
    eta = zeta.values + beta * y
    return DiagnosticsRecord(
        time=time,
        energy=-0.5 * float(np.sum(psi.values * zeta.values)) * dA,
        enstrophy=0.5 * float(np.sum(eta * eta)) * dA,
        circulation=float(np.sum(zeta.values)) * dA,
        x_momentum=float(np.sum(y * zeta.values)) * dA,
    )


def energy_spectrum(psi: RealField) -> np.ndarray:
    """Shell energies E(m) of 1/2 k^2 |psi_hat|^2 in integer bins
    [m-1/2, m+1/2) for m >= 1, with E(m) at index m - 1.

    Normalized so that sum_m E(m) equals the domain-average kinetic
    energy; the zero mode carries no energy and is excluded.
    """
    grid = psi.grid
    # max(nx, ny)//2 shells, so that no mode of either axis is dropped;
    # bins past it fold into the last one, which only matters in the
    # far corner. Shell 0 (the mean mode) is dropped.
    return shell_energies(grid, np.fft.rfft2(psi.values),
                          max(grid.nx, grid.ny) // 2)[1:]


def fit_slope(shells: np.ndarray, m_lo: int, m_hi: int) -> float:
    """Least-squares slope of log E vs log m over shells [m_lo, m_hi] of
    an energy_spectrum array."""
    if not 1 <= m_lo < m_hi <= len(shells):
        raise SlopeFitError(f"shell range [{m_lo}, {m_hi}] out of bounds")
    m = np.arange(m_lo, m_hi + 1)
    e = shells[m_lo - 1 : m_hi]
    if np.any(e <= 0):
        raise SlopeFitError("non-positive shell energy in fit range")
    slope, _ = np.polyfit(np.log(m), np.log(e), 1)
    return float(slope)
