"""Integral invariants and shell-averaged energy spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField
from .spectral import shell_sums, workspace


@dataclass(frozen=True)
class SpectrumResult:
    """Shell energies E(m) indexed by the dimensionless wavenumber m >= 1.

    shells[m - 1] holds E(m); the sum over shells equals the average
    kinetic energy (zero mode excluded). anisotropic_warning flags
    binning done on the x-fundamental of a non-square domain.
    """

    shells: np.ndarray
    anisotropic_warning: bool = False

    def shell_range(self) -> np.ndarray:
        return np.arange(1, len(self.shells) + 1)


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


def energy_spectrum(psi: RealField) -> SpectrumResult:
    """Shell-average 1/2 k^2 |psi_hat|^2 into integer bins [m-1/2, m+1/2).

    Normalized so that sum_m E(m) equals the domain-average kinetic
    energy; the zero mode carries no energy and is excluded.
    """
    grid = psi.grid
    # mode energies, normalized to average energy (Parseval for the
    # unscaled-forward convention needs 1/(nx*ny)^2)
    mode_e = 0.5 * workspace(grid).k2 * np.abs(np.fft.rfft2(psi.values)) ** 2
    mode_e /= (grid.nx * grid.ny) ** 2
    # max(nx, ny)//2 shells, so that no mode of either axis is dropped;
    # bins past it fold into the last one, which only matters in the
    # far corner. Shell 0 (the mean mode) is dropped.
    shells = shell_sums(grid, mode_e, max(grid.nx, grid.ny) // 2)
    return SpectrumResult(shells=shells[1:], anisotropic_warning=grid.lx != grid.ly)


def fit_slope(spec: SpectrumResult, m_lo: int, m_hi: int) -> float:
    """Least-squares slope of log E vs log m over shells [m_lo, m_hi]."""
    if not 1 <= m_lo < m_hi <= len(spec.shells):
        raise SlopeFitError(f"shell range [{m_lo}, {m_hi}] out of bounds")
    m = np.arange(m_lo, m_hi + 1)
    e = spec.shells[m_lo - 1 : m_hi]
    if np.any(e <= 0):
        raise SlopeFitError("non-positive shell energy in fit range")
    slope, _ = np.polyfit(np.log(m), np.log(e), 1)
    return float(slope)
