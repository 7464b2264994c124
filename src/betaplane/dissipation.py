"""Closure terms D(psi, zeta) for the vorticity tendency.

All variants return the contribution to the raw zeta equation
zeta_t + J(psi, zeta) + beta psi_x = D. Derivatives are spectral except
the bracket inside the anticipated-vorticity closure, which uses the
Arakawa stencil like the resolved advection. Every field is forward
transformed once however many of its derivatives a closure needs
(``spectral.derive``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RealField
from .kernels import arakawa
from .spectral import derive, laplacian, spectral_derivative

VARIANTS = (
    "none",
    "classical",
    "invariant_hyper",
    "down_gradient_invariant",
    "anticipated_invariant",
    "conservative_seventh",
    "conservative_fourth",
    "isotropic_a",
    "isotropic_b",
)

_NEEDS_N = {"classical", "invariant_hyper", "isotropic_a", "isotropic_b"}
_NEEDS_PSI_X = {"invariant_hyper", "down_gradient_invariant", "anticipated_invariant"}


class DissipationOverflowError(FloatingPointError):
    """Non-finite closure output, typically too-large nu or field amplitude."""


@dataclass(frozen=True)
class DissipationSpec:
    """Tagged closure choice.

    kind: one of VARIANTS; n is the (hyper)diffusion order where it
    applies; nu the viscosity-like coefficient; K the down-gradient
    exchange coefficient.
    """

    kind: str = "none"
    n: int = 2
    nu: float = 0.0
    K: float = 0.0

    def __post_init__(self):
        if self.kind not in VARIANTS:
            raise ValueError(f"unknown dissipation kind {self.kind!r}")
        if self.kind in _NEEDS_N and self.n < 1:
            raise ValueError("dissipation order n must be >= 1")
        if not (self.nu >= 0 and self.K >= 0):
            raise ValueError("nu and K must be non-negative")


def _finite(spec: "DissipationSpec", values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise DissipationOverflowError(
            f"non-finite output from {spec.kind} closure "
            f"(nu={spec.nu}, K={spec.K})"
        )
    return values


def dissipation(spec: DissipationSpec, psi: RealField, zeta: RealField,
                beta: float = 0.0) -> RealField:
    """Evaluate the closure D on the grid, checked finite."""
    psi_x = spectral_derivative(psi, "x").values if spec.kind in _NEEDS_PSI_X else None
    return RealField(psi.grid, closure(spec, psi, psi_x, zeta, beta))


def closure(spec: DissipationSpec, psi: RealField, psi_x: np.ndarray | None,
            zeta: RealField, beta: float) -> np.ndarray:
    """The closure D as an array, given psi_x = d(psi)/dx from the caller.

    The stepper carries psi_x with its streamfunction, so the closures
    that weight by |psi_x| transform nothing to get it. psi_x may be
    None for the kinds that do not use it. A non-finite D raises
    DissipationOverflowError.
    """
    grid = psi.grid
    n, nu, K = spec.n, spec.nu, spec.K
    sign = (-1.0) ** (n - 1)

    if spec.kind == "none":
        return np.zeros(grid.shape)

    if spec.kind == "classical":
        d = sign * nu * laplacian(zeta, n).values
    elif spec.kind == "invariant_hyper":
        d = sign * nu * np.abs(psi_x) ** ((2 * n + 1) / 2) * laplacian(zeta, n).values
    elif spec.kind == "down_gradient_invariant":
        d = K * np.sign(psi_x) * np.abs(psi_x) ** 1.5 * laplacian(zeta).values
    elif spec.kind == "anticipated_invariant":
        # eta = zeta + beta*y is split analytically so the stencil never
        # sees the non-periodic beta*y ramp:
        # J(psi_y, eta) = J(psi_y, zeta) + beta*psi_xy, eta_yy = zeta_yy.
        psi_y, psi_xy = derive(psi, grid.iky, grid.iky * grid.ikx)
        bracket = arakawa(psi_y, zeta.values, grid.dx, grid.dy) + beta * psi_xy
        zeta_yy = spectral_derivative(zeta, "y", 2).values
        d = nu * np.sqrt(np.abs(psi_x)) * (np.sign(psi_x) * bracket + psi_x * zeta_yy)
    elif spec.kind == "conservative_seventh":
        z = zeta.values
        lap_z, zx, zy = derive(zeta, -grid.k2, grid.ikx, grid.iky)
        with np.errstate(over="ignore", invalid="ignore"):
            inner = _finite(spec, z**5 * lap_z + 6.0 * z**4 * (zx**2 + zy**2))
        d = 7.0 * nu * laplacian(RealField(grid, inner)).values
    elif spec.kind == "conservative_fourth":
        d = nu * laplacian(RealField(grid, _finite(spec, zeta.values**4))).values
    elif spec.kind == "isotropic_a":
        d = sign * nu * zeta.values ** (2 * n + 1) * laplacian(zeta, n).values
    elif spec.kind == "isotropic_b":
        core = (-grid.k2) ** (n - 1)
        core_x, core_y = derive(zeta, core * grid.ikx, core * grid.iky)
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = zeta.values ** (2 * n + 1)
            fx = _finite(spec, coeff * core_x)
            fy = _finite(spec, coeff * core_y)
        # the divergence of (fx, fy) from one inverse transform
        div_hat = np.fft.rfft2(fx) * grid.ikx + np.fft.rfft2(fy) * grid.iky
        d = sign * nu * np.fft.irfft2(div_hat, s=grid.shape)
    else:  # pragma: no cover - guarded by DissipationSpec
        raise ValueError(spec.kind)

    return _finite(spec, d)
