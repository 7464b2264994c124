"""Divergence identities and conservation budgets of the closures.

The conservative closure D = nu*Delta(Delta(zeta^7)/zeta) admits every
zero-order characteristic of the inviscid equation: lambda = f(t)
(circulation family), lambda = g(t)*y (x-momentum family) and
lambda = psi (energy). The three identities express lambda*L, with
L = zeta_t + psi_x zeta_y - psi_y zeta_x + beta psi_x - D, as an exact
divergence D_t F^t + D_x F^x + D_y F^y. Both sides are evaluated at jet
level: the fluxes are exact differential polynomials (times f, g, y),
their outer total derivatives come from Richardson-extrapolated central
differences on exact jets.

Grid-level budgets report the instantaneous tendencies of the integral
invariants contributed by a closure alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .dissipation import DissipationSpec, dissipation
from .grid import RealField
from .identities import FD_H_SCALE, central_difference, stencil_points
from .jets import (
    AnalyticField,
    CompiledPoly,
    Jet,
    JetPoly,
    TimeFunction,
    ZETA,
    analytic_jets,
    jp_add,
    jp_compile,
    jp_coord,
    jp_mul,
    jp_pow,
    jp_scale,
    jp_total_derivative,
)

CHARACTERISTICS = ("f", "gy", "psi")


def _laplacian_poly(p: JetPoly) -> JetPoly:
    return jp_add(
        jp_total_derivative(jp_total_derivative(p, 1), 1),
        jp_total_derivative(jp_total_derivative(p, 2), 2),
    )


def _build_polys() -> dict[str, JetPoly]:
    zeta = ZETA
    zeta_x = jp_total_derivative(zeta, 1)
    zeta_y = jp_total_derivative(zeta, 2)
    zeta_t = jp_total_derivative(zeta, 0)
    # Q = Delta(zeta^7)/zeta expanded to polynomial form:
    # 7*zeta^5*Delta(zeta) + 42*zeta^4*(grad zeta)^2
    grad2 = jp_add(jp_mul(zeta_x, zeta_x), jp_mul(zeta_y, zeta_y))
    q = jp_add(
        jp_scale(jp_mul(jp_pow(zeta, 5), _laplacian_poly(zeta)), 7.0),
        jp_scale(jp_mul(jp_pow(zeta, 4), grad2), 42.0),
    )
    zeta7 = jp_pow(zeta, 7)
    return {
        "zeta": zeta,
        "zeta_x": zeta_x,
        "zeta_y": zeta_y,
        "zeta_t": zeta_t,
        "q": q,
        "q_x": jp_total_derivative(q, 1),
        "q_y": jp_total_derivative(q, 2),
        "d": _laplacian_poly(q),
        "zeta7_x": jp_total_derivative(zeta7, 1),
        "zeta7_y": jp_total_derivative(zeta7, 2),
        # inviscid part of L, without the beta*psi_x term
        "advection": jp_add(
            zeta_t,
            jp_mul(jp_coord((0, 1, 0)), zeta_y),
            jp_scale(jp_mul(jp_coord((0, 0, 1)), zeta_x), -1.0),
        ),
    }


_POLYS = _build_polys()

# Highest jet order touched: D = Delta(Q) has order 6; the fluxes stop
# at order 5.
_L_ORDER = 6
_FLUX_ORDER = 5


@functools.lru_cache(maxsize=8)
def _compiled_polys(names: tuple[str, ...]) -> CompiledPoly:
    """The named fixed polynomials, compiled together; on first use, so
    importing the module costs no more."""
    return jp_compile(*(_POLYS[name] for name in names))


def _poly_values(z: Jet, names: tuple[str, ...]) -> Mapping[str, float]:
    """The named fixed polynomials at a jet, evaluated in one array
    pass, == jp_eval(_POLYS[name], z); reading any other name raises
    KeyError."""
    values = _compiled_polys(names).evaluate(z).tolist()
    return MappingProxyType(dict(zip(names, values)))


def _finite(entry: tuple | None) -> tuple:
    """A record entry; the record leaves out a non-finite jet."""
    if entry is None:
        raise ValueError("jet contains non-finite values")
    return entry


class FluxStencil:
    """The jets the f, gy and psi residuals at one base point read.

    The point is converted to floats, and the step h is FD_H_SCALE times
    the field's shortest wavelength, as for identities.Neighbourhood.
    Each order is built in one pass: _L_ORDER at the point itself, with
    the _poly_values of _CENTRE_POLYS, _FLUX_ORDER at the points of the
    x and y stencils of identities.stencil_points, with those of
    _X_POLYS and _Y_POLYS, and 1 at the points of the t stencil. The
    stencils' point groups are kept for the differences. A jet that is
    not finite is left out, and reading it raises ValueError, on every
    read.
    """

    def __init__(self, field: AnalyticField, point):
        self.point = point = tuple(float(v) for v in point)
        self.h = h = FD_H_SCALE * field.shortest_wavelength()
        self._groups = [stencil_points(point, (d,), h) for d in range(3)]
        (z,) = analytic_jets(field, [point], _L_ORDER)
        self._centre = (None if z is None
                        else (z, _poly_values(z, _CENTRE_POLYS)))
        xy = [(q, names) for d, names in ((1, _X_POLYS), (2, _Y_POLYS))
              for _, group in self._groups[d] for q in group]
        jets = analytic_jets(field, [q for q, _ in xy], _FLUX_ORDER)
        self._stencil = {
            q: (z, _poly_values(z, names))
            for (q, names), z in zip(xy, jets) if z is not None
        }
        t = [q for _, group in self._groups[0] for q in group]
        self._stencil.update(
            (q, (z, None))
            for q, z in zip(t, analytic_jets(field, t, 1))
            if z is not None
        )

    def centre(self) -> tuple[Jet, Mapping[str, float]]:
        """The order-_L_ORDER jet at the base point and its _poly_values."""
        return _finite(self._centre)

    def at(self, q) -> tuple[Jet, Mapping[str, float] | None]:
        """The jet at a stencil point and its _poly_values (None at the
        t points)."""
        return _finite(self._stencil.get(q))

    def difference(self, fn, axis: int) -> float:
        """identities.central_difference of fn along an axis at the base
        point, on the kept stencil."""
        return central_difference(fn, self.point, (axis,), self.h,
                                  self._groups[axis])


# What vorticity_residual reads at the base point.
_CENTRE_POLYS = ("advection", "d")


def vorticity_residual(stencil: FluxStencil, nu: float, beta: float) -> float:
    """L = zeta_t + psi_x zeta_y - psi_y zeta_x + beta psi_x - D at the
    base point."""
    z, p = stencil.centre()
    return (
        p["advection"]
        + beta * z[(0, 1, 0)]
        - nu * p["d"]
    )


# What the fluxes read at the x and y stencil points.
_X_POLYS = ("zeta_y", "q", "q_x", "zeta7_x")
_Y_POLYS = ("zeta_x", "q", "q_y", "zeta7_y")


def _flux_f(at, f: TimeFunction, g: TimeFunction, nu: float, beta: float):
    def fx(point):
        z, p = at(point)
        ft = f(point[0])
        return ft * (
            z[(1, 1, 0)]
            + z[(0, 0, 0)] * p["zeta_y"]
            + beta * z[(0, 0, 0)]
            - nu * p["q_x"]
        )

    def fy(point):
        z, p = at(point)
        ft = f(point[0])
        return ft * (
            z[(1, 0, 1)]
            - z[(0, 0, 0)] * p["zeta_x"]
            - nu * p["q_y"]
        )

    return None, fx, fy


def _flux_gy(at, f: TimeFunction, g: TimeFunction, nu: float, beta: float):
    # The x-flux carries g*(psi*psi_xx - psi_x^2/2) and the y-flux
    # -g*psi_t; together with the g*psi*psi_xy term their divergence
    # absorbs the g*(psi*zeta_x) cross terms exactly (checked
    # symbolically for arbitrary smooth g).
    def fx(point):
        z, p = at(point)
        gt, y = g(point[0]), point[2]
        return (
            gt * y * z[(1, 1, 0)]
            + gt * y * z[(0, 0, 0)] * p["zeta_y"]
            - 0.5 * gt * z[(0, 0, 1)] ** 2
            + gt * z[(0, 0, 0)] * z[(0, 2, 0)]
            - 0.5 * gt * z[(0, 1, 0)] ** 2
            + gt * y * beta * z[(0, 0, 0)]
            - nu * gt * y * p["q_x"]
        )

    def fy(point):
        z, p = at(point)
        gt, y = g(point[0]), point[2]
        return (
            gt * y * z[(1, 0, 1)]
            - gt * z[(1, 0, 0)]
            - gt * y * z[(0, 0, 0)] * p["zeta_x"]
            + gt * z[(0, 0, 0)] * z[(0, 1, 1)]
            - nu * gt * y * p["q_y"]
            + nu * gt * p["q"]
        )

    return None, fx, fy


def _flux_psi(at, f: TimeFunction, g: TimeFunction, nu: float, beta: float):
    def ft(point):
        z, _ = at(point)
        return -0.5 * (z[(0, 1, 0)] ** 2 + z[(0, 0, 1)] ** 2)

    def fx(point):
        z, p = at(point)
        psi = z[(0, 0, 0)]
        return (
            psi * z[(1, 1, 0)]
            + 0.5 * psi**2 * p["zeta_y"]
            + 0.5 * beta * psi**2
            - nu * psi * p["q_x"]
            + nu * z[(0, 1, 0)] * p["q"]
            - nu * p["zeta7_x"]
        )

    def fy(point):
        z, p = at(point)
        psi = z[(0, 0, 0)]
        return (
            psi * z[(1, 0, 1)]
            - 0.5 * psi**2 * p["zeta_x"]
            - nu * psi * p["q_y"]
            + nu * z[(0, 0, 1)] * p["q"]
            - nu * p["zeta7_y"]
        )

    return ft, fx, fy


_FLUXES = {"f": _flux_f, "gy": _flux_gy, "psi": _flux_psi}


def divergence_identity_residual(char: str, stencil: FluxStencil,
                                 timefns: tuple[TimeFunction, TimeFunction],
                                 nu: float = 1.0, beta: float = 1.0) -> float:
    """|lambda*L - (D_t F^t + D_x F^x + D_y F^y)| / max(1, |lambda*L|)
    at the record's base point."""
    if char not in CHARACTERISTICS:
        raise ValueError(f"characteristic must be one of {CHARACTERISTICS}")
    point = stencil.point
    f, g = timefns
    z, _ = stencil.centre()
    if char == "f":
        lam = f(point[0])
    elif char == "gy":
        lam = g(point[0]) * point[2]
    else:
        lam = z[(0, 0, 0)]
    lhs = lam * vorticity_residual(stencil, nu, beta)
    ft, fx, fy = _FLUXES[char](stencil.at, f, g, nu, beta)
    rhs = stencil.difference(fx, 1) + stencil.difference(fy, 2)
    if ft is not None:
        rhs += stencil.difference(ft, 0)
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@dataclass(frozen=True)
class BudgetResult:
    """Instantaneous tendencies of the integral invariants due to D."""

    dE: float
    dZ: float
    dGamma: float
    dM: float


def _y_weighted_integral(values: np.ndarray, grid) -> float:
    """Trapezoidal integral of y*f over one periodic cell.

    The weight y jumps from ly back to 0 across the periodic seam, so
    the plain one-sided grid sum of y*f is only first-order accurate;
    the trapezoidal rule on [0, ly] with f(ly) = f(0) adds half a cell
    of the seam row at weight ly and restores second order.
    """
    dA = grid.dx * grid.dy
    plain = float(np.sum(grid.y() * values)) * dA
    seam = float(np.sum(values[:, 0])) * grid.dx
    return plain + 0.5 * grid.ly * grid.dy * seam


def conservation_budget(spec: DissipationSpec | None, psi: RealField,
                        zeta: RealField, beta: float) -> BudgetResult:
    """dE = -sum psi*D dA, dZ = sum eta*D dA, dGamma = sum D dA,
    dM = int y*D dA for the closure alone."""
    if spec is None or spec.kind == "none":
        return BudgetResult(0.0, 0.0, 0.0, 0.0)
    grid = psi.grid
    d = dissipation(spec, psi, zeta, beta).values
    dA = grid.dx * grid.dy
    y = grid.y()
    eta = zeta.values + beta * y
    return BudgetResult(
        dE=-float(np.sum(psi.values * d)) * dA,
        dZ=float(np.sum(eta * d)) * dA,
        dGamma=float(np.sum(d)) * dA,
        dM=_y_weighted_integral(d, grid),
    )
