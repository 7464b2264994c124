"""Closure variants: structural properties shared by all, plus the
sign, neutrality and scale-homogeneity facts specific to each."""

from __future__ import annotations

import math

import numpy as np
import pytest

from betaplane.dissipation import (
    VARIANTS,
    DissipationOverflowError,
    DissipationSpec,
    dissipation,
)
from betaplane.grid import Grid, RealField
from betaplane.spectral import derive, laplacian


@pytest.fixture
def grid():
    return Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)


@pytest.fixture
def fields(grid):
    rng = np.random.default_rng(5)
    X, Y = grid.meshgrid()
    psi = np.zeros(grid.shape)
    for k, l in [(2, 1), (1, -3), (4, 2), (3, -1)]:
        psi += 0.3 * rng.uniform(0.5, 1.0) * np.cos(
            k * X + l * Y + rng.uniform(0, 2 * np.pi)
        )
    psi_f = RealField(grid, psi - psi.mean())
    return psi_f, laplacian(psi_f)


ACTIVE = tuple(k for k in VARIANTS if k != "none")


def spec_for(kind, nu=0.5, n=2):
    if kind == "down_gradient_invariant":
        return DissipationSpec(kind, K=nu)
    return DissipationSpec(kind, n=n, nu=nu)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DissipationSpec("viscocity")


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        DissipationSpec("classical", nu=-1.0)


def test_none_returns_zero(grid, fields):
    psi, zeta = fields
    d = dissipation(DissipationSpec("none"), psi, zeta)
    assert np.all(d.values == 0.0)


@pytest.mark.parametrize("kind", ACTIVE)
def test_gauge_invariance(grid, fields, kind):
    """Adding a constant to psi changes nothing (only derivatives enter)."""
    psi, zeta = fields
    shifted = RealField(grid, psi.values + 17.3)
    a = dissipation(spec_for(kind), psi, zeta, beta=1.0)
    b = dissipation(spec_for(kind), shifted, zeta, beta=1.0)
    assert np.allclose(a.values, b.values, atol=1e-9 * max(1, np.abs(a.values).max()))


@pytest.mark.parametrize("kind", ACTIVE)
def test_linearity_in_coefficient(grid, fields, kind):
    psi, zeta = fields
    a = dissipation(spec_for(kind, nu=0.5), psi, zeta, beta=1.0)
    b = dissipation(spec_for(kind, nu=1.0), psi, zeta, beta=1.0)
    assert np.allclose(b.values, 2.0 * a.values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classical_dissipates_enstrophy(grid, fields, n):
    """(-1)^{n-1} nu Delta^n zeta has sum zeta*D = -nu*sum|grad^n zeta|^2 < 0."""
    psi, zeta = fields
    d = dissipation(DissipationSpec("classical", n=n, nu=1.0), psi, zeta)
    assert float(np.sum(zeta.values * d.values)) < 0.0


def test_invariant_hyper_reduces_to_weighted_classical(grid, fields):
    psi, zeta = fields
    d_cl = dissipation(DissipationSpec("classical", n=2, nu=1.0), psi, zeta)
    d_inv = dissipation(DissipationSpec("invariant_hyper", n=2, nu=1.0), psi, zeta)
    (psi_x,) = derive(psi, grid.ikx)
    w = np.abs(psi_x) ** 2.5
    assert np.allclose(d_inv.values, w * d_cl.values, rtol=1e-12, atol=1e-12)


def test_conservative_seventh_zero_on_constant_zeta(grid):
    psi = RealField(grid, np.zeros(grid.shape))
    zeta = RealField(grid, np.full(grid.shape, 1.7))
    d = dissipation(DissipationSpec("conservative_seventh", nu=1.0), psi, zeta)
    assert np.abs(d.values).max() < 1e-10


@pytest.mark.parametrize("kind", ["conservative_seventh", "conservative_fourth"])
def test_conservative_total_laplacian_integrates_to_zero(grid, fields, kind):
    psi, zeta = fields
    d = dissipation(DissipationSpec(kind, nu=1.0), psi, zeta)
    scale = np.abs(d.values).max() * d.values.size
    assert abs(float(np.sum(d.values))) / scale < 1e-12


def test_conservative_seventh_energy_neutral_when_resolved(grid, fields):
    """<psi, D> = nu*sum Delta(zeta^7) = 0 when products do not alias
    back onto the zero mode."""
    psi, zeta = fields
    d = dissipation(DissipationSpec("conservative_seventh", nu=1.0), psi, zeta)
    scale = np.abs(psi.values).max() * np.abs(d.values).max() * d.values.size
    assert abs(float(np.sum(psi.values * d.values))) / scale < 1e-12


# Scale weights: under (x, y, psi) -> (e^-e1 x, e^-e1 y, e^-3e1 psi) and
# t -> e^e1 t, the vorticity tendency scales by e^-2e1. An equivariant
# closure formula must therefore gain exactly e^-2e1 when fields and
# grid are transformed; Classical (n >= 2) gains e^{(2n-3)e1} too much.
SCALE_EQUIVARIANT = (
    "invariant_hyper",
    "down_gradient_invariant",
    "anticipated_invariant",
    "conservative_seventh",
    "conservative_fourth",
    "isotropic_a",
    "isotropic_b",
)


def scaled_copy(grid, psi, zeta, eps1):
    s = math.exp(-eps1)
    grid_b = Grid(grid.nx, grid.ny, grid.lx * s, grid.ly * s)
    psi_b = RealField(grid_b, s**3 * psi.values)
    zeta_b = RealField(grid_b, s * zeta.values)
    return grid_b, psi_b, zeta_b


@pytest.mark.parametrize("kind", SCALE_EQUIVARIANT)
def test_scale_homogeneity_of_equivariant_closures(grid, fields, kind):
    psi, zeta = fields
    eps1 = 0.8
    _, psi_b, zeta_b = scaled_copy(grid, psi, zeta, eps1)
    d_a = dissipation(spec_for(kind, nu=1.0), psi, zeta, beta=1.0)
    d_b = dissipation(spec_for(kind, nu=1.0), psi_b, zeta_b, beta=1.0)
    expected = math.exp(-2.0 * eps1) * d_a.values
    denom = np.abs(expected).max()
    assert np.abs(d_b.values - expected).max() / denom < 1e-10


def test_classical_breaks_scale_homogeneity(grid, fields):
    psi, zeta = fields
    eps1 = 0.8
    _, psi_b, zeta_b = scaled_copy(grid, psi, zeta, eps1)
    spec = DissipationSpec("classical", n=2, nu=1.0)
    d_a = dissipation(spec, psi, zeta)
    d_b = dissipation(spec, psi_b, zeta_b)
    # gains e^{3 eps1} instead of e^{-2 eps1}
    ratio = np.abs(d_b.values).max() / np.abs(d_a.values).max()
    assert ratio == pytest.approx(math.exp(3.0 * eps1), rel=1e-6)


def test_overflow_reported(grid):
    psi = RealField(grid, np.zeros(grid.shape))
    X, _ = grid.meshgrid()
    zeta = RealField(grid, 1e60 * np.cos(3 * X))
    with pytest.raises(DissipationOverflowError):
        dissipation(DissipationSpec("conservative_seventh", nu=1.0), psi, zeta)
