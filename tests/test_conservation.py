"""Divergence identities for the conservative closure and grid-level
conservation budgets."""

from __future__ import annotations

import gc
import hashlib
import weakref
from collections import Counter

import numpy as np
import pytest

from betaplane import conservation, identities, jets, run
from betaplane.conservation import (
    CHARACTERISTICS,
    FluxStencil,
    conservation_budget,
    divergence_identity_residual,
    vorticity_residual,
)
from betaplane.dissipation import DissipationSpec
from betaplane.grid import Grid, RealField
from betaplane.identities import (
    IDENTITY_IDS,
    DomainConditionError,
    Neighbourhood,
    StencilCrossingError,
    check_syzygy,
)
from betaplane.jets import (
    AnalyticField,
    Jet,
    JetOrderError,
    TimeFunction,
    analytic_jet,
    analytic_jets,
    jp_compile,
    jp_eval,
    jp_order,
    multi_indices,
)
from betaplane.run import certify_conservation, certify_invariants
from betaplane.spectral import laplacian
from test_identities import near_zero_point

TOL = 1e-6


def random_setup(seed):
    rng = np.random.default_rng(seed)
    field = AnalyticField.random(rng)
    f = TimeFunction.random(rng, degree=3)
    g = TimeFunction.random(rng, degree=3)
    points = [tuple(rng.uniform(-2.0, 2.0, size=3)) for _ in range(5)]
    return field, (f, g), points


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_divergence_identities_hold(char):
    worst = 0.0
    for seed in range(6):
        field, timefns, points = random_setup(100 + seed)
        for point in points:
            res = divergence_identity_residual(
                char, FluxStencil(field, point), timefns, nu=0.8, beta=1.3
            )
            worst = max(worst, res)
    assert worst <= TOL, (char, worst)


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_divergence_identities_inviscid_limit(char):
    """nu = 0 removes the closure fluxes; the inviscid identities are a
    separate consistency check on the advective flux forms."""
    field, timefns, points = random_setup(7)
    for point in points[:3]:
        res = divergence_identity_residual(
            char, FluxStencil(field, point), timefns, nu=0.0, beta=2.0
        )
        assert res <= TOL


def test_circulation_identity_constant_f():
    """f = const, g = 0 is the plain circulation characteristic."""
    field, _, points = random_setup(11)
    timefns = (TimeFunction((1.0,)), TimeFunction.zero())
    for point in points:
        res = divergence_identity_residual("f", FluxStencil(field, point),
                                           timefns)
        assert res <= TOL


def test_unknown_characteristic():
    field, timefns, points = random_setup(13)
    with pytest.raises(ValueError):
        divergence_identity_residual("energy", FluxStencil(field, points[0]),
                                     timefns)


def test_vorticity_residual_matches_direct_derivatives():
    """L at nu = 0 equals the raw material derivative of zeta plus the
    beta term, assembled from direct analytic derivatives."""
    rng = np.random.default_rng(17)
    field = AnalyticField.random(rng)
    beta = 0.9
    for _ in range(5):
        point = tuple(rng.uniform(-2.0, 2.0, size=3))
        d = field.derivative
        zeta_t = d((1, 2, 0), point) + d((1, 0, 2), point)
        zeta_x = d((0, 3, 0), point) + d((0, 1, 2), point)
        zeta_y = d((0, 2, 1), point) + d((0, 0, 3), point)
        raw = (
            zeta_t
            + d((0, 1, 0), point) * zeta_y
            - d((0, 0, 1), point) * zeta_x
            + beta * d((0, 1, 0), point)
        )
        got = vorticity_residual(FluxStencil(field, point), nu=0.0, beta=beta)
        assert got == pytest.approx(raw, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("name", sorted(conservation._POLYS))
def test_compiled_flux_polynomials_equal_jp_eval(name):
    poly = conservation._POLYS[name]
    compiled = jp_compile(poly)
    rng = np.random.default_rng(23)
    for _ in range(4):
        field = AnalyticField.random(rng)
        point = tuple(rng.uniform(-3.0, 3.0, size=3))
        z6 = analytic_jet(field, point, 6)
        assert compiled.evaluate(z6).tolist() == [jp_eval(poly, z6)]
        z4 = analytic_jet(field, point, 4)
        if jp_order(poly) > 4:
            with pytest.raises(JetOrderError):
                compiled.evaluate(z4)
            with pytest.raises(JetOrderError):
                jp_eval(poly, z4)
        else:
            assert compiled.evaluate(z4).tolist() == [jp_eval(poly, z4)]


@pytest.mark.parametrize("names", [
    conservation._CENTRE_POLYS, conservation._X_POLYS, conservation._Y_POLYS,
])
def test_stencil_polynomial_sets_equal_jp_eval(names):
    """Each stencil role's set evaluates, on every jet order it fits, to
    exactly jp_eval of its named polynomials and to nothing else."""
    need = max(jp_order(conservation._POLYS[name]) for name in names)
    rng = np.random.default_rng(29)
    for _ in range(4):
        field = AnalyticField.random(rng)
        point = tuple(rng.uniform(-3.0, 3.0, size=3))
        for order in range(max(5, need), 7):
            z = analytic_jet(field, point, order)
            assert dict(conservation._poly_values(z, names)) == \
                _jp_eval_values(z, names)


_ADMISSIBLE = run.sample_admissible_point


def _certify_bytes(tmp_path, tag, monkeypatch):
    """The three certify tables, the skipped counts and the errors that
    skipped them, of a small run whose every other base point of
    certify_invariants lies where psi_x ~ 0."""
    calls, raised = [], set()

    def admissible_then_near_zero(field, rng):
        calls.append(field)
        if len(calls) % 2:
            return _ADMISSIBLE(field, rng)
        return near_zero_point(field, rng)

    def recording_check(name, nb):
        try:
            return identities.check_syzygy(name, nb)
        except ValueError as err:
            raised.add(type(err))
            raise

    monkeypatch.setattr(run, "sample_admissible_point",
                        admissible_then_near_zero)
    monkeypatch.setattr(run, "check_syzygy", recording_check)
    inv = tmp_path / f"{tag}_identities.csv"
    div = tmp_path / f"{tag}_divergence.csv"
    bud = tmp_path / f"{tag}_budgets.csv"
    skipped = Counter()
    certify_invariants(inv, n_fields=2, n_points=2, seed=5, skipped=skipped)
    certify_conservation(div, bud, n_fields=2, n_points=2, seed=5,
                         resolutions=(16,))
    return [p.read_bytes() for p in (inv, div, bud)], skipped, raised


def _jp_eval_values(z, names):
    """jp_eval of the named fixed polynomials, with no compiled form."""
    return {name: jp_eval(conservation._POLYS[name], z) for name in names}


def _scalar_jets(field, points, order):
    """The jets from one scalar derivative call per entry."""
    return [
        Jet(order, point, np.array([
            *(field.derivative(alpha, point) for alpha in multi_indices(order)),
            1.0,
        ]))
        for point in points
    ]


def _no_amplitudes(field, order):
    raise AssertionError("the array jet builder ran")


def test_certify_tables_independent_of_jet_cache(tmp_path, monkeypatch):
    """Records, records with dict evaluation, and scalar jets write the
    same bytes and skip the same points, for both reasons a point is
    skipped. The scalar jets reach every jet the tables read: the array
    builder never reads an amplitude table."""
    records = _certify_bytes(tmp_path, "records", monkeypatch)
    monkeypatch.setattr(conservation, "_poly_values", _jp_eval_values)
    reference = _certify_bytes(tmp_path, "reference", monkeypatch)
    monkeypatch.setattr(jets, "_exact_jets", _scalar_jets)
    monkeypatch.setattr(AnalyticField, "_amplitudes", _no_amplitudes)
    scalar = _certify_bytes(tmp_path, "scalar", monkeypatch)
    assert records == reference == scalar
    skipped, raised = records[1:]
    assert raised == {StencilCrossingError, DomainConditionError}
    assert skipped.total() > 0


# sha256 of the identity, divergence and budget tables of a plain run
# (seed 0, 2 fields x 3 points) and of the _certify_bytes run, recorded
# before the stencil geometry and arithmetic of identities and
# conservation became one point list and one combiner.
CERTIFY_DIGESTS = {
    "plain":
        "5d4819636f4b08bb78a49b67b6840e94bbfdf696b96159091d9ad536778c2b64",
    "near_zero":
        "09b2449db60ebaaa7fc9550843a70bc80ff023f4a191276d12ad5663dd1af073",
}


def _digest(tables) -> str:
    digest = hashlib.sha256()
    for data in tables:
        digest.update(data)
    return digest.hexdigest()


def test_certify_tables_are_pinned(tmp_path, monkeypatch):
    """The certify tables keep their bytes, with and without points
    whose stencils cross psi_x = 0."""
    inv, div, bud = (tmp_path / name for name in
                     ("identities.csv", "divergence.csv", "budgets.csv"))
    skipped = Counter()
    certify_invariants(inv, n_fields=2, n_points=3, seed=0, skipped=skipped)
    certify_conservation(div, bud, n_fields=2, n_points=3, seed=0)
    assert _digest(p.read_bytes() for p in (inv, div, bud)) == \
        CERTIFY_DIGESTS["plain"]
    assert skipped.total() == 0
    tables, skipped, _ = _certify_bytes(tmp_path, "near_zero", monkeypatch)
    assert _digest(tables) == CERTIFY_DIGESTS["near_zero"]
    assert skipped == Counter(dict.fromkeys(identities.IDENTITY_IDS, 2))


@pytest.mark.parametrize("x, centre_finite", [
    # psi overflows at the base point itself
    (0.5 * np.pi, False),
    # psi is finite at the base point and overflows from x ~ 1.1176 on,
    # where the x-stencil point at +h lies
    (1.1165, True),
])
def test_non_finite_jets_raise_on_a_warm_record(x, centre_finite):
    """A non-finite jet in a base point's record raises for every
    characteristic, the first time with a fresh record and again with
    the same record warm."""
    field = AnalyticField.from_terms([(1.0e308, 0.0, 1.0, 0.0, 0.0)] * 2)
    timefns = (TimeFunction((1.0,)), TimeFunction((1.0,)))
    point = (0.0, x, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        (centre,) = analytic_jets(field, [point], conservation._L_ORDER)
        assert (centre is not None) == centre_finite
        stencil = FluxStencil(field, point)
        for _ in ("cold", "warm"):
            for char in CHARACTERISTICS:
                with pytest.raises(ValueError, match="non-finite"):
                    divergence_identity_residual(char, stencil, timefns)


def test_checked_field_is_freed_with_its_records():
    """Nothing but the caller's records keeps a field the certify
    suites have checked: once they and the field are dropped, the field
    is freed."""
    field, timefns, points = random_setup(19)
    alive = weakref.ref(field)
    nb = Neighbourhood(field, points[0])
    for identity in IDENTITY_IDS:
        try:
            check_syzygy(identity, nb)
        except (DomainConditionError, StencilCrossingError):
            pass
    stencil = FluxStencil(field, points[0])
    for char in CHARACTERISTICS:
        divergence_identity_residual(char, stencil, timefns)
    del field, nb, stencil
    gc.collect()
    assert alive() is None


# --- grid-level budgets -------------------------------------------------


@pytest.fixture
def grid():
    return Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)


def smooth_fields(grid, seed=0):
    X, Y = grid.meshgrid()
    psi = (
        np.cos(3 * X + 0.4) * np.cos(2 * Y)
        + 0.7 * np.cos(X + 1.1) * np.cos(4 * Y)
        + 0.5 * np.cos(2 * X + 0.7)
    )
    psi_f = RealField(grid, psi - psi.mean())
    return psi_f, laplacian(psi_f)


def test_budget_none_is_zero(grid):
    psi, zeta = smooth_fields(grid)
    for spec in (None, DissipationSpec("none")):
        b = conservation_budget(spec, psi, zeta, beta=1.0)
        assert (b.dE, b.dZ, b.dGamma, b.dM) == (0.0, 0.0, 0.0, 0.0)


def test_classical_budget_dissipates_enstrophy(grid):
    psi, zeta = smooth_fields(grid)
    spec = DissipationSpec("classical", n=2, nu=1e-3)
    b = conservation_budget(spec, psi, zeta, beta=0.0)
    assert b.dZ < 0.0
    assert b.dE < 0.0


def test_conservative_seventh_budget_roundoff(grid):
    """The conservative closure leaves E, Gamma and M at roundoff on a
    resolved field; dZ is the one budget it gives up."""
    psi, zeta = smooth_fields(grid)
    psi = RealField(grid, 0.05 * psi.values)
    zeta = RealField(grid, 0.05 * zeta.values)
    spec = DissipationSpec("conservative_seventh", nu=1e-2)
    d = np.abs(
        __import__("betaplane.dissipation", fromlist=["dissipation"])
        .dissipation(spec, psi, zeta, beta=0.0)
        .values
    )
    scale = grid.dx * grid.dy * float(np.sum(d))
    b = conservation_budget(spec, psi, zeta, beta=0.0)
    assert abs(b.dGamma) <= 1e-12 * max(1.0, scale)
    assert abs(b.dE) <= 1e-9 * max(1.0, scale)
    assert abs(b.dM) <= 1e-6 * max(1.0, grid.ly * scale)


def test_budget_linearity_in_nu(grid):
    psi, zeta = smooth_fields(grid)
    psi = RealField(grid, 0.1 * psi.values)
    zeta = RealField(grid, 0.1 * zeta.values)
    b1 = conservation_budget(
        DissipationSpec("classical", n=1, nu=1e-3), psi, zeta, beta=0.5
    )
    b2 = conservation_budget(
        DissipationSpec("classical", n=1, nu=2e-3), psi, zeta, beta=0.5
    )
    assert b2.dZ == pytest.approx(2.0 * b1.dZ, rel=1e-12)
    assert b2.dE == pytest.approx(2.0 * b1.dE, rel=1e-12)


def test_y_weighted_integral_second_order():
    """dM of a y-dependent closure field converges at second order under
    refinement thanks to the trapezoid seam correction."""
    from betaplane.conservation import _y_weighted_integral

    errs = []
    for n in (32, 64, 128):
        g = Grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
        _, Y = g.meshgrid()
        vals = np.cos(Y + 0.3)
        # integral of y*cos(y+0.3) over one period is 2pi*sin(0.3)
        exact = g.lx * 2.0 * np.pi * np.sin(0.3)
        errs.append(abs(_y_weighted_integral(vals, g) - exact))
    assert errs[1] < errs[0] / 3.0
    assert errs[2] < errs[1] / 3.0
