"""Acceptance gate: every release criterion runs at its stated tolerance
and prints a single PASS/FAIL line.

The slow decaying-turbulence runs (criteria 7 and 8) share a
module-scoped fixture so the three N = 256 simulations execute once,
two at a time in worker processes.
"""

from __future__ import annotations

import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from betaplane.config import IcSpec, RunConfig, generate_initial_condition
from betaplane.conservation import (
    CHARACTERISTICS,
    FluxStencil,
    conservation_budget,
    divergence_identity_residual,
)
from betaplane.diagnostics import energy_spectrum, fit_slope
from betaplane.dissipation import DissipationSpec, dissipation
from betaplane.dynamics import (
    ModelParams,
    auto_dt,
    bootstrap,
    initial_state,
    integrate,
    step_leapfrog_raw,
)
from betaplane.grid import Grid, RealField
from betaplane.invariants import (
    GroupElement,
    nonphantom_indices,
    normalized_invariant,
    prolong_action,
)
from betaplane.jets import AnalyticField, TimeFunction, analytic_jet
from betaplane.kernels import arakawa
from betaplane.run import (
    certify_invariants,
    reference_budget_field,
    run_experiment,
)
from betaplane.spectral import laplacian
from betaplane.symmetry import equivariance_experiment

np.seterr(over="ignore", invalid="ignore")


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {detail}")
    assert ok, detail


# --- 1: invariance of the normalized invariants --------------------------


def test_criterion_1_invariance():
    rng = np.random.default_rng(0)
    alphas = nonphantom_indices(4)
    worst = 0.0
    for _ in range(100):
        field = AnalyticField.random(rng)
        point = tuple(rng.uniform(-2.0, 2.0, size=3))
        while abs(field.derivative((0, 1, 0), point)) < 0.1:
            point = tuple(rng.uniform(-2.0, 2.0, size=3))
        z = analytic_jet(field, point, 5)
        base = {a: normalized_invariant(z, a) for a in alphas}
        for _ in range(100):
            gel = GroupElement(
                eps1=rng.uniform(-2.0, 2.0),
                eps2=rng.uniform(-1.0, 1.0),
                eps3=rng.uniform(-1.0, 1.0),
                f=TimeFunction.random(rng, degree=4),
                g=TimeFunction.random(rng, degree=4),
            )
            gz = prolong_action(gel, z)
            if gz[(0, 1, 0)] == 0.0:
                continue
            for a in alphas:
                err = abs(normalized_invariant(gz, a) - base[a]) / (
                    1.0 + abs(base[a])
                )
                worst = max(worst, err)
    _report(1, worst <= 1e-9,
            f"invariance over 100 fields x 100 group elements, "
            f"worst residual {worst:.3e} (tol 1e-9)")


# --- 2: syzygy / commutator / representation suite -----------------------


def test_criterion_2_identity_suite(tmp_path):
    worst = certify_invariants(tmp_path / "identities.csv",
                               n_fields=20, n_points=20, seed=0)
    _report(2, worst <= 1e-6,
            f"identity suite at 20 fields x 20 points, "
            f"worst residual {worst:.3e} (tol 1e-6)")


# --- 3: discrete bracket conservation sums -------------------------------


def test_criterion_3_bracket_sums():
    grid = Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        j = arakawa(a, b, grid.dx, grid.dy)
        ref = float(np.sum(np.abs(a * j))) + float(np.sum(np.abs(b * j)))
        for s in (np.sum(j), np.sum(a * j), np.sum(b * j)):
            worst = max(worst, abs(float(s)) / ref)
    _report(3, worst <= 1e-12,
            f"bracket sums over 100 seeds at N=64, "
            f"worst relative sum {worst:.3e} (tol 1e-12)")


# --- 4: inviscid conservation with O(dt^2) drift -------------------------


def _inviscid_drift(zeta0, grid, dt, steps):
    params = ModelParams(beta=2.0, dt=dt, raw_gamma=0.0)
    hist = []

    def obs(state):
        dA = grid.dx * grid.dy
        e = -0.5 * float(
            np.sum(state.psi_curr.values * state.zeta_curr.values)
        ) * dA
        z = 0.5 * float(np.sum(state.zeta_curr.values**2)) * dA
        hist.append((e, z))

    integrate(zeta0, params, steps, observer=obs)
    e0, z0 = hist[0]
    de = max(abs(e - e0) / e0 for e, _ in hist)
    dz = max(abs(z - z0) / z0 for _, z in hist)
    return de, dz


def test_criterion_4_inviscid_conservation():
    grid = Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
    cfg = RunConfig(grid=grid, beta=2.0, steps=1,
                    ic=IcSpec(k0=8.0, p=6.0, q=18.0, amplitude=1.0, seed=0))
    zeta0 = laplacian(generate_initial_condition(cfg))
    de1, dz1 = _inviscid_drift(zeta0, grid, 2.0e-3, 1000)
    de2, dz2 = _inviscid_drift(zeta0, grid, 1.0e-3, 1000)
    ok = (
        de1 <= 1e-4 and dz1 <= 1e-4
        and de2 <= de1 / 3.0 and dz2 <= dz1 / 3.0
    )
    _report(4, ok,
            f"inviscid 1000-step drift E {de1:.3e} Z {dz1:.3e} (tol 1e-4); "
            f"halved dt -> E {de2:.3e} Z {dz2:.3e} (expect ~x4 smaller)")


# --- 5: scale-equivariance contrast --------------------------------------


def test_criterion_5_equivariance_contrast():
    grid = Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi)
    gel = GroupElement(1.0, 0.0, 0.0, TimeFunction.zero(),
                       TimeFunction.zero())

    def run(kind):
        cfg = RunConfig(
            grid=grid, beta=2.0, steps=500,
            dissipation=DissipationSpec(kind, n=2, nu=2.0e-8),
            ic=IcSpec(k0=8.0, p=6.0, q=18.0, amplitude=1.0, seed=3),
        )
        return equivariance_experiment(cfg, gel)

    inv = run("invariant_hyper")
    cla = run("classical")
    ok = (
        inv.field_rel_err <= 1e-6
        and inv.spectrum_rms_log_err <= 1e-6
        and cla.spectrum_rms_log_err >= 10.0 * inv.spectrum_rms_log_err
        and cla.spectrum_rms_log_err >= 1e-2
    )
    _report(5, ok,
            f"invariant closure field {inv.field_rel_err:.3e} / spectrum "
            f"{inv.spectrum_rms_log_err:.3e} (tol 1e-6); classical spectrum "
            f"{cla.spectrum_rms_log_err:.3e} (>= 1e-2 and >= 10x invariant)")


# --- 6: conservative-closure budgets and divergence identities -----------


def test_criterion_6_conservative_budgets():
    spec = DissipationSpec("conservative_seventh", nu=1.0)
    budgets = {}
    for n in (32, 64, 128):
        grid = Grid(n, n, 2.0 * np.pi, 2.0 * np.pi)
        psi = reference_budget_field(grid)
        zeta = laplacian(psi)
        d = dissipation(spec, psi, zeta, 1.0).values
        scale = float(np.sum(np.abs(d))) * grid.dx * grid.dy
        budgets[n] = (conservation_budget(spec, psi, zeta, beta=1.0), scale,
                      grid.ly)

    gamma_ok = all(
        abs(b.dGamma) <= 1e-12 * scale for b, scale, _ in budgets.values()
    )

    def order2(values, floors):
        # quarter-or-floor: each refinement either divides the error by
        # >= 4 or has already hit the quadrature roundoff floor
        ok = True
        for (v1, v2), fl in zip(zip(values, values[1:]), floors[1:]):
            ok = ok and (abs(v2) <= max(abs(v1) / 4.0, fl))
        return ok

    de = [budgets[n][0].dE for n in (32, 64, 128)]
    dm = [budgets[n][0].dM for n in (32, 64, 128)]
    e_floors = [1e-12 * budgets[n][1] for n in (32, 64, 128)]
    m_floors = [1e-12 * budgets[n][1] * budgets[n][2] for n in (32, 64, 128)]
    e_ok = order2(de, e_floors)
    m_ok = order2(dm, m_floors)

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(6):
        field = AnalyticField.random(rng)
        f = TimeFunction.random(rng, degree=3)
        g = TimeFunction.random(rng, degree=3)
        for _ in range(4):
            stencil = FluxStencil(field, rng.uniform(-2.0, 2.0, size=3))
            for char in CHARACTERISTICS:
                worst = max(worst, divergence_identity_residual(
                    char, stencil, (f, g), nu=1.0, beta=1.0))

    ok = gamma_ok and e_ok and m_ok and worst <= 1e-6
    _report(6, ok,
            f"dGamma roundoff at all N: {gamma_ok}; dE order-2/floor: {e_ok} "
            f"{[f'{v:.2e}' for v in de]}; dM order-2/floor: {m_ok} "
            f"{[f'{v:.2e}' for v in dm]}; divergence residual {worst:.3e} "
            f"(tol 1e-6)")


# --- 7 & 8: decaying-turbulence slope and energy transient ---------------

DECAY_SEEDS = (0, 1, 7)


def _decay_run(seed):
    """N = 256 decaying run with the invariant closure, stepping until
    the energy has stayed below its running maximum for 300 steps; the
    spectrum is sampled at the energy peak (the onset of net decay)."""
    grid = Grid(256, 256, 2.0 * np.pi, 2.0 * np.pi)
    cfg = RunConfig(grid=grid, beta=7.0, steps=1,
                    ic=IcSpec(k0=32.0, p=6.0, q=18.0, amplitude=1.0,
                              seed=seed))
    psi0 = generate_initial_condition(cfg)
    params = ModelParams(
        beta=7.0, dt=auto_dt(psi0), raw_gamma=0.05,
        dissipation=DissipationSpec("invariant_hyper", n=2, nu=1.45e-8),
    )

    def energy(s):
        return -0.5 * float(
            np.sum(s.psi_curr.values * s.zeta_curr.values)
        ) * grid.dx * grid.dy

    state = initial_state(laplacian(psi0))
    e0 = energy(state)
    emax, below, peak_psi = e0, 0, state.psi_curr
    state = bootstrap(state, params)
    while state.step < 6000:
        state = step_leapfrog_raw(state, params)
        e = energy(state)
        if e > emax:
            emax, below, peak_psi = e, 0, state.psi_curr
        else:
            below += 1
        if state.step > 1000 and below >= 300:
            break
    growth = (emax - e0) / e0
    slope = fit_slope(energy_spectrum(peak_psi), 5, 50)
    return growth, slope


def _quiet_decay_run(seed):
    """_decay_run in a worker process, its RuntimeWarnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return _decay_run(seed)


@pytest.fixture(scope="module")
def decay_runs():
    """The decay runs of all seeds, two at a time: each is independent
    and deterministic, so its result does not depend on the worker."""
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        return dict(zip(DECAY_SEEDS, pool.map(_quiet_decay_run, DECAY_SEEDS)))


def test_criterion_7_spectrum_slope(decay_runs):
    slopes = {seed: s for seed, (_, s) in decay_runs.items()}
    inside = sum(-3.3 <= s <= -2.5 for s in slopes.values())
    _report(7, inside >= 2,
            f"decade slope at decay onset (shells 5..50): "
            f"{ {k: round(v, 3) for k, v in slopes.items()} }; "
            f"{inside}/3 seeds within [-3.3, -2.5] (need >= 2)")


def test_criterion_8_energy_transient(decay_runs):
    growths = {seed: g for seed, (g, _) in decay_runs.items()}
    inside = sum(0.05 <= g <= 0.30 for g in growths.values())
    _report(8, inside >= 2,
            f"energy growth before decay: "
            f"{ {k: f'{v * 100:.2f}%' for k, v in growths.items()} }; "
            f"{inside}/3 seeds within [5%, 30%] (need >= 2)")


# --- 9: byte-identical determinism ---------------------------------------


def test_criterion_9_determinism(tmp_path):
    from betaplane.config import OutputSpec

    cfg = RunConfig(
        grid=Grid(32, 32, 2.0 * np.pi, 2.0 * np.pi), beta=1.5, steps=50,
        dt=0.005, ic=IcSpec(k0=4.0, p=6.0, q=18.0, amplitude=1.0, seed=1),
        output=OutputSpec(snapshot_every=25, spectrum_every=25),
    )
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    names = ("diagnostics.csv", "manifest.json", "snapshot_000050.bpf",
             "spectrum_000050.csv")
    same = {
        name: (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in names
    }
    # manifests differ only in wall time; compare them without it
    import json

    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    same["manifest.json"] = ma == mb
    _report(9, all(same.values()),
            f"byte-identical artifacts across two runs: {same}")
