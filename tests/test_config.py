"""Configuration parsing and the seeded banded-Gaussian initial field."""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from betaplane.config import (
    DEFAULT_BETA,
    DEFAULT_L,
    DEFAULT_NX,
    ConfigError,
    IcSpec,
    OutputSpec,
    _SCHEMA,
    RunConfig,
    config_echo,
    generate_initial_condition,
    parse_config,
)
from betaplane.diagnostics import energy_spectrum
from betaplane.dissipation import DissipationSpec
from betaplane.dynamics import ModelParams
from betaplane.grid import Grid

MINIMAL = """
[model]
steps = 10
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.steps == 10
    assert cfg.grid.nx == DEFAULT_NX and cfg.grid.ny == DEFAULT_NX
    assert cfg.grid.lx == DEFAULT_L and cfg.grid.ly == DEFAULT_L
    assert cfg.beta == DEFAULT_BETA
    assert cfg.dt is None  # auto
    assert cfg.dissipation.kind == "none"
    assert cfg.ic.k0 == 32.0 and cfg.ic.p == 6.0 and cfg.ic.q == 18.0
    # the [model] defaults are ModelParams' own
    assert RunConfig(steps=1).model_params(1.0) == \
        ModelParams(beta=DEFAULT_BETA, dt=1.0)


def test_full_config_roundtrip():
    cfg = parse_config(
        """
[grid]
nx = 64
ny = 32
lx = 6.0
ly = 3.0

[model]
beta = 2.5
dt = 0.01
steps = 100
raw_gamma = 0.05
mean_velocity = 0.3

[dissipation]
kind = invariant_hyper
n = 2
nu = 1e-7

[ic]
k0 = 8
amplitude = 2.0
seed = 5

[output]
snapshot_every = 10
out_dir = /tmp/runs
"""
    )
    assert cfg.grid == Grid(64, 32, 6.0, 3.0)
    assert cfg.beta == 2.5
    assert cfg.dt == 0.01
    assert cfg.dissipation.kind == "invariant_hyper"
    assert cfg.dissipation.nu == 1e-7
    assert cfg.ic.seed == 5
    assert cfg.output.snapshot_every == 10
    assert cfg.output.resolved_dir() == "/tmp/runs"


EVERY_KEY = """
[grid]
nx = 48
ny = 40
lx = 7.5
ly = 3.25

[model]
beta = 2.5
dt = 0.0125
steps = 7
raw_gamma = 0.07
raw_alpha = 0.6
mean_velocity = -0.3

[dissipation]
kind = invariant_hyper
n = 3
nu = 1e-7
K = 0.25

[ic]
shape = banded-gaussian
k0 = 5.5
p = 4
q = 20
amplitude = 0.3
seed = 9

[output]
snapshot_every = 3
spectrum_every = 4
out_dir = /tmp/runs
"""


def test_echo_round_trips_every_key():
    # every RunConfig field is a [model] key or a section of its own
    assert {f.name for f in fields(RunConfig)} == (
        set(_SCHEMA["model"]) | set(_SCHEMA) - {"model"})
    cfg = parse_config(EVERY_KEY)
    defaults = parse_config("[model]\nsteps = 1\n")
    for section, keys in _SCHEMA.items():
        for key in keys:
            if key == "shape":  # banded-gaussian is the only shape
                continue
            own = cfg if section == "model" else getattr(cfg, section)
            base = defaults if section == "model" else getattr(defaults, section)
            assert getattr(own, key) != getattr(base, key), (section, key)

    rerun = replace(cfg, output=replace(cfg.output, out_dir=""))
    assert parse_config(config_echo(cfg, cfg.dt)) == rerun
    # dt = auto echoes the resolved step, which needs all 17 digits
    auto = replace(cfg, dt=None)
    assert parse_config(config_echo(auto, 1.0 / 3.0)) == replace(rerun, dt=1.0 / 3.0)


def test_dt_auto_literal():
    cfg = parse_config("[model]\nsteps = 5\ndt = auto\n")
    assert cfg.dt is None


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="viscocity"):
        parse_config("[model]\nsteps = 5\n\n[dissipation]\nviscocity = 1e-4\n")


def test_all_problems_reported_together():
    bad = """
[grid]
nx = twelve

[model]
beta = 1.0

[turbulence]
x = 1
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "nx" in msg  # bad value
    assert "steps" in msg  # missing required key
    assert "turbulence" in msg  # unknown section


def test_missing_model_section():
    with pytest.raises(ConfigError, match=r"\[model\]"):
        parse_config("[grid]\nnx = 32\n")


def test_capital_k_key_survives():
    cfg = parse_config(
        "[model]\nsteps = 1\n\n[dissipation]\nkind = anticipated_invariant\nK = 0.5\n"
    )
    assert cfg.dissipation.K == 0.5


def test_run_config_validation():
    grid = Grid(32, 32, 1.0, 1.0)
    with pytest.raises(ConfigError):
        RunConfig(grid=grid, beta=0.0, steps=0)
    with pytest.raises(ConfigError):
        RunConfig(grid=grid, beta=0.0, steps=1, dt=-0.1)


def test_ic_spec_validation():
    with pytest.raises(ConfigError):
        IcSpec(shape="vortex-patch")
    with pytest.raises(ConfigError):
        IcSpec(amplitude=0.0)
    with pytest.raises(ConfigError):
        OutputSpec(snapshot_every=-1)


@pytest.mark.parametrize("build", [
    lambda nan: Grid(32, 32, nan, 1.0),
    lambda nan: Grid(32, 32, 1.0, nan),
    lambda nan: ModelParams(beta=0.0, dt=nan),
    lambda nan: RunConfig(steps=1, dt=nan),
    lambda nan: IcSpec(amplitude=nan),
    lambda nan: IcSpec(k0=nan),
    lambda nan: DissipationSpec("classical", nu=nan),
    lambda nan: DissipationSpec("down_gradient_invariant", K=nan),
], ids=["grid-lx", "grid-ly", "params-dt", "run-dt", "ic-amplitude", "ic-k0",
        "dissipation-nu", "dissipation-K"])
def test_nan_fails_positivity_checks(build):
    with pytest.raises(ValueError):
        build(float("nan"))


# --- initial condition ---------------------------------------------------


@pytest.fixture
def cfg64():
    return RunConfig(
        grid=Grid(64, 64, 2.0 * np.pi, 2.0 * np.pi),
        beta=1.0,
        steps=1,
        ic=IcSpec(k0=8.0, p=6.0, q=18.0, amplitude=1.0, seed=3),
    )


def test_ic_deterministic(cfg64):
    a = generate_initial_condition(cfg64)
    b = generate_initial_condition(cfg64)
    assert np.array_equal(a.values, b.values)


def test_ic_different_seeds_differ(cfg64):
    from dataclasses import replace

    a = generate_initial_condition(cfg64)
    b = generate_initial_condition(
        replace(cfg64, ic=replace(cfg64.ic, seed=4))
    )
    assert not np.array_equal(a.values, b.values)


def test_ic_spectrum_shape(cfg64):
    """Shell energies follow m^p/(1+m/k0)^q exactly where occupied."""
    psi = generate_initial_condition(cfg64)
    shells = energy_spectrum(psi)
    ic = cfg64.ic
    m = np.arange(1.0, len(shells) + 1)
    target = m**ic.p / (1.0 + m / ic.k0) ** ic.q
    target *= ic.amplitude / target.sum()
    log_err = np.abs(np.log10(shells[:30]) - np.log10(target[:30]))
    assert np.sqrt(np.mean(log_err**2)) <= 0.1


def test_ic_amplitude_sets_energy(cfg64):
    from dataclasses import replace

    psi1 = generate_initial_condition(cfg64)
    psi2 = generate_initial_condition(
        replace(cfg64, ic=replace(cfg64.ic, amplitude=2.0))
    )
    e1 = float(np.sum(energy_spectrum(psi1)))
    e2 = float(np.sum(energy_spectrum(psi2)))
    assert e2 == pytest.approx(2.0 * e1, rel=1e-12)
    assert e1 == pytest.approx(1.0, rel=1e-12)


def test_ic_zero_mean(cfg64):
    psi = generate_initial_condition(cfg64)
    assert abs(psi.values.mean()) < 1e-14


def test_ic_shallow_tail_warns(cfg64):
    from dataclasses import replace

    cfg = replace(cfg64, ic=replace(cfg64.ic, p=6.0, q=7.0))
    with pytest.warns(UserWarning, match="decay"):
        generate_initial_condition(cfg)
