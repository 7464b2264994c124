"""The package root: its public names, and that ``import betaplane``
plus a solver set-up loads only the solver core."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import betaplane

HOMES = {
    "ConfigError": "config",
    "DissipationSpec": "dissipation",
    "Grid": "grid",
    "GroupElement": "invariants",
    "IcSpec": "config",
    "InstabilityError": "dynamics",
    "ModelParams": "dynamics",
    "OutputSpec": "config",
    "RealField": "grid",
    "RunConfig": "config",
    "SimState": "dynamics",
    "VARIANTS": "dissipation",
    "equivariance_experiment": "symmetry",
    "integrate": "dynamics",
    "moving_frame": "invariants",
    "normalized_invariant": "invariants",
    "parse_config": "config",
    "run_experiment": "run",
}


def test_public_names_are_their_home_objects():
    assert set(betaplane.__all__) == set(HOMES) | {"__version__"}
    for name, home in HOMES.items():
        module = importlib.import_module(f"betaplane.{home}")
        assert getattr(betaplane, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from betaplane import *", namespace)
    for name in betaplane.__all__:
        assert namespace[name] is getattr(betaplane, name)


def _fresh(code: str, *path: Path) -> str:
    """What code prints in a new interpreter importing this betaplane,
    with path put before it on PYTHONPATH; the test process has already
    imported every submodule."""
    src = str(Path(betaplane.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([*map(str, path), src])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env).stdout


def test_dir_lists_every_public_name():
    out = _fresh("import betaplane\n"
                 "print(*sorted(set(betaplane.__all__) - set(dir(betaplane))))")
    assert out.split() == []


def test_submodule_attribute_is_the_submodule():
    out = _fresh("import sys, betaplane\n"
                 "print(betaplane.run is sys.modules['betaplane.run'],\n"
                 "      betaplane.jets is sys.modules['betaplane.jets'])")
    assert out.split() == ["True", "True"]


def test_unknown_attribute_names_package_and_attribute():
    with pytest.raises(AttributeError, match="'betaplane'.*'no_such_name'"):
        betaplane.no_such_name  # noqa: B018
    assert not hasattr(betaplane, "no_such_name")


# The start of ``betaplane run`` and two steps, then which of the
# certification and orchestration layers, and of the retired numba
# switch ``_accel``, the process has loaded.
SETUP = """
import sys
import betaplane
from betaplane import config, dynamics, spectral

cfg = betaplane.parse_config(
    "[grid]\\nnx = 16\\nny = 16\\n[model]\\nsteps = 2\\n[ic]\\nk0 = 4\\n")
psi = config.generate_initial_condition(cfg)
dt = dynamics.auto_dt(psi)
state = betaplane.integrate(spectral.laplacian(psi), cfg.model_params(dt),
                            cfg.steps)
assert state.step == 2
print(" ".join(name for name in ("jets", "invariants", "identities",
                                 "conservation", "symmetry", "run",
                                 "diagnostics", "snapshot", "cli",
                                 "_accel")
               if f"betaplane.{name}" in sys.modules))
"""


def test_solver_setup_loads_only_the_solver_core(tmp_path):
    """Also with a numba on the path that fails on import: the solver
    has one Arakawa bracket and never tries numba."""
    (tmp_path / "numba").mkdir()
    (tmp_path / "numba" / "__init__.py").write_text(
        "raise RuntimeError('numba imported')\n")
    assert _fresh(SETUP, tmp_path).split() == []
