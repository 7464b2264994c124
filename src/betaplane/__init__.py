"""Beta-plane vorticity dynamics with symmetry-invariant subgrid
closures and numeric certification of the underlying differential
invariants, syzygies and conservation identities.

Importing the package loads only the solver core (config, dissipation,
dynamics, grid and what they import). The certification suite and the
orchestration layers are imported on first access: the names in
``_LAZY`` by ``__getattr__``, and any submodule read as an attribute
(``betaplane.run``, ``betaplane.jets``, ...) likewise.
"""

import importlib

# Written into every run manifest by run.py, which imports it from here;
# pyproject.toml holds the copy the build reads.
__version__ = "0.1.0"

from .config import ConfigError, IcSpec, OutputSpec, RunConfig, parse_config
from .dissipation import VARIANTS, DissipationSpec
from .dynamics import InstabilityError, ModelParams, SimState, integrate
from .grid import Grid, RealField

# public name -> submodule that defines it, imported on first access
_LAZY = {
    "GroupElement": "invariants",
    "moving_frame": "invariants",
    "normalized_invariant": "invariants",
    "run_experiment": "run",
    "equivariance_experiment": "symmetry",
}

__all__ = [
    "ConfigError",
    "DissipationSpec",
    "Grid",
    "GroupElement",
    "IcSpec",
    "InstabilityError",
    "ModelParams",
    "OutputSpec",
    "RealField",
    "RunConfig",
    "SimState",
    "VARIANTS",
    "equivariance_experiment",
    "integrate",
    "moving_frame",
    "normalized_invariant",
    "parse_config",
    "run_experiment",
    "__version__",
]


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    try:
        # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
