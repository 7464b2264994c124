"""Run configuration parsing and seeded initial conditions.

Configurations use INI files (sections grid, model, dissipation, ic,
output). One key table, ``_SCHEMA``, drives both the parser and the
manifest echo: it names every key with its converter, in echo order.
Parsing is strict: unknown keys, missing required keys and unparsable
or non-finite (nan, inf) values are collected and reported together. A
key the file leaves out takes the default of its dataclass field. dt
may be the literal string "auto", which defers to the advective CFL
rule at startup.
"""

from __future__ import annotations

import configparser
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dissipation import DissipationSpec
from .dynamics import ModelParams
from .grid import Grid, RealField
from .spectral import shell_energies

IC_SHAPES = ("banded-gaussian",)


class ConfigError(ValueError):
    """One or more invalid configuration entries (all listed)."""


@dataclass(frozen=True)
class IcSpec:
    shape: str = "banded-gaussian"
    k0: float = 32.0
    p: float = 6.0
    q: float = 18.0
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.shape not in IC_SHAPES:
            raise ConfigError(f"unknown ic shape {self.shape!r}")
        if not self.amplitude > 0:
            raise ConfigError("ic amplitude must be positive")
        if not self.k0 > 0:
            raise ConfigError("ic k0 must be positive")
        if self.seed < 0:
            raise ConfigError("ic seed must be non-negative")


@dataclass(frozen=True)
class OutputSpec:
    snapshot_every: int = 0
    spectrum_every: int = 0
    out_dir: str = ""

    def __post_init__(self):
        if self.snapshot_every < 0 or self.spectrum_every < 0:
            raise ConfigError("output cadences must be non-negative")

    def resolved_dir(self) -> str:
        if self.out_dir:
            return self.out_dir
        return os.environ.get("BETAPLANE_OUT_DIR", ".")


DEFAULT_NX = 128
DEFAULT_L = 2.56e5
DEFAULT_BETA = 1.6e-9


@dataclass(frozen=True)
class RunConfig:
    # Everything but steps defaults to the standard decaying-turbulence
    # setup (128^2 grid, 2.56e5 box, beta = 1.6e-9), so a minimal file
    # only has to say how long to run.
    steps: int
    grid: Grid = Grid(DEFAULT_NX, DEFAULT_NX, DEFAULT_L, DEFAULT_L)
    beta: float = DEFAULT_BETA
    dt: float | None = None  # None means the auto CFL rule
    dissipation: DissipationSpec = DissipationSpec("none")
    raw_gamma: float = 0.1
    raw_alpha: float = 0.53
    mean_velocity: float = 0.0
    ic: IcSpec = IcSpec()
    output: OutputSpec = OutputSpec()

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError("dt must be positive or 'auto'")
        try:  # the range checks of the other [model] keys
            self.model_params(1.0 if self.dt is None else self.dt)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def model_params(self, dt: float) -> ModelParams:
        """The stepper's constants for this run at the resolved step dt."""
        return ModelParams(beta=self.beta, dt=dt, dissipation=self.dissipation,
                           raw_gamma=self.raw_gamma, raw_alpha=self.raw_alpha,
                           mean_velocity=self.mean_velocity)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _dt(raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else _finite(raw)


# section -> key -> converter, in echo order. Section [model] holds the
# RunConfig fields; every other section is the RunConfig field of its
# name, and each key is the attribute of that name.
_SCHEMA = {
    "grid": {"nx": int, "ny": int, "lx": _finite, "ly": _finite},
    "model": {"beta": _finite, "dt": _dt, "steps": int, "raw_gamma": _finite,
              "raw_alpha": _finite, "mean_velocity": _finite},
    "dissipation": {"kind": str, "n": int, "nu": _finite, "K": _finite},
    "ic": {"shape": str, "k0": _finite, "p": _finite, "q": _finite,
           "amplitude": _finite, "seed": int},
    "output": {"snapshot_every": int, "spectrum_every": int, "out_dir": str},
}
_REQUIRED = {
    "model": {"steps"},
}
# where a run writes is not part of the experiment: an echoed config
# reruns the same bytes wherever it is put
_NOT_ECHOED = {("output", "out_dir")}


def parse_config(text: str) -> RunConfig:
    """Parse an INI configuration string into a RunConfig.

    All schema violations (unknown sections/keys, missing required keys,
    unparsable values) are gathered and raised together.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive ("K" stays "K")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc

    problems: list[str] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key {key!r} in [{section}]")
    for section, keys in _REQUIRED.items():
        if section not in parser:
            problems.append(f"missing section [{section}]")
            continue
        for key in keys:
            if key not in parser[section]:
                problems.append(f"missing key {key!r} in [{section}]")

    given: dict[str, dict] = {section: {} for section in _SCHEMA}
    for section, keys in _SCHEMA.items():
        for key, convert in keys.items():
            if section not in parser or key not in parser[section]:
                continue
            raw = parser[section][key]
            try:
                given[section][key] = convert(raw)
            except (TypeError, ValueError):
                problems.append(f"bad value {raw!r} for {key!r} in [{section}]")

    if problems:
        raise ConfigError("; ".join(problems))

    try:
        return RunConfig(
            grid=replace(RunConfig.grid, **given["grid"]),
            dissipation=DissipationSpec(**given["dissipation"]),
            ic=IcSpec(**given["ic"]),
            output=OutputSpec(**given["output"]),
            **given["model"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_echo(cfg: RunConfig, dt: float) -> str:
    """The effective configuration as INI text for the run manifest.

    dt is the resolved step and out_dir is left out; floats carry 17
    significant digits, so parse_config reads the text back to the same
    run.
    """
    cfg = replace(cfg, dt=dt)
    blocks = []
    for section, keys in _SCHEMA.items():
        owner = cfg if section == "model" else getattr(cfg, section)
        lines = [f"[{section}]"]
        for key, convert in keys.items():
            if (section, key) in _NOT_ECHOED:
                continue
            value = getattr(owner, key)
            if convert not in (int, str):
                value = format(float(value), ".17g")
            lines.append(f"{key} = {value}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def parse_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def generate_initial_condition(cfg: RunConfig) -> RealField:
    """Gaussian random streamfunction with a prescribed shell spectrum.

    White Gaussian noise is transformed and each spectral shell is
    rescaled so the shell energy follows m^p/(1 + m/k0)^q exactly (the
    Gaussian phases stay random); the whole field is then scaled so the
    domain-average kinetic energy equals the amplitude knob, i.e.
    amplitude a vs 2a gives energies in ratio 2.
    """
    ic = cfg.ic
    grid = cfg.grid
    if ic.q <= ic.p + 2:
        warnings.warn(
            "ic spectrum tail k^(p - q) does not decay; expect a rough field",
            stacklevel=2,
        )
    rng = np.random.default_rng(ic.seed)
    psihat = np.fft.rfft2(rng.standard_normal(grid.shape))
    # min(nx, ny)//2 shells band-limit the field to the disc both axes
    # resolve (energy_spectrum bins to max(nx, ny)//2 to drop nothing)
    n_shells = min(grid.nx, grid.ny) // 2

    psihat[grid.shell > n_shells] = 0.0  # band-limit the corner modes first
    psihat[0, 0] = 0.0
    current = shell_energies(grid, psihat, n_shells)

    target = np.zeros(n_shells + 1)
    ms = np.arange(1, n_shells + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        target[1:] = ms**ic.p / (1.0 + ms / ic.k0) ** ic.q
    energy = float(np.sum(target))
    if not math.isfinite(energy):
        raise ConfigError(f"ic p = {ic.p!r} overflows the start spectrum m^p")
    if energy <= 0.0:
        raise ConfigError("initial spectrum has no energy")

    gain = np.zeros(n_shells + 1)
    ok = current > 0.0
    ok[0] = False
    gain[ok] = np.sqrt(target[ok] / current[ok])
    psihat *= gain[np.minimum(grid.shell, n_shells)]

    psi = np.fft.irfft2(psihat, s=grid.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        psi *= np.sqrt(ic.amplitude / energy)
        psi -= psi.mean()
    if not np.isfinite(psi).all():
        raise ConfigError(f"ic amplitude = {ic.amplitude!r} overflows the "
                          f"start field on a grid of lx = {grid.lx!r}, "
                          f"ly = {grid.ly!r}")
    return RealField(grid, psi)
