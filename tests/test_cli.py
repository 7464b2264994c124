"""End-to-end tests of the command-line interface and experiment
orchestration: artifacts, exit codes, determinism, manifest round-trip."""

from __future__ import annotations

import csv
import importlib.metadata
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import betaplane
from betaplane import run as bp_run
from betaplane.cli import main
from betaplane.config import config_echo, parse_config
from betaplane.grid import RealField
from betaplane.identities import IDENTITIES, DomainConditionError
from betaplane.run import (
    EXIT_CONFIG,
    EXIT_INSTABILITY,
    EXIT_OK,
    certify_invariants,
    run_experiment,
)
from betaplane.snapshot import read_snapshot

SMALL_RUN = """
[grid]
nx = 32
ny = 32
lx = 6.283185307179586
ly = 6.283185307179586

[model]
beta = 1.5
dt = 0.005
steps = 20
raw_gamma = 0.05

[ic]
k0 = 4
amplitude = 1.0
seed = 1

[output]
snapshot_every = 10
spectrum_every = 10
"""

UNSTABLE_RUN = """
[grid]
nx = 32
ny = 32
lx = 6.283185307179586
ly = 6.283185307179586

[model]
beta = 0.0
dt = 5.0
steps = 50

[dissipation]
kind = classical
n = 2
nu = 10.0

[ic]
k0 = 4
amplitude = 100.0
seed = 1
"""

# Two runs whose new vorticity level is finite while its streamfunction
# overflows, each with the step after which it stops: the default domain
# under a strong invariant hyperdiffusion, and a large domain with none.
PSI_OVERFLOW_RUNS = [("""
[grid]
nx = 16
ny = 16

[model]
dt = 100
steps = 200

[dissipation]
kind = invariant_hyper
n = 2
nu = 1e-3

[ic]
k0 = 3
amplitude = 1e6
seed = 3
""", 6), ("""
[grid]
nx = 16
ny = 16
lx = 1e7
ly = 1e7

[model]
dt = 1e3
steps = 200

[ic]
k0 = 3
seed = 2
""", 16)]

# The reference run of this tiny start on a huge domain overflows its
# first step.
UNSTABLE_EQUIVARIANCE_RUN = """
[grid]
nx = 16
ny = 16
lx = 1e150
ly = 1e150

[model]
dt = auto
steps = 3

[dissipation]
kind = invariant_hyper
nu = 1e-8

[ic]
k0 = 2
amplitude = 1e-300
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_RUN)
    return path


def test_run_writes_artifact_set(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(config_file), "--out-dir", str(out)]) == EXIT_OK
    assert (out / "diagnostics.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "snapshot_000000.bpf").exists()
    assert (out / "snapshot_000020.bpf").exists()
    assert (out / "spectrum_000010.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == betaplane.__version__

    with open(out / "diagnostics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "energy", "enstrophy", "circulation",
                      "x_momentum"]
    assert len(rows) == 22  # header + initial state + 20 steps
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(20 * 0.005)


def test_run_without_installed_metadata(tmp_path, monkeypatch):
    # a source checkout has no installed distribution: the manifest must
    # not depend on one
    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    monkeypatch.setattr(importlib.metadata, "distribution", not_installed)
    out = tmp_path / "out"
    result = run_experiment(parse_config(SMALL_RUN), out_dir=out)
    assert result.status == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"] == betaplane.__version__


def test_manifest_round_trip_reproduces_run(config_file, tmp_path):
    out1 = tmp_path / "a"
    main(["run", str(config_file), "--out-dir", str(out1)])
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["steps_completed"] == 20

    # the echoed config reruns to byte-identical artifacts
    cfg2 = parse_config(manifest["config"])
    out2 = tmp_path / "b"
    run_experiment(cfg2, out_dir=out2)
    assert (out1 / "diagnostics.csv").read_bytes() == (
        out2 / "diagnostics.csv"
    ).read_bytes()
    assert (out1 / "snapshot_000020.bpf").read_bytes() == (
        out2 / "snapshot_000020.bpf"
    ).read_bytes()


# The manifest echo of SMALL_RUN at dt = 0.005, byte for byte: reruns of
# recorded experiments parse this text, so its format must not drift.
SMALL_RUN_ECHO = """\
[grid]
nx = 32
ny = 32
lx = 6.2831853071795862
ly = 6.2831853071795862

[model]
beta = 1.5
dt = 0.0050000000000000001
steps = 20
raw_gamma = 0.050000000000000003
raw_alpha = 0.53000000000000003
mean_velocity = 0

[dissipation]
kind = none
n = 2
nu = 0
K = 0

[ic]
shape = banded-gaussian
k0 = 4
p = 6
q = 18
amplitude = 1
seed = 1

[output]
snapshot_every = 10
spectrum_every = 10
"""


def test_config_echo_format_is_pinned(config_file, tmp_path):
    assert config_echo(parse_config(SMALL_RUN), 0.005) == SMALL_RUN_ECHO
    out = tmp_path / "out"
    main(["run", str(config_file), "--out-dir", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == SMALL_RUN_ECHO


def test_run_resolves_psi0_and_dt_through_module_names(tmp_path, monkeypatch):
    """perfbench/make_reference.py perturbs its reference runs by patching
    run.generate_initial_condition and run.auto_dt; run_experiment must
    take psi0 and the auto step from exactly these names."""
    generate = bp_run.generate_initial_condition
    calls = []

    def traced_generate(cfg):
        calls.append("generate_initial_condition")
        return generate(cfg)

    def fixed_dt(psi):
        calls.append("auto_dt")
        return 0.00125

    monkeypatch.setattr(bp_run, "generate_initial_condition", traced_generate)
    monkeypatch.setattr(bp_run, "auto_dt", fixed_dt)
    cfg = replace(parse_config(SMALL_RUN), dt=None, steps=2)
    result = run_experiment(cfg, out_dir=tmp_path / "out")
    assert calls == ["generate_initial_condition", "auto_dt"]
    assert result.dt == 0.00125


def test_patched_start_reaches_manifest_and_diagnostics(tmp_path,
                                                       monkeypatch):
    """The perturbations of perfbench/make_reference.py, patches of
    run.auto_dt and run.generate_initial_condition, must change the
    recorded run: its manifest dt and its first diagnostics row."""
    cfg = replace(parse_config(SMALL_RUN), dt=None, steps=2)
    run_experiment(cfg, out_dir=tmp_path / "plain")
    generate, auto_dt = bp_run.generate_initial_condition, bp_run.auto_dt

    def scaled(c):
        psi = generate(c)
        return RealField(psi.grid, 2.0 * psi.values)

    monkeypatch.setattr(bp_run, "generate_initial_condition", scaled)
    monkeypatch.setattr(bp_run, "auto_dt", lambda psi: 0.5 * auto_dt(psi))
    run_experiment(cfg, out_dir=tmp_path / "patched")
    plain, patched = (
        json.loads((tmp_path / d / "manifest.json").read_text())
        for d in ("plain", "patched"))
    assert patched["dt"] == 0.5 * auto_dt(scaled(cfg)) != plain["dt"]
    rows = [(tmp_path / d / "diagnostics.csv").read_text().splitlines()[1]
            for d in ("plain", "patched")]
    assert rows[0] != rows[1]


def test_run_determinism_byte_identical(config_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run", str(config_file), "--out-dir", str(out1)])
    main(["run", str(config_file), "--out-dir", str(out2)])
    for name in ("diagnostics.csv", "snapshot_000020.bpf",
                 "spectrum_000020.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_unstable_run_exit_code_and_lastgood(tmp_path, capsys):
    for i, (text, step) in enumerate([(UNSTABLE_RUN, None),
                                      *PSI_OVERFLOW_RUNS]):
        path = tmp_path / f"bad{i}.ini"
        path.write_text(text)
        out = tmp_path / f"out{i}"
        assert main(["run", str(path), "--out-dir", str(out)]) == EXIT_INSTABILITY
        assert (out / "snapshot_lastgood.bpf").exists()
        psi, _ = read_snapshot(out / "snapshot_lastgood.bpf")
        assert np.all(np.isfinite(psi.values))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "instability"
        assert manifest["steps_completed"] < manifest["steps_requested"]
        if step is not None:
            assert manifest["steps_completed"] == step
            assert (f"instability after step {step};"
                    in capsys.readouterr().err)


TINY_RUN = b"[grid]\nnx = 16\nny = 16\n[model]\nsteps = 2\n"
EQUIVARIANCE = ["equivariance", "--eps1", "0.5"]


@pytest.mark.parametrize("command, text", [
    pytest.param(["run"], b"[model]\nstepz = 5\n", id="unknown-key"),
    *(pytest.param(command, b"\xff" + TINY_RUN, id=f"not-utf8-{command[0]}")
      for command in (["run"], ["ic"], EQUIVARIANCE)),
    pytest.param(["run"], b"steps = 2\n" + TINY_RUN, id="no-section-header"),
    pytest.param(["run"], TINY_RUN + b"[model]\nbeta = 0\n",
                 id="duplicate-section"),
    pytest.param(["run"], TINY_RUN + b"steps = 3\n", id="duplicate-key"),
    pytest.param(["run"], TINY_RUN + b"[ic]\nseed = -1\n", id="negative-seed"),
    pytest.param(["run"], TINY_RUN + b"[dissipation]\nkind = classical\nn = 0\n",
                 id="classical-n-0"),
    pytest.param(["run"], TINY_RUN + b"[ic]\nq = 1e6\n", id="no-ic-energy"),
    pytest.param(EQUIVARIANCE, TINY_RUN + b"[ic]\nq = 1e6\n",
                 id="no-ic-energy-equivariance"),
])
def test_config_error_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    out = tmp_path / "out"
    assert main([*command, str(path), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1
    assert not out.exists()
    if text.startswith(b"\xff"):
        assert str(path) in err


@pytest.mark.parametrize("section, key, value", [
    ("model", "dt", "nan"),
    ("ic", "amplitude", "nan"),
    ("grid", "lx", "inf"),
    ("model", "beta", "nan"),
    ("dissipation", "nu", "nan"),
])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, section, key,
                                            value):
    sections = {"grid": {"nx": "16", "ny": "16"}, "model": {"steps": "2"},
                "dissipation": {"kind": "classical"}, "ic": {"k0": "4"}}
    sections[section][key] = value
    path = tmp_path / "bad.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == EXIT_CONFIG
    assert f"{key!r} in [{section}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("raw_gamma", "1.5"), ("raw_gamma", "-0.1"), ("raw_alpha", "0.0"),
    ("raw_alpha", "1.2"),
])
def test_out_of_range_filter_is_a_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "bad.ini"
    path.write_text(f"[model]\nsteps = 2\n{key} = {value}\n")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must lie in" in err
    assert not out.exists()


@pytest.mark.parametrize("given, hostile, key", [
    ("[ic]\n", "[ic]\np = 1000\n", "p"),
    ("amplitude = 1.0", "amplitude = 1e308", "amplitude"),
    # the wavenumbers squared overflow
    ("lx = 6.283185307179586", "lx = 1e-300", "lx"),
    # the shell index of the y modes overflows the int32 shell table
    ("lx = 6.283185307179586", "lx = 1e300", "lx"),
    # the cell area overflows and the longest wave's k^2 underflows to 0
    ("lx = 6.283185307179586\nly = 6.283185307179586",
     "lx = 1e200\nly = 1e200", "ly"),
    # the Poisson solve's 1/k^2 of the longest wave overflows
    ("lx = 6.283185307179586\nly = 6.283185307179586",
     "lx = 1e155\nly = 1e155", "ly"),
], ids=["p=1000", "amplitude=1e308", "lx=1e-300", "lx=1e300",
        "lx=ly=1e200", "lx=ly=1e155"])
def test_out_of_range_start_is_a_config_error(tmp_path, capsys, given,
                                              hostile, key):
    path = tmp_path / "bad.ini"
    path.write_text(SMALL_RUN.replace(given, hostile, 1))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert f"{key} = " in line
    assert not out.exists()


def test_missing_file_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


def test_ic_subcommand(config_file, tmp_path, capsys):
    out = tmp_path / "ic"
    assert main(["ic", str(config_file), "--out-dir", str(out)]) == EXIT_OK
    psi, time = read_snapshot(out / "ic.bpf")
    assert time == 0.0
    assert psi.grid.nx == 32
    assert str(out / "ic.bpf") in capsys.readouterr().out


def test_equivariance_subcommand(config_file, tmp_path, capsys):
    out = tmp_path / "eq"
    rc = main([
        "equivariance", str(config_file), "--eps1", "1.0",
        "--out-dir", str(out),
    ])
    assert rc == EXIT_OK
    assert "field_rel_err" in capsys.readouterr().out
    with open(out / "equivariance.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "eps1"
    assert float(dict(zip(rows[0], rows[1]))["field_rel_err"]) < 1e-10


def test_equivariance_instability_exit(tmp_path, capsys):
    for i, (text, eps1, step) in enumerate([
            (UNSTABLE_RUN, "1.0", 6), (UNSTABLE_EQUIVARIANCE_RUN, "0.5", 1)]):
        path = tmp_path / f"bad{i}.ini"
        path.write_text(text)
        out = tmp_path / f"eq{i}"
        rc = main(["equivariance", str(path), "--eps1", eps1,
                   "--out-dir", str(out)])
        assert rc == EXIT_INSTABILITY
        assert (f"reference run unstable at step {step}"
                in capsys.readouterr().err)
        assert not out.exists()


def _exit_code(argv) -> int:
    """main's exit code, also when the argument parser exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("args, name", [
    (["--eps1", "nan"], "--eps1"),
    (["--eps1", "800"], "eps1"),
    (["--eps1", "-800"], "eps1"),
    # the weight e^{-3 eps1} is finite, the weighted start field is not
    (["--eps1", "-236.5"], "eps1"),
    (["--eps1", "0", "--eps3", "inf"], "--eps3"),
    (["--eps1", "0", "--boost", "inf"], "--boost"),
    # the weighted start spectrum underflows to empty shells
    (["--eps1", "200"], "eps1"),
    # the weighted start field is finite, its transform is not
    (["--eps1", "-236.3"], "eps1"),
    # the start spectrum overflows, as the first step would
    (["--eps1", "-200"], "eps1"),
])
def test_equivariance_bad_group_parameter_exit(config_file, tmp_path, capsys,
                                               args, name):
    out = tmp_path / "eq"
    rc = _exit_code(["equivariance", str(config_file), *args,
                     "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert name in line
    assert not out.exists()


def test_equivariance_spec_override(config_file, tmp_path):
    out = tmp_path / "eq2"
    rc = main([
        "equivariance", str(config_file), "--eps1", "1.0",
        "--spec", "classical", "--out-dir", str(out),
    ])
    # classical with nu = 0 is still exactly equivariant (no closure term)
    assert rc == EXIT_OK
    with open(out / "equivariance.csv") as fh:
        rows = list(csv.reader(fh))
    assert dict(zip(rows[0], rows[1]))["spec"] == "classical"


def test_certify_invariants_subcommand(tmp_path, capsys):
    out = tmp_path / "cert"
    rc = main([
        "certify-invariants", "--out-dir", str(out),
        "--fields", "3", "--points", "3", "--seed", "0",
    ])
    assert rc == EXIT_OK
    with open(out / "invariant_identities.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["identity", "seed", "point", "residual"]
    residuals = [float(r[3]) for r in rows[1:]]
    assert residuals and max(residuals) <= 1e-6
    skipped_line = capsys.readouterr().out.splitlines()[-1]
    assert skipped_line.startswith("skipped: ")
    skipped = int(skipped_line.split()[1])
    assert len(residuals) + skipped == 3 * 3 * len(IDENTITIES)


@pytest.mark.parametrize("command", ["certify-invariants",
                                     "certify-conservation"])
@pytest.mark.parametrize("option, value", [
    ("--fields", "-1"), ("--fields", "0"), ("--points", "0"),
])
def test_certify_rejects_empty_tables(tmp_path, capsys, command, option,
                                      value):
    out = tmp_path / "cert"
    rc = _exit_code([command, "--out-dir", str(out), option, value])
    assert rc == EXIT_CONFIG
    assert f"argument {option}: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify-invariants",
                                     "certify-conservation"])
def test_certify_rejects_negative_seed(tmp_path, capsys, command):
    out = tmp_path / "cert"
    rc = _exit_code([command, "--out-dir", str(out), "--seed", "-1"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "--seed" in line
    assert not out.exists()


def test_certify_invariants_counts_skipped_points(tmp_path, monkeypatch):
    """Every (point, identity) pair is either a data row or one count."""
    check = bp_run.check_syzygy
    calls = Counter()

    def every_other_syzygy_4_fails(name, nb):
        calls[name] += 1
        if name == "syzygy_4" and calls[name] % 2:
            raise DomainConditionError("forced")
        return check(name, nb)

    monkeypatch.setattr(bp_run, "check_syzygy", every_other_syzygy_4_fails)
    skipped = Counter()
    certify_invariants(tmp_path / "ids.csv", n_fields=2, n_points=2, seed=3,
                       skipped=skipped)
    with open(tmp_path / "ids.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert skipped == Counter({"syzygy_4": 2})
    assert len(rows) + skipped.total() == 2 * 2 * len(IDENTITIES)


def test_certify_conservation_subcommand(tmp_path):
    out = tmp_path / "cert"
    rc = main([
        "certify-conservation", "--out-dir", str(out),
        "--fields", "2", "--points", "2",
    ])
    assert rc == EXIT_OK
    with open(out / "conservation_identities.csv") as fh:
        rows = list(csv.reader(fh))
    assert max(float(r[3]) for r in rows[1:]) <= 1e-6
    with open(out / "conservation_budgets.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["spec", "N", "dE", "dZ", "dGamma", "dM"]
    assert len(rows) == 1 + 2 * 3  # two closures x three resolutions


def test_certify_writes_to_env_out_dir(tmp_path, monkeypatch):
    """Without --out-dir, a command with no config writes to
    BETAPLANE_OUT_DIR."""
    monkeypatch.setenv("BETAPLANE_OUT_DIR", str(tmp_path / "env"))
    rc = main(["certify-conservation", "--fields", "1", "--points", "1"])
    assert rc == EXIT_OK
    assert (tmp_path / "env" / "conservation_budgets.csv").exists()


def test_snapshot_contents_match_state(config_file, tmp_path):
    out = tmp_path / "out"
    run_experiment(parse_config(SMALL_RUN), out_dir=out)
    psi0, t0 = read_snapshot(out / "snapshot_000000.bpf")
    assert t0 == 0.0
    assert abs(psi0.values.mean()) < 1e-13
