"""The benchmark's workloads: inputs from a seed, one operation, and the
check of that operation's outputs.

Each workload turns the --seed argument into inputs (a config file for
the solver workloads, a certification seed for ``certify``), runs one
operation through the package's public functions, and checks the
outputs against ``reference.json``. The package only ever sees the
generated inputs.

Seeds are folded onto a pool of ``POOL`` input sets so that every input
set has a recorded reference (final energy and enstrophy, row counts),
made by ``make_reference.py`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from time import perf_counter

POOL = 16
TWO_PI = "6.283185307179586"

# Operation sizes. They are part of the recorded reference; changing
# one means running make_reference.py again.
DECAY_N, DECAY_K0, DECAY_STEPS = 256, 32, 100
ARTIFACT_N, ARTIFACT_K0, ARTIFACT_STEPS = 64, 8, 300
CERTIFY_FIELDS, CERTIFY_POINTS = 6, 5

# Acceptance criterion 2 certifies the identity suite at this residual.
CERTIFY_TOL = 1.0e-6
BUDGET_ROWS = 6  # two conservative closures at three resolutions


class CheckFailed(Exception):
    """An operation returned, but its outputs are wrong."""


def pool_index(seed: int) -> int:
    return seed % POOL


def solver_config(n: int, k0: int, steps: int, ic_seed: int,
                  every: int) -> str:
    """The decay setup of acceptance criteria 7/8 as an INI file."""
    return f"""[grid]
nx = {n}
ny = {n}
lx = {TWO_PI}
ly = {TWO_PI}

[model]
beta = 7
dt = auto
steps = {steps}
raw_gamma = 0.05

[dissipation]
kind = invariant_hyper
n = 2
nu = 1.45e-8

[ic]
k0 = {k0}
seed = {ic_seed}

[output]
snapshot_every = {every}
spectrum_every = {every}
"""


def final_integrals(out: Path) -> tuple[float, float]:
    """Energy and enstrophy of the last row of diagnostics.csv."""
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["energy"]), float(rows[-1]["enstrophy"])


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class SolverWorkload:
    """``betaplane run`` on a generated config; one run is one operation."""

    unit = "steps"

    def __init__(self, name: str, n: int, k0: int, steps: int, every: int):
        self.name, self.n, self.k0 = name, n, k0
        self.steps, self.every = steps, every

    def params(self) -> dict:
        return {"n": self.n, "k0": self.k0, "steps": self.steps,
                "every": self.every}

    def config_text(self, seed: int) -> str:
        return solver_config(self.n, self.k0, self.steps, pool_index(seed),
                             self.every)

    def prepare(self, seed: int, work: Path) -> dict:
        ini = work / f"{self.name}.ini"
        ini.write_text(self.config_text(seed))
        return {"ini": ini, "seed": seed}

    def run(self, ctx: dict, out: Path) -> float:
        """One operation; returns its wall time in seconds."""
        from betaplane import cli

        argv = ["run", str(ctx["ini"]), "--out-dir", str(out)]
        t0 = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - t0
        if code != 0:
            raise CheckFailed(f"betaplane run exited with {code}")
        return wall

    def check(self, ctx: dict, out: Path, reference: dict) -> None:
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["status"] != "ok":
            raise CheckFailed(f"status {manifest['status']!r}")
        if manifest["steps_completed"] != self.steps:
            raise CheckFailed(
                f"{manifest['steps_completed']} of {self.steps} steps")
        ref = reference["runs"][self.name][str(pool_index(ctx["seed"]))]
        tol = reference["tolerance"][self.name]
        energy, enstrophy = final_integrals(out)
        for label, got, want in (("energy", energy, ref["energy"]),
                                 ("enstrophy", enstrophy, ref["enstrophy"])):
            if not _rel(got, want) <= tol:
                raise CheckFailed(
                    f"final {label} {got!r} differs from reference {want!r} "
                    f"by {_rel(got, want):.3e} relative (tol {tol:.3e})")
        if self.every:
            self._check_artifacts(out)

    def _check_artifacts(self, out: Path) -> None:
        from betaplane.snapshot import read_snapshot

        expected = self.steps // self.every + 1
        snaps = sorted(out.glob("snapshot_*.bpf"))
        specs = sorted(out.glob("spectrum_*.csv"))
        if len(snaps) != expected or len(specs) != expected:
            raise CheckFailed(f"{len(snaps)} snapshots and {len(specs)} "
                              f"spectra, expected {expected} of each")
        with open(out / "diagnostics.csv", newline="") as fh:
            times = [float(r["time"]) for r in csv.DictReader(fh)]
        for path in snaps:
            step = int(path.stem.split("_")[1])
            field, time = read_snapshot(path)
            if field.grid.shape != (self.n, self.n):
                raise CheckFailed(f"{path.name}: grid {field.grid.shape}")
            if time != times[step]:
                raise CheckFailed(f"{path.name}: time {time!r} is not the "
                                  f"diagnostics time {times[step]!r}")

    def counts(self, out: Path) -> dict:
        """Exact counts of one operation: work units and artifact bytes
        by the layer that wrote them."""
        snapshot = sum(p.stat().st_size for p in out.glob("*.bpf"))
        total = sum(p.stat().st_size for p in out.iterdir())
        return {"units": self.steps, "snapshot_bytes": snapshot,
                "run_bytes": total - snapshot}

    def setup_probe_args(self, ctx: dict) -> list[str]:
        return ["--config", str(ctx["ini"])]


class CertifyWorkload:
    """``certify_invariants`` plus ``certify_conservation``; one call of
    each is one operation."""

    name = "certify"
    unit = "rows"

    def params(self) -> dict:
        return {"fields": CERTIFY_FIELDS, "points": CERTIFY_POINTS}

    def prepare(self, seed: int, work: Path) -> dict:
        return {"seed": seed}

    def run(self, ctx: dict, out: Path) -> float:
        from betaplane import run as bp_run

        out.mkdir(parents=True, exist_ok=True)
        seed = pool_index(ctx["seed"])
        t0 = perf_counter()
        worst_i = bp_run.certify_invariants(
            out / "identities.csv", n_fields=CERTIFY_FIELDS,
            n_points=CERTIFY_POINTS, seed=seed)
        worst_c = bp_run.certify_conservation(
            out / "divergence.csv", out / "budgets.csv",
            n_fields=CERTIFY_FIELDS, n_points=CERTIFY_POINTS, seed=seed)
        wall = perf_counter() - t0
        ctx["worst"] = (worst_i, worst_c)
        return wall

    @staticmethod
    def _rows(path: Path) -> list[dict]:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def row_counts(self, out: Path) -> dict:
        return {"identity_rows": len(self._rows(out / "identities.csv")),
                "divergence_rows": len(self._rows(out / "divergence.csv"))}

    def counts(self, out: Path) -> dict:
        """Exact counts of one operation: residual rows written."""
        rows = self.row_counts(out)
        return {"units": rows["identity_rows"] + rows["divergence_rows"],
                **rows}

    def check(self, ctx: dict, out: Path, reference: dict) -> None:
        for label, worst in zip(("identity", "divergence"), ctx["worst"]):
            if not worst <= CERTIFY_TOL:
                raise CheckFailed(f"worst {label} residual {worst!r} "
                                  f"exceeds {CERTIFY_TOL}")
        for name in ("identities.csv", "divergence.csv"):
            for row in self._rows(out / name):
                res = float(row["residual"])
                if not (math.isfinite(res) and res <= CERTIFY_TOL):
                    raise CheckFailed(f"{name}: residual {res!r}")
        budgets = self._rows(out / "budgets.csv")
        if len(budgets) != BUDGET_ROWS or not all(
                math.isfinite(float(row[k])) for row in budgets
                for k in ("dE", "dZ", "dGamma", "dM")):
            raise CheckFailed("budget table incomplete or non-finite")
        want = reference["runs"][self.name][str(pool_index(ctx["seed"]))]
        got = self.row_counts(out)
        if got != want:
            raise CheckFailed(f"row counts {got} differ from reference {want}")

    def setup_probe_args(self, ctx: dict) -> list[str]:
        return []


WORKLOADS = {
    "decay256": SolverWorkload("decay256", DECAY_N, DECAY_K0, DECAY_STEPS, 0),
    "artifacts64": SolverWorkload("artifacts64", ARTIFACT_N, ARTIFACT_K0,
                                  ARTIFACT_STEPS, 1),
    "certify": CertifyWorkload(),
}
