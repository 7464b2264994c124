"""Command-line entry point.

Subcommands:
  run <config>                 full simulation with artifacts
  ic <config>                  generate and store the initial condition
  equivariance <config> --eps1 V [--spec NAME]   paired-run comparison
  certify-invariants           residual table for the identity suite
  certify-conservation         divergence identities and budgets

Exit codes: 0 ok, 1 instability, 2 configuration error. The output
directory defaults to the config's out_dir, then BETAPLANE_OUT_DIR,
then the working directory.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .config import (
    ConfigError,
    OutputSpec,
    RunConfig,
    generate_initial_condition,
    parse_config_file,
)
from .dissipation import VARIANTS
from .invariants import GroupElement
from .jets import TimeFunction
from .run import (
    EXIT_CONFIG,
    EXIT_INSTABILITY,
    EXIT_OK,
    certify_conservation,
    certify_invariants,
    run_experiment,
)
from .snapshot import write_snapshot
from .symmetry import (
    ExperimentInstabilityError,
    HarnessDomainError,
    equivariance_report,
)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {raw!r}")
    return value


def _positive(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaplane", description="beta-plane vorticity laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured simulation")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out-dir", type=Path, default=None)

    p_ic = sub.add_parser("ic", help="write the initial condition snapshot")
    p_ic.add_argument("config", type=Path)
    p_ic.add_argument("--out-dir", type=Path, default=None)

    p_eq = sub.add_parser("equivariance", help="paired-run scale test")
    p_eq.add_argument("config", type=Path)
    p_eq.add_argument("--eps1", type=_finite, required=True)
    p_eq.add_argument("--eps3", type=_finite, default=0.0)
    p_eq.add_argument("--boost", type=_finite, default=0.0,
                      help="linear boost velocity f'(t)")
    p_eq.add_argument("--spec", choices=VARIANTS, default=None,
                      help="override the config's dissipation kind")
    p_eq.add_argument("--out-dir", type=Path, default=None)

    p_ci = sub.add_parser("certify-invariants",
                          help="syzygy/commutator residual table")
    p_cc = sub.add_parser("certify-conservation",
                          help="divergence identities and grid budgets")
    for p in (p_ci, p_cc):
        p.add_argument("--out-dir", type=Path, default=None)
        p.add_argument("--fields", type=_positive, default=20)
        p.add_argument("--points", type=_positive, default=20)
        p.add_argument("--seed", type=_non_negative, default=0)
    return parser


def _out_dir(arg, cfg: RunConfig | None) -> Path:
    if arg is not None:
        return Path(arg)
    output = cfg.output if cfg is not None else OutputSpec()
    return Path(output.resolved_dir())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, HarnessDomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = parse_config_file(args.config)
        result = run_experiment(cfg, out_dir=_out_dir(args.out_dir, cfg))
        if result.status != EXIT_OK:
            print(
                f"instability after step {result.steps_completed}; "
                "last good snapshot retained",
                file=sys.stderr,
            )
        return result.status

    if args.command == "ic":
        cfg = parse_config_file(args.config)
        psi = generate_initial_condition(cfg)
        out = _out_dir(args.out_dir, cfg)
        out.mkdir(parents=True, exist_ok=True)
        write_snapshot(out / "ic.bpf", psi, 0.0)
        print(out / "ic.bpf")
        return EXIT_OK

    if args.command == "equivariance":
        cfg = parse_config_file(args.config)
        if args.spec is not None:
            cfg = replace(
                cfg,
                dissipation=replace(cfg.dissipation, kind=args.spec),
            )
        gel = GroupElement(
            eps1=args.eps1,
            eps2=0.0,
            eps3=args.eps3,
            f=TimeFunction((0.0, args.boost)),
            g=TimeFunction.zero(),
        )
        out = _out_dir(args.out_dir, cfg)
        try:
            report = equivariance_report(cfg, gel, out / "equivariance.csv")
        except ExperimentInstabilityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INSTABILITY
        print(
            f"field_rel_err={report.field_rel_err:.6e} "
            f"spectrum_rms_log_err={report.spectrum_rms_log_err:.6e}"
        )
        return EXIT_OK

    if args.command == "certify-invariants":
        out = _out_dir(args.out_dir, None)
        out.mkdir(parents=True, exist_ok=True)
        skipped = Counter()
        worst = certify_invariants(out / "invariant_identities.csv",
                                   n_fields=args.fields,
                                   n_points=args.points, seed=args.seed,
                                   skipped=skipped)
        print(f"max residual {worst:.6e} -> {out / 'invariant_identities.csv'}")
        print(f"skipped: {skipped.total()}"
              + "".join(f" {name}={n}" for name, n in sorted(skipped.items())))
        return EXIT_OK

    if args.command == "certify-conservation":
        out = _out_dir(args.out_dir, None)
        out.mkdir(parents=True, exist_ok=True)
        worst = certify_conservation(
            out / "conservation_identities.csv",
            out / "conservation_budgets.csv",
            n_fields=args.fields, n_points=args.points, seed=args.seed,
        )
        print(f"max residual {worst:.6e} -> {out}")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
